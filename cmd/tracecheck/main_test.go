package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"busenc/internal/obs"
)

func TestCheckValidFile(t *testing.T) {
	// Real exporter output: record a tiny span tree and write it out.
	tr := obs.NewTracer(obs.TracerConfig{RingSize: 64})
	root := tr.Start("eval", obs.StageEval).WithStream("s")
	child := root.Child("encode", obs.StageEncode).WithCodec("t0")
	child.End()
	root.End()
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	rep, err := check(buf.Bytes())
	if err != nil {
		t.Fatalf("check rejected exporter output: %v\n%s", err, buf.String())
	}
	if rep.Complete != 2 {
		t.Errorf("complete events = %d, want 2", rep.Complete)
	}
	// The child nests inside the root, so the root alone covers the
	// window: coverage must be exactly 1.
	if math.Abs(rep.Coverage-1) > 1e-9 {
		t.Errorf("coverage = %g, want 1", rep.Coverage)
	}
}

func TestCheckCoverageUnion(t *testing.T) {
	// Two 10us spans over a 40us window: 50% coverage, and the overlap
	// between the first pair must not double-count.
	raw := []byte(`{"traceEvents": [
		{"name": "a", "ph": "X", "ts": 0, "dur": 6, "pid": 1, "tid": 1},
		{"name": "b", "ph": "X", "ts": 4, "dur": 6, "pid": 1, "tid": 2},
		{"name": "c", "ph": "X", "ts": 30, "dur": 10, "pid": 1, "tid": 1}
	]}`)
	rep, err := check(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallUs != 40 {
		t.Errorf("wall = %g, want 40", rep.WallUs)
	}
	if math.Abs(rep.Coverage-0.5) > 1e-9 {
		t.Errorf("coverage = %g, want 0.5", rep.Coverage)
	}
}

// TestCheckMultiPidLanes: per-process coverage over merged distributed
// traces — gaps and overlaps are attributed to the right lane, and a
// hole in one peer's lane is visible even when the whole-file union
// looks complete.
func TestCheckMultiPidLanes(t *testing.T) {
	cases := []struct {
		name    string
		raw     string
		lanes   int
		overall float64
		cover   map[int]float64 // pid → lane coverage
	}{
		{
			// Coordinator covers [0,100]; worker lane has a 50% hole that
			// the coordinator's span hides from the overall union.
			name: "worker hole hidden by coordinator",
			raw: `{"traceEvents": [
				{"name": "sweep", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 1},
				{"name": "price", "ph": "X", "ts": 10, "dur": 20, "pid": 2, "tid": 1},
				{"name": "price", "ph": "X", "ts": 70, "dur": 20, "pid": 2, "tid": 1}
			]}`,
			lanes:   2,
			overall: 1,
			cover:   map[int]float64{1: 1, 2: 0.5},
		},
		{
			// Overlapping spans within one lane must not double-count.
			name: "overlap within a lane",
			raw: `{"traceEvents": [
				{"name": "a", "ph": "X", "ts": 0, "dur": 6, "pid": 3, "tid": 1},
				{"name": "b", "ph": "X", "ts": 4, "dur": 6, "pid": 3, "tid": 2},
				{"name": "c", "ph": "X", "ts": 30, "dur": 10, "pid": 3, "tid": 1}
			]}`,
			lanes:   1,
			overall: 0.5,
			cover:   map[int]float64{3: 0.5},
		},
		{
			// Disjoint lanes: each is fully covered over its own window
			// even though the lanes are far apart on the shared timeline.
			name: "disjoint lanes each complete",
			raw: `{"traceEvents": [
				{"name": "m", "ph": "M", "pid": 1, "tid": 1},
				{"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
				{"name": "b", "ph": "X", "ts": 1000, "dur": 10, "pid": 2, "tid": 1}
			]}`,
			lanes:   2,
			overall: 20.0 / 1010.0,
			cover:   map[int]float64{1: 1, 2: 1},
		},
		{
			// An instantaneous lane (zero-length window) counts as covered.
			name: "degenerate lane",
			raw: `{"traceEvents": [
				{"name": "a", "ph": "X", "ts": 0, "dur": 50, "pid": 1, "tid": 1},
				{"name": "tick", "ph": "X", "ts": 25, "dur": 0, "pid": 2, "tid": 1}
			]}`,
			lanes:   2,
			overall: 1,
			cover:   map[int]float64{1: 1, 2: 1},
		},
	}
	for _, tc := range cases {
		rep, err := check([]byte(tc.raw))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(rep.Lanes) != tc.lanes {
			t.Errorf("%s: lanes = %d, want %d", tc.name, len(rep.Lanes), tc.lanes)
			continue
		}
		if math.Abs(rep.Coverage-tc.overall) > 1e-9 {
			t.Errorf("%s: overall coverage = %g, want %g", tc.name, rep.Coverage, tc.overall)
		}
		for _, lane := range rep.Lanes {
			want, ok := tc.cover[lane.Pid]
			if !ok {
				t.Errorf("%s: unexpected lane pid %d", tc.name, lane.Pid)
				continue
			}
			if math.Abs(lane.Coverage-want) > 1e-9 {
				t.Errorf("%s: pid %d coverage = %g, want %g", tc.name, lane.Pid, lane.Coverage, want)
			}
		}
		// Lanes come out in ascending pid order.
		for i := 1; i < len(rep.Lanes); i++ {
			if rep.Lanes[i].Pid <= rep.Lanes[i-1].Pid {
				t.Errorf("%s: lanes out of order: %v", tc.name, rep.Lanes)
			}
		}
	}
}

// TestCheckMergedExporterOutput: a real WriteMergedTraceEvents file
// round-trips through check with one lane per process.
func TestCheckMergedExporterOutput(t *testing.T) {
	procs := []obs.ProcessTrace{
		{Label: "coordinator", Host: "c", PID: 100, EpochUnixNs: 1_000_000, Spans: []obs.Span{
			{ID: 1, Name: "dist.sweep", Stage: obs.StageEval, Start: 0, Dur: 9000},
		}},
		{Label: "worker", Host: "w", PID: 200, EpochUnixNs: 1_002_000, Spans: []obs.Span{
			{ID: 2, Name: "dist.shard_price", Stage: obs.StageEncode, Start: 0, Dur: 4000},
			{ID: 3, Name: "dist.shard_price", Stage: obs.StageEncode, Start: 4000, Dur: 3000},
		}},
	}
	var buf bytes.Buffer
	if err := obs.WriteMergedTraceEvents(&buf, procs); err != nil {
		t.Fatal(err)
	}
	rep, err := check(buf.Bytes())
	if err != nil {
		t.Fatalf("check rejected merged exporter output: %v\n%s", err, buf.String())
	}
	if len(rep.Lanes) != 2 || rep.Complete != 3 {
		t.Fatalf("report = %+v, want 2 lanes / 3 spans", rep)
	}
	for _, lane := range rep.Lanes {
		if math.Abs(lane.Coverage-1) > 1e-9 {
			t.Errorf("pid %d coverage = %g, want 1 (contiguous spans)", lane.Pid, lane.Coverage)
		}
	}
}

func TestCheckRejections(t *testing.T) {
	cases := []struct {
		name, raw, want string
	}{
		{"not json", `nope`, "not trace-event JSON"},
		{"empty", `{"traceEvents": []}`, "empty"},
		{"bad phase", `{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]}`, "unsupported phase"},
		{"unnamed", `{"traceEvents": [{"ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]}`, "empty name"},
		{"negative", `{"traceEvents": [{"name": "a", "ph": "X", "ts": -1, "dur": 1, "pid": 1, "tid": 1}]}`, "negative ts/dur"},
		{"no tid", `{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 1, "pid": 1}]}`, "missing pid/tid"},
		{"metadata only", `{"traceEvents": [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1}]}`, "no complete"},
	}
	for _, tc := range cases {
		if _, err := check([]byte(tc.raw)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckCodecShares: each lane sums its spans' time per codec label,
// most first, with each label's share of the lane's labelled time;
// unlabelled spans count for coverage only, and labels stay in their
// own lane.
func TestCheckCodecShares(t *testing.T) {
	raw := []byte(`{"traceEvents": [
		{"name": "eval", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 1},
		{"name": "core.worker", "ph": "X", "ts": 0, "dur": 30, "pid": 1, "tid": 2, "args": {"codec": "binary+gray"}},
		{"name": "core.worker", "ph": "X", "ts": 40, "dur": 30, "pid": 1, "tid": 2, "args": {"codec": "binary+gray"}},
		{"name": "core.worker", "ph": "X", "ts": 10, "dur": 20, "pid": 1, "tid": 3, "args": {"codec": "workzone"}},
		{"name": "core.worker", "ph": "X", "ts": 50, "dur": 20, "pid": 1, "tid": 4, "args": {"codec": "adaptive"}},
		{"name": "dist.codec_price", "ph": "X", "ts": 5, "dur": 8, "pid": 2, "tid": 1, "args": {"codec": "workzone"}}
	]}`)
	rep, err := check(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]codecTime{
		{{"binary+gray", 60, 0.6}, {"adaptive", 20, 0.2}, {"workzone", 20, 0.2}},
		{{"workzone", 8, 1}},
	}
	if len(rep.Lanes) != len(want) {
		t.Fatalf("%d lanes, want %d", len(rep.Lanes), len(want))
	}
	for i, lane := range rep.Lanes {
		if len(lane.Codecs) != len(want[i]) {
			t.Fatalf("pid %d: codecs %+v, want %+v", lane.Pid, lane.Codecs, want[i])
		}
		for j, c := range lane.Codecs {
			w := want[i][j]
			if c.Codec != w.Codec || c.Us != w.Us || math.Abs(c.Share-w.Share) > 1e-9 {
				t.Errorf("pid %d codec %d: %+v, want %+v", lane.Pid, j, c, w)
			}
		}
	}
}
