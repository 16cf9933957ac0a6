package dist

import (
	"bytes"
	"os"
	"testing"
	"time"

	"busenc/internal/codec"
	"busenc/internal/obs"
)

// TestClockOffset pins the RTT-midpoint math on fake clocks.
func TestClockOffset(t *testing.T) {
	cases := []struct {
		name           string
		t0, t1, remote int64
		offset, rtt    int64
	}{
		// Symmetric path, remote clock 1s ahead: ping at 1000, pong
		// back at 1200, worker answered at local midpoint 1100 which
		// its own clock called 1_000_001_100.
		{"remote ahead", 1000, 1200, 1_000_001_100, -1_000_000_000, 200},
		// Remote clock 500ns behind: worker's midpoint reading is low,
		// so the offset is positive.
		{"remote behind", 1000, 1200, 600, 500, 200},
		// Perfectly synced clocks, zero RTT.
		{"synced", 1000, 1000, 1000, 0, 0},
		// Local clock stepped backwards mid-flight: RTT clamps to 0
		// instead of going negative.
		{"clock step", 1000, 900, 1000, 0, 0},
	}
	for _, c := range cases {
		off, rtt := clockOffset(c.t0, c.t1, c.remote)
		if off != c.offset || rtt != c.rtt {
			t.Errorf("%s: clockOffset(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.name, c.t0, c.t1, c.remote, off, rtt, c.offset, c.rtt)
		}
	}
	// Recovered offset maps worker wall clock onto coordinator wall
	// clock: a worker event at remote time now+x lands at local
	// midpoint+x.
	off, _ := clockOffset(2000, 2400, 5_000_000)
	if got := int64(5_000_123) + off; got != 2200+123 {
		t.Errorf("mapped instant = %d, want %d", got, 2200+123)
	}
}

// TestClockMinRTTRetention: both clock sinks keep the estimate from
// the narrowest round trip while counting every sample.
func TestClockMinRTTRetention(t *testing.T) {
	var h SpanHarvest
	var ns NetStats
	for _, s := range []struct{ off, rtt int64 }{
		{100, 900}, {42, 80}, {77, 500},
	} {
		h.recordClock("w/1", s.off, s.rtt)
		ns.RecordClockSample("w/1", s.off, s.rtt)
	}
	for name, got := range map[string]map[string]ClockEstimate{
		"harvest": h.Clocks(), "netstats": ns.Clocks(),
	} {
		e, ok := got["w/1"]
		if !ok {
			t.Fatalf("%s: no estimate for w/1", name)
		}
		if e.OffsetNs != 42 || e.RTTNs != 80 || e.Samples != 3 {
			t.Errorf("%s: estimate = %+v, want offset 42 rtt 80 samples 3", name, e)
		}
	}
}

// TestSpanHarvestDedup: dumps for the same worker merge with spans
// deduplicated by ID; Merged skips a dump whose host/pid is this
// process (an in-process worker sharing the coordinator's recorder).
func TestSpanHarvestDedup(t *testing.T) {
	var h SpanHarvest
	h.start("feed1234")
	h.addDump(&SpanDump{Trace: "feed1234", Host: "w", PID: 9, Epoch: 100, Spans: []obs.Span{{ID: 1}, {ID: 2}}})
	h.addDump(&SpanDump{Trace: "feed1234", Host: "w", PID: 9, Epoch: 100, Spans: []obs.Span{{ID: 2}, {ID: 3}}})
	host, _ := os.Hostname()
	h.addDump(&SpanDump{Trace: "feed1234", Host: host, PID: os.Getpid(), Spans: []obs.Span{{ID: 7}}})
	h.recordClock("w/9", 50, 10)

	procs := h.Merged([]obs.Span{{ID: 99}}, time.Unix(0, 1000))
	if len(procs) != 2 {
		t.Fatalf("procs = %d, want coordinator + 1 worker", len(procs))
	}
	if procs[0].EpochUnixNs != 1000 || len(procs[0].Spans) != 1 {
		t.Errorf("coordinator lane = %+v", procs[0])
	}
	w := procs[1]
	if w.Host != "w" || w.PID != 9 {
		t.Errorf("worker lane identity = %s/%d", w.Host, w.PID)
	}
	if len(w.Spans) != 3 {
		t.Errorf("worker spans = %d, want 3 after dedup", len(w.Spans))
	}
	if w.EpochUnixNs != 150 {
		t.Errorf("worker epoch = %d, want 100 + offset 50", w.EpochUnixNs)
	}
}

// TestSweepHarvestInProc: a harvested in-process sweep stays
// bit-identical to an unharvested one, mints a trace ID, tags the
// recorded spans with it, and Merged collapses the in-process workers
// into the coordinator's own lane.
func TestSweepHarvestInProc(t *testing.T) {
	const width = 32
	s := mixStream(width, 12000, 61)
	path := writeBETR(t, s)
	specs := AllSpecs(width)[:3]

	tr := obs.EnableTracing(obs.TracerConfig{})
	defer obs.DisableTracing()
	h := &SpanHarvest{}
	opts := Opts{
		Workers: 2, Shards: 4, Codecs: specs, Verify: codec.VerifyNone,
		Spawn: InProcSpawner(nil), Harvest: h,
	}
	res, err := Sweep(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, false))

	trace := h.TraceID()
	if len(trace) != 16 {
		t.Fatalf("trace ID = %q", trace)
	}
	spans := tr.Spans()
	byName := map[string]int{}
	for _, sp := range spans {
		if sp.Trace == trace {
			byName[sp.Name]++
		}
	}
	for _, want := range []string{"dist.sweep", "dist.shard", "dist.shard_price", "dist.codec_price", "dist.worker_conn"} {
		if byName[want] == 0 {
			t.Errorf("no %s span tagged with the trace (got %v)", want, byName)
		}
	}
	procs := h.Merged(spans, tr.Epoch())
	if len(procs) != 1 {
		t.Fatalf("in-process sweep merged into %d lanes, want 1 (self dumps skipped)", len(procs))
	}
}

// TestSweepHarvestExecWorkers is the end-to-end distributed-trace
// test: real worker subprocesses inherit the trace context over the
// wire, dump their spans back through the spans frame, and the merged
// timeline carries one clock-aligned pid lane per process — written
// twice, byte-identical.
func TestSweepHarvestExecWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	const width = 32
	s := mixStream(width, 20000, 62)
	path := writeBETR(t, s)
	specs := AllSpecs(width)[:3]

	tr := obs.EnableTracing(obs.TracerConfig{})
	defer obs.DisableTracing()
	h := &SpanHarvest{}
	res, err := Sweep(path, Opts{
		Workers: 2, Shards: 6, Codecs: specs, Verify: codec.VerifyNone,
		Spawn: execSelfSpawner(t, nil), Harvest: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, false))

	procs := h.Merged(tr.Spans(), tr.Epoch())
	if len(procs) != 3 {
		t.Fatalf("merged into %d lanes, want coordinator + 2 workers", len(procs))
	}
	clocks := h.Clocks()
	self := os.Getpid()
	for _, p := range procs[1:] {
		if p.PID == self {
			t.Errorf("worker lane claims the coordinator pid %d", self)
		}
		if len(p.Spans) == 0 {
			t.Errorf("worker lane %s has no spans", p.Label)
		}
		names := map[string]bool{}
		for _, sp := range p.Spans {
			if sp.Trace != h.TraceID() {
				t.Errorf("worker %s span %q not tagged with the trace", p.Label, sp.Name)
			}
			names[sp.Name] = true
		}
		for _, want := range []string{"dist.worker_conn", "dist.shard_price", "dist.codec_price"} {
			if !names[want] {
				t.Errorf("worker %s missing %s span", p.Label, want)
			}
		}
		key := workerKey(p.Host, p.PID)
		e, ok := clocks[key]
		if !ok || e.Samples == 0 {
			t.Errorf("no clock estimate for %s (clocks %v)", key, clocks)
		}
		// Same machine: the aligned epoch must sit within the sweep's
		// own wall-clock neighborhood, not a bogus offset away.
		if d := p.EpochUnixNs - tr.Epoch().UnixNano(); d < -int64(time.Minute) || d > int64(time.Minute) {
			t.Errorf("worker %s aligned epoch %d is %v away from the coordinator's", p.Label, p.EpochUnixNs, time.Duration(d))
		}
	}
	var a, b bytes.Buffer
	if err := obs.WriteMergedTraceEvents(&a, procs); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMergedTraceEvents(&b, procs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("merged trace not byte-identical across writes")
	}
}
