package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"busenc/internal/codec"
	"busenc/internal/dist"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// The coordinator spawns os.Executable() with -worker — under `go
// test` that is this test binary, so TestMain recognizes the worker
// argv shape and becomes a protocol worker instead of running tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		fa := 0
		for i, a := range os.Args {
			if a == "-failafter" && i+1 < len(os.Args) {
				fa, _ = strconv.Atoi(os.Args[i+1])
			}
		}
		if err := dist.ServeWorker(os.Stdin, os.Stdout, dist.WorkerOpts{FailAfter: fa}); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testTrace(t *testing.T, n int) (string, *trace.Stream) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	s := trace.New("cli", 32)
	addr := rng.Uint64() >> 32
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			addr = rng.Uint64() >> 32
		} else {
			addr += 4
		}
		s.Append(addr, trace.Instr)
	}
	path := filepath.Join(t.TempDir(), "cli.betr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, s
}

func runToFile(t *testing.T, fn func(out *os.File) error) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := fn(out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunTable: the coordinator path end to end with real subprocess
// workers, table output. On a trace of a few dozen entries, where
// dividing by the cycle count or by one fewer (the first word costs
// nothing) prints differently, every row's per-cycle and saved%
// columns read as codec.Run's AvgPerCycle and SavingsVs against
// binary, the numbers every other front door prints.
func TestRunTable(t *testing.T) {
	path, _ := testTrace(t, 8000)
	got := runToFile(t, func(out *os.File) error {
		return run(sweepConfig{trace: path, workers: 2, shards: 4, codes: "paper", verify: "sampled", kernel: "auto", stride: 4}, out)
	})
	for _, name := range []string{"binary", "gray", "t0bi", "saved%"} {
		if !strings.Contains(got, name) {
			t.Errorf("table output missing %q:\n%s", name, got)
		}
	}

	path, s := testTrace(t, 40)
	got = runToFile(t, func(out *os.File) error {
		return run(sweepConfig{trace: path, workers: 2, shards: 4, codes: "paper", verify: "sampled", kernel: "auto", stride: 4}, out)
	})
	rows := strings.Split(strings.TrimSpace(got), "\n")[1:]
	if len(rows) != len(paperCodes) {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), len(paperCodes), got)
	}
	var bin codec.Result
	apart := false
	for i, row := range rows {
		c, err := codec.New(paperCodes[i], s.Width, codec.Options{Stride: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Run(c, s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			bin = want
		}
		wantRow := []string{want.Codec, strconv.FormatInt(want.Transitions, 10),
			fmt.Sprintf("%.3f", want.AvgPerCycle()), fmt.Sprintf("%.1f", 100*want.SavingsVs(bin))}
		if f := strings.Fields(row); !slices.Equal(f, wantRow) {
			t.Errorf("row %q, want codec.Run's %q", row, wantRow)
		}
		apart = apart || fmt.Sprintf("%.3f", want.AvgPerCycle()) != fmt.Sprintf("%.3f", float64(want.Transitions)/float64(want.Cycles))
	}
	if !apart {
		t.Errorf("the %d-entry trace prints the same per-cycle figure under both denominators; it checks nothing", s.Len())
	}
}

// TestRunKillAndResume: the CLI fault knobs compose — kill one
// worker's first life, stop the coordinator at the checkpoint, rerun
// the same sweep, and end with results bit-identical to Run. The
// faulted request's two whole-trace groups leave a worker idle, so it
// plans seven entry shards of the Seeder codecs besides; a last sweep
// of all codecs, one group per worker, is bit-identical too.
func TestRunKillAndResume(t *testing.T) {
	path, s := testTrace(t, 12000)
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	base := sweepConfig{trace: path, workers: 3, shards: 9, checkpoint: ckpt, codes: "t0,workzone,binary,gray,offset,incxor,beach", verify: "none", kernel: "auto", stride: 4, asJSON: true}
	first := base
	first.killWorker = "0:1"
	first.stopAfter = 4
	err := run(first, nil)
	if err == nil || !strings.Contains(err.Error(), "stopped") {
		t.Fatalf("first run: err = %v, want checkpoint stop", err)
	}
	checkRun(t, s, runToFile(t, func(out *os.File) error {
		return run(base, out)
	}), 7)
	all := base
	all.codes, all.checkpoint = "all", ""
	checkRun(t, s, runToFile(t, func(out *os.File) error {
		return run(all, out)
	}), len(codec.Names()))
}

// checkRun decodes the CLI's JSON results and holds each against the
// reference codec.Run over s, with the CLI's default stride: its
// per-line counts too when the CLI reports them.
func checkRun(t *testing.T, s *trace.Stream, got string, n int) {
	t.Helper()
	var results []codec.Result
	if err := json.Unmarshal([]byte(got), &results); err != nil {
		t.Fatalf("bad JSON output: %v\n%s", err, got)
	}
	if len(results) != n {
		t.Fatalf("%d results, want %d", len(results), n)
	}
	for _, r := range results {
		c, err := codec.New(r.Codec, s.Width, codec.Options{Stride: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Run(c, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Transitions != want.Transitions || r.Cycles != want.Cycles || r.MaxPerCycle != want.MaxPerCycle ||
			r.PerLine != nil && !slices.Equal(r.PerLine, want.PerLine) {
			t.Errorf("codec %s: CLI %+v != Run %+v", r.Codec, r, want)
		}
	}
}

// TestRunSpanTrace: -spantrace writes a merged multi-process timeline
// (coordinator + one lane per subprocess worker) and leaves the sweep
// results identical to an untraced run.
func TestRunSpanTrace(t *testing.T) {
	defer obs.DisableTracing()
	path, _ := testTrace(t, 8000)
	traceOut := filepath.Join(t.TempDir(), "merged.json")
	base := sweepConfig{trace: path, workers: 2, shards: 4, codes: "paper", verify: "none", kernel: "auto", stride: 4, asJSON: true}
	traced := base
	traced.spantrace = traceOut
	got := runToFile(t, func(out *os.File) error { return run(traced, out) })
	plain := runToFile(t, func(out *os.File) error { return run(base, out) })
	if got != plain {
		t.Errorf("traced results differ from untraced:\n%s\nvs\n%s", got, plain)
	}

	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("merged trace is not JSON: %v", err)
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
			names[ev.Name] = true
		}
	}
	if len(pids) != 3 {
		t.Errorf("merged trace has %d pid lanes, want coordinator + 2 workers", len(pids))
	}
	for _, want := range []string{"dist.sweep", "dist.shard_price", "dist.worker_conn"} {
		if !names[want] {
			t.Errorf("merged trace missing %q spans (got %v)", want, names)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := parseSpecs("binary, gray", 16, 4)
	if err != nil || len(specs) != 2 || specs[0].Name != "binary" || specs[1].Width != 16 || specs[1].Stride != 4 {
		t.Fatalf("parseSpecs: %v %v", specs, err)
	}
	all, err := parseSpecs("all", 16, 8)
	if err != nil || len(all) != len(codec.Names()) {
		t.Fatalf("all: %d specs, err %v", len(all), err)
	}
	for _, spec := range all {
		if spec.Stride != 8 {
			t.Fatalf("spec %s stride = %d, want 8", spec.Name, spec.Stride)
		}
	}
	if _, err := parseSpecs(" , ", 16, 4); err == nil {
		t.Error("blank list accepted")
	}
}

func TestParseVerify(t *testing.T) {
	for s, want := range map[string]codec.VerifyMode{
		"full": codec.VerifyFull, "sampled": codec.VerifySampled, "none": codec.VerifyNone, "": codec.VerifySampled,
	} {
		got, err := parseVerify(s)
		if err != nil || got != want {
			t.Errorf("parseVerify(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseVerify("maybe"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestSelfSpawnerBadKillSpec(t *testing.T) {
	for _, bad := range []string{"x", "0:", "0:0", "a:b"} {
		if _, err := selfSpawner(bad); err == nil {
			t.Errorf("killworker %q accepted", bad)
		}
	}
}
