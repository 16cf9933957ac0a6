package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"busenc/internal/arch"
	"busenc/internal/bench"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/dist"
	"busenc/internal/obs"
	"busenc/internal/trace"
	"busenc/internal/workload"
)

// benchDist spawns os.Executable() with -distworker — under `go test`
// that is this test binary, so TestMain recognizes the worker argv
// shape and becomes a protocol worker instead of running tests. With
// -paper first, the binary runs the paper command on the rest of its
// arguments.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-distworker" {
		if err := dist.ServeWorker(os.Stdin, os.Stdout, dist.WorkerOpts{}); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if len(os.Args) > 1 && os.Args[1] == "-paper" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("run failed: %v", ferr)
	}
	return out
}

func TestRunSingleTables(t *testing.T) {
	out := captureStdout(t, func() error { return run(7, core.Synthetic, 500, false, false) })
	if !strings.Contains(out, "Table 7") || !strings.Contains(out, "dualt0bi") {
		t.Errorf("table 7 output:\n%s", out)
	}
	if strings.Contains(out, "Table 2") {
		t.Error("-table 7 printed other tables")
	}
	out = captureStdout(t, func() error { return run(9, core.Synthetic, 500, true, false) })
	if !strings.Contains(out, "Crossover") {
		t.Error("sweep summary missing")
	}
}

func TestRunJSONMode(t *testing.T) {
	out := captureStdout(t, func() error { return run(3, core.Synthetic, 500, false, true) })
	if !strings.Contains(out, `"Title"`) || !strings.Contains(out, "Table 3") {
		t.Errorf("JSON output:\n%s", out)
	}
	out = captureStdout(t, func() error { return run(8, core.Synthetic, 400, false, true) })
	if !strings.Contains(out, `"experiment": "table8"`) {
		t.Error("table 8 JSON header missing")
	}
}

func TestRunUnknownSource(t *testing.T) {
	if err := run(2, core.Source("nope"), 500, false, false); err == nil {
		t.Error("unknown source accepted")
	}
}

func writeTestTrace(t *testing.T, n int) string {
	t.Helper()
	s := core.ReferenceMuxedStream(n)
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteBinary(f, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEvalTraceMatchesRun: paper -trace prints, for every codec, the
// table rendered from the reference codec.Run over the same trace,
// whether the trace is BETR or text and under the auto and the scalar
// kernel; -stream, kept for old command lines, changes no byte. The
// command runs as a real process (this test binary, see TestMain).
func TestEvalTraceMatchesRun(t *testing.T) {
	var mux workload.MuxSpec
	for _, p := range arch.Profiles() {
		if p.Name == "mips" {
			mux = workload.MuxSpec{Instr: p.InstrSpec(), Data: p.DataSpec(), DataFrac: p.DataFrac}
		}
	}
	s := mux.Stream("muxed", core.Width, 3000, 7)
	names := []string{"binary"}
	for _, n := range codec.Names() {
		if n != "binary" {
			names = append(names, n)
		}
	}
	var want []codec.Result
	for _, n := range names {
		res, err := codec.Run(codec.MustNew(n, s.Width, core.DefaultOptions), s)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for format, write := range map[string]func(io.Writer, *trace.Stream) error{"bin": trace.WriteBinary, "txt": trace.WriteText} {
		var buf bytes.Buffer
		if err := write(&buf, s); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "muxed."+format)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		if err := writeTraceTable(&table, path, s.Width, want); err != nil {
			t.Fatal(err)
		}
		for _, kernel := range []string{"auto", "scalar"} {
			for _, extra := range [][]string{nil, {"-stream"}} {
				args := append([]string{"-paper", "-trace", path, "-codes", "all", "-kernel", kernel}, extra...)
				out, err := exec.Command(exe, args...).Output()
				if err != nil {
					t.Fatalf("paper %v: %v", args[1:], err)
				}
				if string(out) != table.String() {
					t.Errorf("paper %v printed\n%s\nwant codec.Run's table\n%s", args[1:], out, table.String())
				}
			}
		}
	}
}

func TestEvalTraceCustomCodes(t *testing.T) {
	path := writeTestTrace(t, 1000)
	out := captureStdout(t, func() error { return evalTrace(path, "t0,gray", 0, "auto") })
	// binary is always prepended as the savings reference.
	for _, code := range []string{"binary", "t0", "gray"} {
		if !strings.Contains(out, code) {
			t.Errorf("code %s missing:\n%s", code, out)
		}
	}
	if strings.Contains(out, "dualt0") {
		t.Errorf("unrequested codec in output:\n%s", out)
	}
}

func TestSpanTraceExport(t *testing.T) {
	obs.EnableTracing(obs.TracerConfig{})
	defer obs.DisableTracing()
	path := writeTestTrace(t, 3000)
	captureStdout(t, func() error { return evalTrace(path, "paper", 0, "auto") })
	out := filepath.Join(t.TempDir(), "spans.json")
	writeSpanTrace(out)

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("span trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	// The streaming evaluation must leave its whole span taxonomy in the
	// file: the root, the broadcast of each chunk, the per-Pricer
	// workers and the reduction.
	for _, want := range []string{"core.evaluate_streaming", "core.broadcast", "core.worker", "core.reduce"} {
		if !names[want] {
			t.Errorf("span trace missing %q events (got %v)", want, names)
		}
	}
}

func TestDumpMetricsSpans(t *testing.T) {
	obs.EnableTracing(obs.TracerConfig{})
	defer obs.DisableTracing()
	path := writeTestTrace(t, 2000)
	captureStdout(t, func() error { return evalTrace(path, "t0,gray", 0, "auto") })

	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	dumpMetrics("spans")
	w.Close()
	os.Stderr = old
	buf, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	out := string(buf)
	for _, want := range []string{"stage", "encode", "eval", "slowest chunk"} {
		if !strings.Contains(out, want) {
			t.Errorf("spans dump missing %q:\n%s", want, out)
		}
	}
}

// readRecord loads a freshly written record and checks it against the
// committed record of the same name: same bench identity, same declared
// checks and every committed metric present — what cmd/benchguard
// would otherwise flag.
func readRecord(t *testing.T, path, name string) bench.Record {
	t.Helper()
	rec, err := bench.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := bench.Read(filepath.Join("..", "..", "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Bench != committed.Bench {
		t.Errorf("bench = %q, committed %q", rec.Bench, committed.Bench)
	}
	if !slices.Equal(rec.Checks, committed.Checks) {
		t.Errorf("checks = %+v, committed %+v", rec.Checks, committed.Checks)
	}
	for m := range committed.Metrics {
		if _, ok := rec.Metrics[m]; !ok {
			t.Errorf("metric %q missing from the fresh record", m)
		}
	}
	if rec.NumCPU < 1 || rec.GoVersion == "" {
		t.Errorf("machine identity not recorded: %+v", rec)
	}
	if rec.Metrics["parity"] != 1 {
		t.Error("parity = 0: the measured path diverged from its reference")
	}
	return rec
}

// positive fails the test for every named metric that is not > 0.
func positive(t *testing.T, rec bench.Record, metrics ...string) {
	t.Helper()
	for _, m := range metrics {
		if rec.Metrics[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, rec.Metrics[m])
		}
	}
}

func TestBenchStreamJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_stream.json")
	out := captureStdout(t, func() error { return benchStream(path, 20000) })
	if !strings.Contains(out, "parity=true") {
		t.Errorf("summary missing parity:\n%s", out)
	}
	rec := readRecord(t, path, "stream")
	positive(t, rec, "materialized_ns", "streaming_ns", "materialized_alloc_bytes", "streaming_alloc_bytes")
	if rec.Metrics["entries"] != 20000 {
		t.Errorf("entries = %v, want 20000", rec.Metrics["entries"])
	}
}

func TestBenchBitsliceJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_bitslice.json")
	out := captureStdout(t, func() error { return benchBitslice(path, 20000, 1) })
	if !strings.Contains(out, "parity=true") {
		t.Errorf("summary missing parity:\n%s", out)
	}
	rec := readRecord(t, path, "bitslice")
	positive(t, rec, "scalar_ns", "plane_ns", "speedup_bitslice")
	if rec.Metrics["entries"] != 20000 {
		t.Errorf("entries = %v, want 20000", rec.Metrics["entries"])
	}
}

func TestBenchDistJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess benchmark in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BENCH_dist.json")
	out := captureStdout(t, func() error { return benchDist(path, 30000, 1) })
	if !strings.Contains(out, "parity=true") {
		t.Errorf("summary missing parity:\n%s", out)
	}
	rec := readRecord(t, path, "dist")
	positive(t, rec, "serial_warm_ns", "dist_warm_ns", "speedup_dist", "tcp.trace_ship_bytes")
	m := rec.Metrics
	if m["entries"] != 30000 || m["workers"] < 2 || m["shards"] < m["workers"] {
		t.Errorf("sweep shape not recorded: %v", m)
	}
	if m["tcp.parity"] != 1 || m["tcp.dedup_reship_bytes"] != 0 {
		t.Errorf("networked invariants broken: tcp.parity %v, tcp.dedup_reship_bytes %v", m["tcp.parity"], m["tcp.dedup_reship_bytes"])
	}
}

func TestBenchEngineJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	out := captureStdout(t, func() error { return benchEngine(path, core.Synthetic, 1) })
	if !strings.Contains(out, "parity=true") {
		t.Errorf("summary missing parity:\n%s", out)
	}
	rec := readRecord(t, path, "engine")
	positive(t, rec, "reference_ns", "engine_cold_ns", "engine_warm_ns", "parallel.gomaxprocs", "parallel.engine_warm_ns")
	if rec.Info["source"] != "synthetic" {
		t.Errorf("source = %v, want synthetic", rec.Info["source"])
	}
	if rec.Metrics["gomaxprocs"] != 1 {
		t.Errorf("serial record at gomaxprocs %v, want 1", rec.Metrics["gomaxprocs"])
	}
}
