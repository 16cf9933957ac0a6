package core

import (
	"bytes"
	"testing"

	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// TestEvaluateStreamingMetrics: with observability enabled, one fan-out
// evaluation must account for every chunk broadcast, every entry
// encoded per codec — grouped delta and T0-family codecs included — and
// the configured depth/worker gauges, one worker per Pricer — measured as a
// snapshot diff so the test is immune to other tests' traffic.
func TestEvaluateStreamingMetrics(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	const entries = 10000
	s := ReferenceMuxedStream(entries)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	codes := []string{"binary", "t0", "gray", "dualt0bi"}
	const workers = 2 // the delta group binary+gray and the T0-family group t0+dualt0bi

	before := obs.Default().Snapshot()
	r, err := trace.OpenBinary(bytes.NewReader(buf.Bytes()), "metrics.bin", nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := EvaluateStreaming(r, r.Width(), codes, DefaultOptions,
		FanoutConfig{Verify: codec.VerifySampled})
	if err != nil {
		t.Fatal(err)
	}
	d := obs.Default().Snapshot().Diff(before)

	wantChunks := int64((entries + trace.DefaultChunkLen - 1) / trace.DefaultChunkLen)
	if got := d.Counters["core.fanout.blocks_broadcast"]; got != wantChunks {
		t.Errorf("blocks_broadcast = %d, want %d", got, wantChunks)
	}
	if got := d.Counters["trace.chunks_read"]; got != wantChunks {
		t.Errorf("trace.chunks_read = %d, want %d", got, wantChunks)
	}
	if got := d.Counters["trace.entries_read"]; got != entries {
		t.Errorf("trace.entries_read = %d, want %d", got, entries)
	}
	for i, code := range codes {
		if got := d.Counters["codec.entries_encoded."+code]; got != entries {
			t.Errorf("entries_encoded.%s = %d, want %d", code, got, entries)
		}
		if got := d.Counters["codec.transitions."+code]; got != results[i].Transitions {
			t.Errorf("transitions.%s = %d, want %d", code, got, results[i].Transitions)
		}
	}
	// Gauges are instantaneous: after the evaluation they hold its config.
	if got := d.Gauges["core.fanout.depth"]; got != DefaultFanoutDepth {
		t.Errorf("fanout.depth gauge = %d, want %d", got, DefaultFanoutDepth)
	}
	if got := d.Gauges["core.fanout.workers"]; got != workers {
		t.Errorf("fanout.workers gauge = %d, want %d", got, workers)
	}
	// Every worker blocks at least once (on the closing channel), so the
	// wait histogram must have at least one observation per worker.
	h := d.Histograms["core.fanout.worker_wait_ns"]
	if h.Count < workers {
		t.Errorf("worker_wait_ns count = %d, want >= %d", h.Count, workers)
	}
	// The trace pool must balance: everything handed out was released.
	if got := d.Gauges["trace.pool.in_use"]; got != 0 {
		t.Errorf("trace.pool.in_use = %d after evaluation, want 0", got)
	}
	// The benchmark's request, the twelve registered codecs, runs four
	// workers: the delta group, the T0-family group, workzone and
	// adaptive.
	if r, err = trace.OpenBinary(bytes.NewReader(buf.Bytes()), "metrics.bin", nil); err != nil {
		t.Fatal(err)
	}
	all := []string{"adaptive", "beach", "binary", "businvert", "dualt0", "dualt0bi", "gray", "incxor", "offset", "t0", "t0bi", "workzone"}
	if _, err := EvaluateStreaming(r, r.Width(), all, DefaultOptions,
		FanoutConfig{Verify: codec.VerifySampled}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Snapshot().Gauges["core.fanout.workers"]; got != 4 {
		t.Errorf("fanout.workers gauge = %d for every codec, want 4", got)
	}
}

// TestEngineStatsOnRegistry: the memoization counters now live in the
// always-on "engine" registry and must agree with the public
// StreamEngineStats accessor.
func TestEngineStatsOnRegistry(t *testing.T) {
	if _, err := Streams(Synthetic); err != nil {
		t.Fatal(err)
	}
	stats := StreamEngineStats()
	var snap obs.Snapshot
	for _, s := range obs.SnapshotAll() {
		if s.Registry == "engine" {
			snap = s
		}
	}
	if snap.Registry != "engine" {
		// Synthetic streams never touch the MIPS counters; the registry
		// only shows up in SnapshotAll once something was recorded.
		if stats.MIPSRuns != 0 {
			t.Fatalf("MIPSRuns = %d but engine registry empty", stats.MIPSRuns)
		}
		return
	}
	if got := snap.Counters["engine.mips_runs"]; got != stats.MIPSRuns {
		t.Errorf("registry mips_runs = %d, StreamEngineStats = %d", got, stats.MIPSRuns)
	}
	if got := snap.Counters["engine.mips_cycles"]; got != stats.MIPSCycles {
		t.Errorf("registry mips_cycles = %d, StreamEngineStats = %d", got, stats.MIPSCycles)
	}
}
