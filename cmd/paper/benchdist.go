package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"busenc/internal/bench"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/dist"
	"busenc/internal/obs"
	"busenc/internal/serve"
	"busenc/internal/trace"
)

// Distributed-sweep benchmark (-benchdist): serialize a large synthetic
// trace to disk, then price every registered codec over it two ways on
// the same machine —
//
//   - serial: decode the file and codec.RunFast codec by codec, the
//     sequential end-to-end best;
//   - distributed: dist.Sweep with real worker processes (this binary
//     re-executed with the hidden -distworker flag, exactly how
//     cmd/busencsweep fans out).
//
// Each timed distributed iteration includes planning, worker spawn,
// job pricing and the merge — the honest end-to-end cost a user pays
// for `busencsweep -workers N`. Parity
// requires the merged distributed results to match RunFast field for
// field on every codec. The record's absolute speedup floor binds only
// on boxes with >= 4 CPUs; the record always carries num_cpu so the
// skip is explicit.
//
// The tcp.* metrics repeat the sweep over two loopback busencd peers
// speaking the /dist upgrade protocol and prove digest dedup: the
// re-sweep's trace upload must be zero bytes because both peers
// already hold the trace content-addressed by SHA-256. The cold ship
// sweep and the re-sweep price all codecs; tcp.parity also covers one
// sweep of the Seeder codecs, the only ones the planner cuts into many
// entry shards.

// benchDist runs the comparison and writes BENCH_dist.json.
func benchDist(path string, entries, warmIters int) (err error) {
	sp := obs.StartSpan("bench.dist", obs.StageBench)
	defer func() { sp.EndErr(err) }()
	s := buildBenchTrace(entries)
	tmp, err := os.CreateTemp(filepath.Dir(path), "busenc-bench-*.betr")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath)
	if err := trace.WriteBinary(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}

	// Paper-default codec parameters (stride 4, word-addressed MIPS) so
	// the record prices the same workload semantics as every other
	// bench and CLI.
	specs := dist.AllSpecs(core.Width)
	codes := make([]string, len(specs))
	for i, spec := range specs {
		specs[i].Stride = uint64(core.Stride)
		codes[i] = spec.Name
	}

	serialSweep := func() ([]codec.Result, error) {
		r, closer, err := trace.OpenFile(tmpPath, nil)
		if err != nil {
			return nil, err
		}
		decoded, err := trace.ReadAll(r)
		closer.Close()
		if err != nil {
			return nil, err
		}
		results := make([]codec.Result, 0, len(specs))
		for _, spec := range specs {
			c, err := spec.New()
			if err != nil {
				return nil, err
			}
			res, err := codec.RunFast(c, decoded, codec.RunOpts{Verify: codec.VerifyNone})
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
		return results, nil
	}

	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2 // exercise the multi-process path even on one core
	}
	if workers > 8 {
		workers = 8
	}
	shards := 4 * workers
	self, err := os.Executable()
	if err != nil {
		return err
	}
	distSweep := func() ([]codec.Result, error) {
		return dist.Sweep(tmpPath, dist.Opts{
			Workers: workers,
			Shards:  shards,
			Codecs:  specs,
			Verify:  codec.VerifyNone,
			Spawn:   dist.ExecSpawner([]string{self, "-distworker"}, nil),
		})
	}

	serResults, serNs, err := bestOf(warmIters, serialSweep)
	if err != nil {
		return err
	}
	distResults, distNs, err := bestOf(warmIters, distSweep)
	if err != nil {
		return err
	}
	parity := sameResults(distResults, serResults)

	rec := bench.New("DistSweep", 0)
	rec.Info = map[string]any{"codecs": codes}
	rec.Metrics = map[string]float64{
		"entries":    float64(entries),
		"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
		"workers":    float64(workers),
		"shards":     float64(shards),
		"warm_iters": float64(warmIters),

		// serial_warm_ns is the best warm end-to-end serial pass: decode
		// the BETR file, RunFast every codec. dist_warm_ns is the best
		// warm distributed sweep over the same file.
		"serial_warm_ns": float64(serNs),
		"dist_warm_ns":   float64(distNs),
		"speedup_dist":   float64(serNs) / float64(distNs),
		"parity":         bench.Bool(parity), // dist results == RunFast results, all codecs
	}
	if err := benchDistTCP(&rec, tmpPath, specs, entries, serResults); err != nil {
		return err
	}
	rec.Checks = []bench.Check{
		// Below four CPUs the workers timeslice the serial baseline's
		// own cores and the ratio measures scheduling, not scaling.
		{Metric: "speedup_dist", Kind: bench.Floor, Bound: 1.3, MinCPU: 4},
		{Metric: "speedup_dist", Kind: bench.Ratio, Bound: bench.Band},
		{Metric: "parity", Kind: bench.Invariant, Bound: 1},
		{Metric: "tcp.parity", Kind: bench.Invariant, Bound: 1},
		// Dedup is correctness, not speed: a re-sweep against warm
		// peers ships zero trace bytes on any machine.
		{Metric: "tcp.dedup_reship_bytes", Kind: bench.Invariant, Bound: 0},
		{Metric: "tcp.trace_ship_bytes", Kind: bench.Floor, Bound: 1},
	}
	if err := bench.Write(path, rec); err != nil {
		return err
	}
	m := rec.Metrics
	fmt.Printf("dist bench (%d entries, %d cpu): serial warm %.1f ms, distributed warm (%d workers, %d shards) %.1f ms (%.2fx), parity=%v -> %s\n",
		entries, rec.NumCPU, float64(serNs)/1e6, workers, shards, float64(distNs)/1e6, m["speedup_dist"], parity, path)
	fmt.Printf("dist bench tcp (%.0f peers, %.0f shards): shipped %.0f B once, re-ship %.0f B (%.0f dedup hits), parity=%v\n",
		m["tcp.peers"], m["tcp.shards"], m["tcp.trace_ship_bytes"], m["tcp.dedup_reship_bytes"], m["tcp.dedup_hits"], m["tcp.parity"] == 1)
	if !parity {
		return fmt.Errorf("distributed sweep and sequential RunFast results diverge")
	}
	if m["tcp.parity"] != 1 {
		return fmt.Errorf("networked sweep and sequential RunFast results diverge")
	}
	if n := m["tcp.dedup_reship_bytes"]; n != 0 {
		return fmt.Errorf("re-sweep against warm peers shipped %.0f trace bytes, want 0 (digest dedup broken)", n)
	}
	return nil
}

// benchDistTCP records the networked variant into the tcp.* metrics of
// rec: the same sweep over two loopback busencd peers, the digest-dedup
// re-ship evidence, and parity of every networked sweep with the serial
// results.
func benchDistTCP(rec *bench.Record, tmpPath string, specs []dist.CodecSpec, entries int, serResults []codec.Result) error {
	const (
		tcpPeers = 2
		// Many small jobs: the Seeder sweep below cuts this many entry
		// shards, so parity covers a plan that hands each peer dozens of
		// jobs, not just one group each.
		tcpShards = 128
	)
	// The planner prices every prefix-dependent codec whole-trace, so
	// only the Seeder codecs fill the 128 jobs.
	var seedSpecs []dist.CodecSpec
	var seedResults []codec.Result
	for i, spec := range specs {
		c, err := spec.New()
		if err != nil {
			return err
		}
		if _, ok := c.NewEncoder().(codec.Seeder); ok {
			seedSpecs = append(seedSpecs, spec)
			seedResults = append(seedResults, serResults[i])
		}
	}
	m := rec.Metrics
	peers := make([]string, 0, tcpPeers)
	for i := 0; i < tcpPeers; i++ {
		dir, err := os.MkdirTemp("", "busenc-bench-peer-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		srv, err := serve.New(serve.Config{StoreDir: dir})
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		srv.Register(mux)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		defer hs.Close()
		peers = append(peers, ln.Addr().String())
	}

	tcpSweep := func(specs []dist.CodecSpec, ns *dist.NetStats) ([]codec.Result, error) {
		return dist.Sweep(tmpPath, dist.Opts{
			Peers:  peers,
			Shards: tcpShards,
			Codecs: specs,
			Verify: codec.VerifyNone,
			Net:    ns,
		})
	}

	// Cold sweep: ships the trace into both peers' stores exactly once.
	var ship dist.NetStats
	coldResults, err := tcpSweep(specs, &ship)
	if err != nil {
		return fmt.Errorf("networked cold sweep: %w", err)
	}
	seedSwept, err := tcpSweep(seedSpecs, nil)
	if err != nil {
		return fmt.Errorf("networked Seeder sweep: %w", err)
	}
	// Re-sweep with fresh counters: the digest probe must find both
	// peers warm, so zero trace bytes move.
	var reship dist.NetStats
	reResults, err := tcpSweep(specs, &reship)
	if err != nil {
		return fmt.Errorf("dedup re-sweep: %w", err)
	}

	m["tcp.peers"] = tcpPeers
	m["tcp.shards"] = tcpShards
	m["tcp.entries"] = float64(entries)
	m["tcp.parity"] = bench.Bool(sameResults(coldResults, serResults) && sameResults(reResults, serResults) &&
		sameResults(seedSwept, seedResults))
	// trace_ship_bytes is what the first sweep uploaded to the peers'
	// stores; dedup_reship_bytes is what the re-sweep shipped, and
	// dedup_hits counts its digest-probe hits.
	m["tcp.trace_ship_bytes"] = float64(ship.TraceShipBytes.Load())
	m["tcp.dedup_reship_bytes"] = float64(reship.TraceShipBytes.Load())
	m["tcp.dedup_hits"] = float64(reship.TraceDedupHits.Load())
	return nil
}
