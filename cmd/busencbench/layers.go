package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/dist"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// The traced run (-trace 1) times each layer of the program separately
// on the workload's input, through the layer's public functions, with
// the program's own instrumentation off. Each pass runs inside a
// benchmark-side span. A final pass alternates front-door iterations
// with the program's metrics and spans off and on; the difference is
// obs.overhead_pct, and the last instrumented iteration's spans go into
// the -spans file next to the benchmark's. The passes repeat in rounds
// for the run length, and each metric is the median over all rounds.

// Traced-run sizes: within a round each pass repeats so that it covers
// about layerEntries entries (at most 64 times), and the serve probe
// makes probeRounds rounds of requests on a probeEntries-entry prefix.
const (
	layerEntries = 1 << 20
	probeEntries = 1 << 14
	probeRounds  = 40
)

type layerRun struct {
	reps    int
	root    obs.SpanHandle
	t       *tally
	samples map[string][]float64
}

// pass runs f reps times inside one benchmark span and records each
// call's wall time in seconds under name.
func (r *layerRun) pass(name string, f func() error) {
	sp := r.root.Child(name, obs.StageBench)
	defer sp.End()
	for i := 0; i < r.reps; i++ {
		t0 := time.Now()
		err := f()
		r.add(name, time.Since(t0).Seconds())
		r.t.check(err)
	}
}

func (r *layerRun) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *layerRun) median(name string) float64 { return median(r.samples[name]) }

func (b *bench) traced() (record, error) {
	s, path, o, w := b.streams[0], b.paths[0], b.oracles[0], b.w
	n := s.Len()
	reps := min(max(layerEntries/n, 1), 64)
	if b.cfg.smoke {
		reps = 1
	}
	bt := obs.NewTracer(obs.TracerConfig{})
	r := &layerRun{reps: reps, root: bt.Start("busencbench."+w.name, obs.StageBench),
		t: &tally{log: b.log}, samples: map[string][]float64{}}
	check := func(codes []string) func([]codec.Result, error) error {
		return func(res []codec.Result, err error) error {
			if err != nil {
				return err
			}
			return o.check(res, codes)
		}
	}

	codecs := make([]codec.Codec, len(codec.Names()))
	for i, name := range codec.Names() {
		codecs[i] = codec.MustNew(name, s.Width, core.DefaultOptions)
	}
	planes := make([]codec.Codec, len(planeCodes))
	for i, name := range planeCodes {
		planes[i] = codec.MustNew(name, s.Width, core.DefaultOptions)
	}
	cuts := make([]int, sweepShards+1)
	for k := range cuts {
		cuts[k] = k * n / sweepShards
	}
	blocks := make([][bus.BlockLen]uint64, min(n, layerEntries)/bus.BlockLen)
	for j := range blocks {
		for i := range blocks[j] {
			blocks[j][i] = s.Entries[j*bus.BlockLen+i].Addr
		}
	}
	t0c := codec.MustNew("t0", s.Width, core.DefaultOptions)
	words := codec.EncodeAll(t0c, s)
	ps, po := s, o
	if n > probeEntries {
		ps = s.Slice(0, probeEntries)
		var err error
		if po, err = computeOracle(ps, w.codes); err != nil {
			return record{}, err
		}
		if b.cfg.corrupt {
			po.corrupt()
		}
	}
	probes := probeRounds
	if b.cfg.smoke {
		probes = 4
	}
	spawn := workerSpawner(b.bin)
	front := func() error { return check(w.codes)(evaluateFile(path, w.codes)) }
	if w.kind == kindSweep {
		front = func() error { return check(w.codes)(sweepFile(path, w.codes, spawn)) }
	}
	var pt *obs.Tracer

	round := func() error {
		// trace
		r.pass("trace.decode", func() error { return drain(path, n) })
		r.pass("trace.index", func() error {
			data, closer, err := trace.MapBytes(path)
			if err != nil {
				return err
			}
			defer closer.Close()
			idx, err := trace.IndexBETR(data, path, sweepShards)
			if err == nil && idx.Total != int64(n) {
				err = fmt.Errorf("index of %d entries, want %d", idx.Total, n)
			}
			return err
		})

		// codec: every codec alone (plane codecs on their plane kernel),
		// the coordinator's seed sweep per codec, and the shared-transpose
		// plane set.
		for _, c := range codecs {
			r.pass("codec.encode."+c.Name(), func() error {
				res, err := codec.RunFast(c, s, codec.RunOpts{Verify: codec.VerifyNone})
				return check([]string{c.Name()})([]codec.Result{res}, err)
			})
			r.pass("codec.seed_sweep."+c.Name(), func() error {
				_, err := codec.BoundaryStates(c, s.Entries, cuts)
				return err
			})
		}
		r.pass("codec.planeset", func() error {
			return check(planeCodes)(codec.RunPlaneSet(planes, s, codec.RunOpts{Verify: codec.VerifyNone}))
		})

		// bus: the bit-matrix transpose alone, and transition counting
		// over pre-encoded t0 words.
		r.pass("bus.transpose", func() error {
			for j := range blocks {
				bus.Transpose64(&blocks[j])
			}
			return nil
		})
		r.pass("bus.count", func() error {
			acc := bus.NewAggregate(t0c.BusWidth())
			acc.Accumulate(words)
			if got, want := acc.Transitions(), o.Transitions["t0"]; got != want {
				return fmt.Errorf("bus count %d, oracle %d", got, want)
			}
			return nil
		})

		// core: the fan-out's channel waits, from its own histograms.
		obs.Enable()
		r.pass("core.fanout", func() error {
			before := obs.Default().Snapshot()
			err := check(w.codes)(evaluateFile(path, w.codes))
			h := obs.Default().Snapshot().Diff(before).Histograms
			r.add("core.fanout.send_wait", float64(h["core.fanout.send_wait_ns"].Sum)/1e9)
			r.add("core.fanout.worker_wait", float64(h["core.fanout.worker_wait_ns"].Sum)/1e9)
			return err
		})
		obs.Disable()

		// dist: the sweep on in-process workers, the real sweep, and the
		// real sweep's worker spawns from its own counter.
		r.pass("dist.inproc_sweep", func() error {
			return check(w.codes)(sweepFile(path, w.codes, dist.InProcSpawner(nil)))
		})
		r.pass("dist.sweep", func() error { return check(w.codes)(sweepFile(path, w.codes, spawn)) })
		obs.Enable()
		before := obs.Default().Snapshot()
		sp := r.root.Child("dist.spawns", obs.StageBench)
		r.t.check(check(w.codes)(sweepFile(path, w.codes, spawn)))
		sp.End()
		r.add("dist.worker_spawns", float64(obs.Default().Snapshot().Diff(before).Counters["dist.worker.spawns"]))
		obs.Disable()

		// serve: the daemon unloaded, on a prefix of the input.
		sp = r.root.Child("serve.probe", obs.StageBench)
		upload, miss, hit, err := serveProbe(b, ps, po, probes, r.t)
		sp.End()
		if err != nil {
			return err
		}
		r.samples["serve.upload"] = append(r.samples["serve.upload"], upload...)
		r.samples["serve.miss"] = append(r.samples["serve.miss"], miss...)
		r.samples["serve.hit"] = append(r.samples["serve.hit"], hit...)

		// obs: front-door iterations with the program's instrumentation
		// off and on, alternating.
		sp = r.root.Child("obs.overhead", obs.StageBench)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			r.t.check(front())
			r.add("obs.plain", time.Since(t0).Seconds())
			obs.Enable()
			pt = obs.EnableTracing(obs.TracerConfig{RingSize: 1 << 15})
			t0 = time.Now()
			r.t.check(front())
			r.add("obs.instrumented", time.Since(t0).Seconds())
			obs.DisableTracing()
			obs.Disable()
		}
		sp.End()
		return nil
	}

	rounds := 0
	for start := time.Now(); rounds == 0 || time.Since(start) < time.Duration(b.cfg.seconds)*time.Second; rounds++ {
		if err := round(); err != nil {
			return record{}, err
		}
	}
	r.root.End()

	m := metrics{}
	perEntry := func(name string) float64 { return r.median(name) * 1e9 / float64(n) }
	m.set(perLayer, "trace.decode_ns_per_entry", perEntry("trace.decode"))
	m.set(perLayer, "trace.index_ms", r.median("trace.index")*1e3)
	var seedAll, seedW, pricing float64
	for _, c := range codecs {
		m.set(perLayer, "codec.encode_ns_per_entry."+c.Name(), perEntry("codec.encode."+c.Name()))
		seed := r.median("codec.seed_sweep." + c.Name())
		seedAll += seed
		if slices.Contains(w.codes, c.Name()) {
			seedW += seed
			pricing += r.median("codec.encode." + c.Name())
		}
	}
	m.set(perLayer, "codec.seed_sweep_ms", seedAll*1e3)
	m.set(perLayer, "codec.planeset_ns_per_entry", perEntry("codec.planeset"))
	m.set(perLayer, "bus.transpose_ns_per_block", r.median("bus.transpose")*1e9/float64(len(blocks)))
	m.set(perLayer, "bus.count_ns_per_entry", perEntry("bus.count"))
	m.set(perLayer, "core.fanout_send_wait_ms", r.median("core.fanout.send_wait")*1e3)
	m.set(perLayer, "core.fanout_worker_wait_ms", r.median("core.fanout.worker_wait")*1e3)
	m.set(perLayer, "dist.inproc_sweep_ms", r.median("dist.inproc_sweep")*1e3)
	// What the real sweep spends beyond its index, its seed sweep and its
	// share of the pricing spread over the workers.
	m.set(perLayer, "dist.overhead_ms",
		(r.median("dist.sweep")-r.median("trace.index")-seedW-pricing/sweepWorkers)*1e3)
	m.set(perLayer, "dist.worker_spawns", r.median("dist.worker_spawns"))
	m.set(perLayer, "serve.upload_ms_p50", r.median("serve.upload")*1e3)
	m.set(perLayer, "serve.eval_miss_ms_p50", r.median("serve.miss")*1e3)
	m.set(perLayer, "serve.eval_miss_ms_p90", quantile(r.samples["serve.miss"], 0.9)*1e3)
	m.set(perLayer, "serve.eval_hit_ms_p50", r.median("serve.hit")*1e3)
	m.set(perLayer, "obs.overhead_pct", (r.median("obs.instrumented")/r.median("obs.plain")-1)*100)

	if b.cfg.spans != "" {
		if err := writeSpans(b.cfg.spans, bt, pt); err != nil {
			return record{}, err
		}
	}
	info := map[string]float64{"rounds": float64(rounds), "reps": float64(reps), "entries": float64(n)}
	return newRecord(b.cfg, w, r.t, m, info), nil
}

// drain decodes the whole trace file and checks its entry count.
func drain(path string, n int) error {
	r, closer, err := trace.OpenFile(path, nil)
	if err != nil {
		return err
	}
	defer closer.Close()
	got := 0
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		got += ch.Len()
		ch.Release()
	}
	if got != n {
		return fmt.Errorf("decoded %d entries, want %d", got, n)
	}
	return nil
}

// writeSpans writes the benchmark's spans and the program's spans from
// the last instrumented front-door iteration as one trace-event file,
// one process lane each.
func writeSpans(path string, bench, program *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteMergedTraceEvents(f, []obs.ProcessTrace{
		{Label: "busencbench", PID: os.Getpid(), EpochUnixNs: bench.Epoch().UnixNano(), Spans: bench.Spans()},
		{Label: "busenc", PID: os.Getpid(), EpochUnixNs: program.Epoch().UnixNano(), Spans: program.Spans()},
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
