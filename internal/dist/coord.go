package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Coordinator: plan -> seed sweep -> dispatch -> merge. Concurrency is
// deliberately boring — one goroutine per slot (local worker process or
// TCP peer) pulling shard indices off a shared queue with a bounded
// in-flight window (see dispatch.go), results funneled to the
// coordinator goroutine over a channel, no shared mutable state beyond
// the counters. Determinism comes from the merge, not the schedule:
// results land in fixed per-shard slots and buses merge in ascending
// shard order, so any interleaving of workers produces the same totals.

// Spawner creates worker transports. id is the worker's slot in the
// pool; gen counts respawns of that slot (0 for the first spawn), which
// fault-injecting spawners use to fail only a worker's first life.
type Spawner interface {
	Spawn(id, gen int) (Transport, error)
}

// Transport is one worker connection: framed messages plus a Close that
// reaps the worker.
type Transport interface {
	Send(m msg) error
	Recv() (msg, error)
	Close() error
}

// SpawnerFunc adapts a function to the Spawner interface.
type SpawnerFunc func(id, gen int) (Transport, error)

func (f SpawnerFunc) Spawn(id, gen int) (Transport, error) { return f(id, gen) }

// ErrStopped is returned by Sweep when Opts.StopAfter interrupted the
// sweep: the checkpoint holds everything priced so far and a second
// Sweep with the same options resumes from it.
var ErrStopped = errors.New("dist: sweep stopped at checkpoint")

// Opts configures a distributed sweep.
type Opts struct {
	// Workers is the local worker-pool size; <= 0 means 1, unless
	// Peers is non-empty, in which case <= 0 means no local workers
	// (a peers-only sweep needs no Spawn at all).
	Workers int
	// Shards is the number of contiguous shards; <= 0 means 4 per
	// slot (workers + peers), the smallest count that keeps the pool
	// busy while shard runtimes vary.
	Shards int
	// Codecs are the codes to price, all in one pass per shard.
	Codecs []CodecSpec
	// Verify, PerLine and Kernel are the codec.RunOpts every shard is
	// priced with (codec.PriceShard: shard-0 verification semantics).
	Verify  codec.VerifyMode
	PerLine bool
	Kernel  codec.Kernel
	// Checkpoint is the journal path; empty disables checkpointing.
	Checkpoint string
	// Spawn creates local workers. Required when Workers > 0
	// (cmd/busencsweep passes the re-exec spawner, tests pass
	// in-process pipes).
	Spawn Spawner
	// Peers are busencd addresses (host:port) to price shards on over
	// TCP. Each peer is one slot in the pool, mixed freely with local
	// workers. The trace is shipped once per peer by SHA-256 digest
	// into its content-addressed store before dispatch; a peer that
	// already holds the digest receives zero trace bytes.
	Peers []string
	// Window bounds in-flight shards per slot; <= 0 means
	// DefaultWindow. Window 1 reproduces the old lock-step dispatch.
	Window int
	// HeartbeatInterval and HeartbeatTimeout tune liveness probing of
	// busy slots; <= 0 means the defaults. A slot silent past the
	// timeout is declared dead and its shards re-dispatch.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Net, when non-nil, accumulates network-transport counters
	// (frames, bytes, redispatches, trace shipping) for the caller.
	Net *NetStats
	// Harvest, when non-nil, turns on distributed tracing: the sweep
	// mints a trace ID, propagates span context in every job, and
	// collects every worker's and peer's tagged spans (with clock-offset
	// estimates) into Harvest at sweep end. Harvest.Merged then yields
	// the multi-process timeline. Harvesting only observes — results
	// are bit-identical with it on or off.
	Harvest *SpanHarvest
	// StopAfter, when positive, stops the sweep after that many shard
	// results have been journaled, returning ErrStopped — the
	// coordinator half of the kill/resume tests.
	StopAfter int
	// RetryLimit is the number of times a shard orphaned by a worker
	// death is re-dispatched before the sweep fails; <= 0 means 1
	// (retry once).
	RetryLimit int
}

// Sweep prices the trace at path across a pool of worker processes and
// returns one Result per requested codec, in opts.Codecs order, each
// bit-identical to codec.RunFast over the same stream. Text traces are
// converted to a temporary BETR file once; BETR traces are shared with
// the workers by path, so no shard data crosses the pipes.
func Sweep(path string, opts Opts) ([]codec.Result, error) {
	if len(opts.Codecs) == 0 {
		return nil, fmt.Errorf("dist: no codecs requested")
	}
	workers := opts.Workers
	if workers <= 0 {
		if len(opts.Peers) > 0 {
			workers = 0
		} else {
			workers = 1
		}
	}
	if workers > 0 && opts.Spawn == nil {
		return nil, fmt.Errorf("dist: no worker spawner")
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 4 * (workers + len(opts.Peers))
	}

	var rootCtx obs.SpanContext
	if opts.Harvest != nil {
		opts.Harvest.start(obs.NewTraceID())
		rootCtx.Trace = opts.Harvest.TraceID()
	}
	root := obs.StartSpanCtx("dist.sweep", obs.StageEval, rootCtx).WithStream(path)

	// Plan: one scan of the byte view yields the shard descriptors.
	psp := root.Child("dist.plan", obs.StageRead)
	plan, cleanup, err := planTrace(path, shards)
	if err != nil {
		psp.EndErr(err)
		root.EndErr(err)
		return nil, err
	}
	defer cleanup()
	digest := planDigest(plan.idx, opts.Codecs, int(opts.Verify), opts.PerLine, int(opts.Kernel))
	psp.End()

	// Checkpoint: recover what a previous coordinator already priced.
	prior, jr, err := openCheckpoint(opts.Checkpoint, digest, plan, shards, opts.Codecs)
	if err != nil {
		root.EndErr(err)
		return nil, err
	}
	if jr != nil {
		defer jr.Close()
	}

	// Seed sweep: one sequential state-only pass per prefix-dependent
	// codec, producing the marshaled boundary state each mid-stream
	// shard needs. Skipped entirely when every codec seeds from the
	// previous symbol, or when the journal already holds the states.
	ssp := root.Child("dist.seed_sweep", obs.StageEncode)
	states, err := boundaryStates(plan, opts.Codecs, shards, prior, jr)
	if err != nil {
		ssp.EndErr(err)
		root.EndErr(err)
		return nil, err
	}
	ssp.End()

	// Slot pool: one config per local worker plus one per TCP peer.
	// Peers are handshaken (version via /healthz) and the trace is
	// shipped by digest before any shard is dispatched, so a dispatch
	// never stalls on a bulk upload.
	cfgs := make([]slotConfig, 0, workers+len(opts.Peers))
	for i := 0; i < workers; i++ {
		cfgs = append(cfgs, slotConfig{spawn: opts.Spawn})
	}
	if len(opts.Peers) > 0 {
		ns := opts.Net
		if ns == nil {
			ns = &NetStats{}
		}
		ref, err := shipTrace(root, plan, opts.Peers, ns)
		if err != nil {
			root.EndErr(err)
			return nil, err
		}
		for _, addr := range opts.Peers {
			cfgs = append(cfgs, slotConfig{spawn: peerSpawner(addr, ns), ref: ref})
		}
	}

	// Dispatch: fan the not-yet-done shards out to the pool.
	stats, err := dispatch(root, plan, opts, cfgs, shards, states, prior, jr)
	if err != nil {
		root.EndErr(err)
		return nil, err
	}

	// Span harvest from TCP peers: their recorders outlive the /dist
	// connections, so tagged spans are pulled over plain HTTP once
	// dispatch is done. Best-effort — a harvest failure costs spans,
	// not the sweep.
	if opts.Harvest != nil && len(opts.Peers) > 0 {
		hsp := root.Child("dist.net.span_harvest", obs.StageNet)
		hsp.EndErr(harvestPeerSpans(opts.Peers, opts.Harvest))
	}

	// Merge: ascending shard order, per codec.
	msp := root.Child("dist.merge", obs.StageMerge)
	results, err := mergeStats(plan, opts.Codecs, stats)
	if err != nil {
		msp.EndErr(err)
		root.EndErr(err)
		return nil, err
	}
	msp.End()
	root.End()
	return results, nil
}

// planned is the coordinator's view of the trace: the shard index plus
// the mapped byte view it was planned over.
type planned struct {
	path string // BETR path the workers open (maybe a temp conversion)
	idx  *trace.BETRIndex
	data []byte
}

// planTrace maps the trace and plans shard descriptors over it. A text
// trace (anything without the BETR magic) is decoded once and
// materialized as a temporary BETR file so workers can byte-range it;
// the returned cleanup removes the temp file and unmaps the view.
func planTrace(path string, shards int) (*planned, func(), error) {
	data, closer, err := trace.MapBytes(path)
	if err != nil {
		return nil, nil, err
	}
	tmp := ""
	if len(data) < 4 || string(data[:4]) != "BETR" {
		// Text trace: convert once. The temp file lives for the whole
		// sweep so late-spawned (and respawned) workers can open it.
		s, derr := decodeText(path, closer)
		if derr != nil {
			return nil, nil, derr
		}
		f, ferr := os.CreateTemp("", "busenc-dist-*.betr")
		if ferr != nil {
			return nil, nil, ferr
		}
		if err := trace.WriteBinary(f, s); err != nil {
			f.Close()
			os.Remove(f.Name())
			return nil, nil, err
		}
		if err := f.Close(); err != nil {
			os.Remove(f.Name())
			return nil, nil, err
		}
		tmp = f.Name()
		path = tmp
		data, closer, err = trace.MapBytes(path)
		if err != nil {
			os.Remove(tmp)
			return nil, nil, err
		}
	}
	idx, err := trace.IndexBETR(data, path, shards)
	if err != nil {
		closer.Close()
		if tmp != "" {
			os.Remove(tmp)
		}
		return nil, nil, err
	}
	RecordPlan(idx.Total, shards)
	cleanup := func() {
		closer.Close()
		if tmp != "" {
			os.Remove(tmp)
		}
	}
	return &planned{path: path, idx: idx, data: data}, cleanup, nil
}

// decodeText reads a whole non-BETR trace through the streaming
// reader. viewCloser is the MapBytes closer for the raw view, released
// here in all paths.
func decodeText(path string, viewCloser interface{ Close() error }) (*trace.Stream, error) {
	defer viewCloser.Close()
	r, closer, err := trace.OpenFile(path, nil)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return trace.ReadAll(r)
}

// planDigest content-addresses a sweep plan: the shard geometry plus
// everything that changes what workers compute. A checkpoint written
// under a different digest is for a different sweep and must not be
// resumed into this one.
func planDigest(idx *trace.BETRIndex, specs []CodecSpec, verify int, perLine bool, kernel int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(idx)
	enc.Encode(specs)
	enc.Encode([]int{verify, kernel})
	enc.Encode(perLine)
	return hex.EncodeToString(h.Sum(nil))
}

// openCheckpoint loads any prior journal state and opens the journal
// for appending, writing the plan header if the file is fresh.
func openCheckpoint(path, digest string, plan *planned, shards int, specs []CodecSpec) (*journalState, *journal, error) {
	if path == "" {
		return &journalState{boundary: map[int]map[string][]byte{}, done: map[int]map[string]bus.Stats{}}, nil, nil
	}
	prior, err := loadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if prior.header.Type != "" && prior.header.PlanDigest != digest {
		return nil, nil, fmt.Errorf("dist: checkpoint %s was written for a different plan (digest %.12s, want %.12s); remove it or rerun the original sweep",
			path, prior.header.PlanDigest, digest)
	}
	jr, err := openJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if prior.header.Type == "" {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.Name
		}
		if err := jr.append(journalRec{
			Type: recPlan, PlanDigest: digest, Trace: plan.path,
			Total: plan.idx.Total, Shards: shards, Codecs: names,
		}); err != nil {
			jr.Close()
			return nil, nil, err
		}
	}
	RecordResume(len(prior.done))
	return prior, jr, nil
}

// boundaryStates returns, for each shard, the marshaled boundary state
// per prefix-dependent codec — from the journal when a previous
// coordinator already swept, otherwise by running codec.BoundaryStates
// over the decoded stream and journaling the product.
func boundaryStates(plan *planned, specs []CodecSpec, shards int, prior *journalState, jr *journal) ([]map[string][]byte, error) {
	out := make([]map[string][]byte, shards)
	// Which codecs even need a sweep? Seeder codecs seed from the
	// descriptor's boundary entries alone.
	var sweepSpecs []CodecSpec
	for _, cs := range specs {
		c, err := cs.New()
		if err != nil {
			return nil, err
		}
		if _, ok := c.NewEncoder().(codec.Seeder); !ok {
			sweepSpecs = append(sweepSpecs, cs)
		}
	}
	if len(sweepSpecs) == 0 {
		return out, nil
	}
	if len(prior.boundary) == shards {
		complete := true
		for k := 0; k < shards && complete; k++ {
			states := prior.boundary[k]
			for _, cs := range sweepSpecs {
				if _, ok := states[cs.Name]; !ok && needsState(plan, k) {
					complete = false
					break
				}
			}
			out[k] = states
		}
		if complete {
			return out, nil
		}
	}
	// Decode the stream once, sweep every prefix-dependent codec.
	r, err := trace.NewMemRangeReader(plan.data, plan.idx.Name, plan.idx.Width, plan.idx.Cuts[0], plan.idx.Total, plan.path, nil)
	if err != nil {
		return nil, err
	}
	s, err := trace.ReadAll(r)
	if err != nil {
		return nil, err
	}
	cuts := make([]int, shards+1)
	for k := range cuts {
		cuts[k] = int(plan.idx.Cuts[k].Entry)
	}
	perCodec := make(map[string][][]byte, len(sweepSpecs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(sweepSpecs))
	for i, cs := range sweepSpecs {
		wg.Add(1)
		go func(i int, cs CodecSpec) {
			defer wg.Done()
			c, err := cs.New()
			if err == nil {
				var states [][]byte
				states, err = codec.BoundaryStates(c, s.Entries, cuts)
				if err == nil {
					mu.Lock()
					perCodec[cs.Name] = states
					mu.Unlock()
				}
			}
			errs[i] = err
		}(i, cs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	RecordSeedSweep(int64(len(s.Entries)) * int64(len(sweepSpecs)))
	for k := 0; k < shards; k++ {
		states := map[string][]byte{}
		for name, sts := range perCodec {
			if st := sts[k]; st != nil {
				states[name] = st
			}
		}
		out[k] = states
		if jr != nil {
			if err := jr.append(journalRec{Type: recBoundary, Shard: k, States: states}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// needsState reports whether shard k of the plan starts mid-stream —
// only such shards require an explicit boundary state.
func needsState(plan *planned, k int) bool {
	return plan.idx.Cuts[k].Entry > 0 && plan.idx.Cuts[k].Entry < plan.idx.Cuts[k+1].Entry
}

// buildJob assembles the wire job for one shard.
func buildJob(plan *planned, opts Opts, shard int, states map[string][]byte) *Job {
	cjs := make([]CodecJob, len(opts.Codecs))
	for i, cs := range opts.Codecs {
		cjs[i] = CodecJob{Spec: cs, State: states[cs.Name]}
	}
	cut := plan.idx.Cuts[shard]
	return &Job{
		TracePath: plan.path,
		Stream:    plan.idx.Name,
		Width:     plan.idx.Width,
		Shard:     shard,
		Cut:       cut,
		N:         plan.idx.Cuts[shard+1].Entry - cut.Entry,
		Codecs:    cjs,
		Verify:    int(opts.Verify),
		PerLine:   opts.PerLine,
		Kernel:    int(opts.Kernel),
	}
}

// mergeStats rebuilds per-shard buses from the returned stats and
// merges them ascending, per codec, into final Results.
func mergeStats(plan *planned, specs []CodecSpec, stats []map[string]bus.Stats) ([]codec.Result, error) {
	results := make([]codec.Result, len(specs))
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			return nil, err
		}
		slots := make([]*bus.Bus, len(stats))
		for k, st := range stats {
			s, ok := st[cs.Name]
			if !ok {
				return nil, fmt.Errorf("dist: shard %d returned no stats for codec %s", k, cs.Name)
			}
			b, err := bus.FromStats(c.BusWidth(), s)
			if err != nil {
				return nil, fmt.Errorf("dist: shard %d codec %s: %w", k, cs.Name, err)
			}
			slots[k] = b
		}
		merged, err := bus.MergeSlots(slots, nil)
		if err != nil {
			return nil, err
		}
		results[i] = codec.Result{
			Codec:       cs.Name,
			Stream:      plan.idx.Name,
			BusWidth:    c.BusWidth(),
			Transitions: merged.Transitions(),
			Cycles:      merged.Cycles(),
			PerLine:     merged.PerLine(),
			MaxPerCycle: merged.MaxPerCycle(),
		}
	}
	return results, nil
}

// AllSpecs returns specs for every registered codec at the given width
// with zero-value options, sorted by name — the default codec set of
// cmd/busencsweep and the dist tests.
func AllSpecs(width int) []CodecSpec {
	names := codec.Names()
	sort.Strings(names)
	specs := make([]CodecSpec, len(names))
	for i, n := range names {
		specs[i] = CodecSpec{Name: n, Width: width}
	}
	return specs
}
