package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Coordinator: plan -> dispatch -> merge. Concurrency is deliberately
// boring — one goroutine per slot (local worker process or TCP peer)
// taking a job index off a shared queue whenever its worker holds none
// (lock-step, see dispatch.go), results funneled to the coordinator
// goroutine over a channel, no shared mutable state beyond the
// counters. Determinism comes from the plan and the merge, not the
// schedule: results land in fixed per-job slots and each codec's buses
// merge in entry order, so any interleaving of workers produces the
// same totals.

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
	// Shards is the job budget: the most jobs the sweep plans; <= 0
	// means 4 per slot (workers + peers), the smallest count that keeps
	// the pool busy while job runtimes vary. The Pricers of the
	// prefix-dependent codecs take up to one whole-trace job per slot.
	// Entry shards only fill slots those jobs leave idle: the Seeder
	// codecs are cut into the rest of the budget then, and join the
	// whole-trace jobs otherwise (see plan.go).
	Shards int
	// Codecs are the codes to price.
	Codecs []CodecSpec
	// Verify, PerLine and Kernel are the codec.RunOpts every job is
	// priced with (codec.Pricer: a job past entry 0 verifies only as
	// Pricer.Seed allows), and so the Pricers the planner weighs.
	Verify  codec.VerifyMode
	PerLine bool
	Kernel  codec.Kernel
	// Checkpoint is the journal path; empty disables checkpointing.
	Checkpoint string
	// Spawn creates local workers. Required when Workers > 0
	// (cmd/busencsweep passes the re-exec spawner, tests pass
	// in-process pipes).
	Spawn Spawner
	// Peers are busencd addresses (host:port) to price jobs on over
	// TCP. Each peer is one slot in the pool, mixed freely with local
	// workers. The trace is shipped once per peer by SHA-256 digest
	// into its content-addressed store before dispatch; a peer that
	// already holds the digest receives zero trace bytes.
	Peers []string
	// HeartbeatInterval and HeartbeatTimeout tune liveness probing of
	// busy slots; <= 0 means the defaults. A slot silent past the
	// timeout is declared dead and its job re-dispatches.
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
	// StopAfter, when positive, stops the sweep after that many job
	// results have been journaled, returning ErrStopped — the
	// coordinator half of the kill/resume tests.
	StopAfter int
	// RetryLimit is the number of times a job orphaned by a worker
	// death is re-dispatched before the sweep fails; <= 0 means 1
	// (retry once).
	RetryLimit int
}

// Sweep prices the trace at path across a pool of worker processes and
// returns one Result per requested codec, in opts.Codecs order, each
// bit-identical to codec.RunFast over the same stream. Text traces are
// converted to a temporary BETR file once; BETR traces are shared with
// the workers by path, so no trace data crosses the pipes. A request
// may name each codec once: job results carry statistics keyed by
// codec name.
func Sweep(path string, opts Opts) ([]codec.Result, error) {
	if len(opts.Codecs) == 0 {
		return nil, fmt.Errorf("dist: no codecs requested")
	}
	if err := uniqueCodecs(opts.Codecs); err != nil {
		return nil, err
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
	slots := workers + len(opts.Peers)
	budget := opts.Shards
	if budget <= 0 {
		budget = 4 * slots
	}

	var rootCtx obs.SpanContext
	if opts.Harvest != nil {
		opts.Harvest.start(obs.NewTraceID())
		rootCtx.Trace = opts.Harvest.TraceID()
	}
	root := obs.StartSpanCtx("dist.sweep", obs.StageEval, rootCtx).WithStream(path)

	// Plan: lay out the jobs, then take the entry cuts they price
	// between from the byte view: its header alone for a plan of one
	// part, one scan of its entries otherwise.
	psp := root.Child("dist.plan", obs.StageRead)
	jobs, parts, err := planJobs(opts.Codecs, slots, budget, codec.RunOpts{Verify: opts.Verify, PerLine: opts.PerLine, Kernel: opts.Kernel})
	if err != nil {
		psp.EndErr(err)
		root.EndErr(err)
		return nil, err
	}
	plan, cleanup, err := planTrace(path, jobs, parts)
	if err != nil {
		psp.EndErr(err)
		root.EndErr(err)
		return nil, err
	}
	defer cleanup()
	digest := planDigest(plan, opts.Codecs, int(opts.Verify), opts.PerLine, int(opts.Kernel))
	psp.End()

	// Checkpoint: recover what a previous coordinator already priced.
	prior, jr, err := openCheckpoint(opts.Checkpoint, digest, plan, opts.Codecs)
	if err != nil {
		root.EndErr(err)
		return nil, err
	}
	if jr != nil {
		defer jr.Close()
	}

	// Slot pool: one config per local worker plus one per TCP peer.
	// Peers are handshaken (version via /healthz) and the trace is
	// shipped by digest before any job is dispatched, so a dispatch
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

	// Dispatch: fan the not-yet-done jobs out to the pool.
	stats, err := dispatch(root, plan, opts, cfgs, prior, jr)
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

	// Merge: per codec, over the jobs that priced it, in entry order.
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

// planned is the coordinator's view of the sweep: the jobs, the entry
// cuts they price between, and the mapped byte view the cuts index.
type planned struct {
	path string // BETR path the workers open (maybe a temp conversion)
	idx  *trace.BETRIndex
	data []byte
	jobs []job
}

// planTrace maps the trace and cuts it into parts entry shards for
// jobs. A text trace (anything without the BETR magic) is decoded once
// and materialized as a temporary BETR file so workers can byte-range
// it; the returned cleanup removes the temp file and unmaps the view.
// A plan of one part takes its two cuts from the header
// (trace.HeaderBETR) and decodes no entry: every job of it starts at
// entry 0 and decodes, and so validates, every entry it prices.
func planTrace(path string, jobs []job, parts int) (*planned, func(), error) {
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
	var idx *trace.BETRIndex
	if parts == 1 {
		idx, err = trace.HeaderBETR(data, path)
	} else {
		idx, err = trace.IndexBETR(data, path, parts)
	}
	if err != nil {
		closer.Close()
		if tmp != "" {
			os.Remove(tmp)
		}
		return nil, nil, err
	}
	RecordPlan(idx.Total, len(jobs))
	cleanup := func() {
		closer.Close()
		if tmp != "" {
			os.Remove(tmp)
		}
	}
	return &planned{path: path, idx: idx, data: data, jobs: jobs}, cleanup, nil
}

// span returns the entry range [from, to) of job k.
func (p *planned) span(k int) (from, to int64) {
	return p.idx.Cuts[p.jobs[k].lo].Entry, p.idx.Cuts[p.jobs[k].hi].Entry
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

// planDigest content-addresses a sweep plan: the cut geometry, the job
// layout (each job's codec names and entry range) and everything else
// that changes what workers compute. A checkpoint written under a
// different digest is for a different sweep and must not be resumed
// into this one. The cut index binds the trace: a scanned index through
// its cuts' offsets and boundary entries, a header-only one through the
// header fields and the view's byte length its end cut carries.
func planDigest(plan *planned, specs []CodecSpec, verify int, perLine bool, kernel int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(plan.idx)
	enc.Encode(specs)
	enc.Encode([]int{verify, kernel})
	enc.Encode(perLine)
	for k, jb := range plan.jobs {
		names := make([]string, len(jb.codecs))
		for i, c := range jb.codecs {
			names[i] = specs[c].Name
		}
		from, to := plan.span(k)
		enc.Encode(names)
		enc.Encode([]int64{from, to})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// openCheckpoint loads any prior journal state and opens the journal
// for appending, writing the plan header if the file is fresh.
func openCheckpoint(path, digest string, plan *planned, specs []CodecSpec) (*journalState, *journal, error) {
	if path == "" {
		return &journalState{done: map[int]map[string]bus.Stats{}}, nil, nil
	}
	prior, err := loadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if prior.header.Type != "" && prior.header.PlanDigest != digest {
		return nil, nil, fmt.Errorf("dist: checkpoint %s was written for a different plan (digest %.12s, want %.12s); remove it or rerun the original sweep",
			path, prior.header.PlanDigest, digest)
	}
	for k := range prior.done {
		if k < 0 || k >= len(plan.jobs) {
			return nil, nil, fmt.Errorf("dist: checkpoint %s: result for job %d of a %d-job plan", path, k, len(plan.jobs))
		}
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
			Total: plan.idx.Total, Jobs: len(plan.jobs), Codecs: names,
		}); err != nil {
			jr.Close()
			return nil, nil, err
		}
	}
	RecordResume(len(prior.done))
	return prior, jr, nil
}

// buildJob assembles the wire job for job k of the plan.
func buildJob(plan *planned, opts Opts, k int) *Job {
	jb := plan.jobs[k]
	specs := make([]CodecSpec, len(jb.codecs))
	for i, c := range jb.codecs {
		specs[i] = opts.Codecs[c]
	}
	from, to := plan.span(k)
	return &Job{
		TracePath: plan.path,
		Stream:    plan.idx.Name,
		Width:     plan.idx.Width,
		Shard:     k,
		Cut:       plan.idx.Cuts[jb.lo],
		N:         to - from,
		Codecs:    specs,
		Verify:    int(opts.Verify),
		PerLine:   opts.PerLine,
		Kernel:    int(opts.Kernel),
	}
}

// mergeStats rebuilds each job's buses from the returned stats and
// merges every codec over the jobs that priced it. Those jobs come in
// entry order: a codec is either in one whole-trace group or in every
// entry shard, and planJobs lays the shards out ascending. Workers,
// peers and journals are all untrusted here: stats that are impossible
// on their face (bus.FromStats), or a cycle count other than the job's
// entry count, fail the sweep with an error naming the job and the
// codec.
func mergeStats(plan *planned, specs []CodecSpec, stats []map[string]bus.Stats) ([]codec.Result, error) {
	results := make([]codec.Result, len(specs))
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			return nil, err
		}
		var slots []*bus.Bus
		for k, jb := range plan.jobs {
			if !slices.Contains(jb.codecs, i) {
				continue
			}
			s, ok := stats[k][cs.Name]
			if !ok {
				return nil, fmt.Errorf("dist: job %d returned no stats for codec %s", k, cs.Name)
			}
			if from, to := plan.span(k); s.Cycles != to-from {
				return nil, fmt.Errorf("dist: job %d codec %s: stats carry %d cycles for %d entries", k, cs.Name, s.Cycles, to-from)
			}
			b, err := bus.FromStats(c.BusWidth(), s)
			if err != nil {
				return nil, fmt.Errorf("dist: job %d codec %s: %w", k, cs.Name, err)
			}
			slots = append(slots, b)
		}
		merged, err := bus.MergeSlots(slots)
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

// uniqueCodecs refuses a codec list that names a codec twice: job
// results carry statistics keyed by codec name, so a sweep and a job
// price each codec once.
func uniqueCodecs(specs []CodecSpec) error {
	for i, cs := range specs {
		for _, prev := range specs[:i] {
			if prev.Name == cs.Name {
				return fmt.Errorf("dist: codec %s requested twice; results are keyed by codec name", cs.Name)
			}
		}
	}
	return nil
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
