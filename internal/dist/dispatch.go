package dist

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"busenc/internal/bus"
	"busenc/internal/obs"
)

// Lock-step dispatch. Every slot — a local worker process or a TCP
// busencd peer — holds at most one job: it takes a job off the shared
// queue only when its worker holds none, sends it, and waits for that
// job's result while the heartbeat ticker runs. So a job goes only to
// an idle slot, and a slot pricing a long job leaves the rest of the
// queue to the others. Jobs live on one shared work queue, in plan
// order; when a worker dies (EOF, protocol error, or heartbeat timeout)
// the job it held goes back on the queue and any slot — typically a
// different one — re-prices it, bounded by the per-job retry budget.
// Determinism is untouched: results land in fixed per-job slots and
// merge in entry order, so the schedule cannot change the totals.

const (
	// DefaultHeartbeatInterval is how often a busy slot pings its
	// worker when Opts.HeartbeatInterval is unset.
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// DefaultHeartbeatTimeout is how long a slot tolerates total
	// silence (no result, no pong) before declaring the worker dead and
	// re-dispatching its job.
	DefaultHeartbeatTimeout = 10 * time.Second
)

// Delivery kinds: every slot-to-coordinator event is one of these.
const (
	dResult   = iota // a job priced (stats or a job-level error)
	dRequeue         // a job orphaned by a worker death or spawn failure
	dSlotDead        // a slot retired after exhausting its spawn budget
)

// delivery is one event funneled back to the coordinator goroutine,
// which owns all job bookkeeping (attempts, journal, completion).
type delivery struct {
	kind      int
	job       int
	slot      int
	stats     map[string]bus.Stats
	err       error
	spawnFail bool // dRequeue: the spawn failed, no worker ever held the job
}

// slotConfig describes one pool position. Local workers carry just the
// spawner; peer slots add the digest ref that replaces Job.TracePath
// on the wire (the peer resolves it in its content-addressed store).
type slotConfig struct {
	spawn Spawner
	ref   string
}

// dispatcher owns the shared state of one dispatch run.
type dispatcher struct {
	root obs.SpanHandle
	plan *planned
	opts Opts

	hbEvery    time.Duration
	hbTimeout  time.Duration
	retryLimit int
	net        *NetStats
	harvest    *SpanHarvest

	// work is the job queue. Buffered to the job count and never
	// closed: slots learn the sweep is over from stop, not from the
	// queue draining (a requeue can refill it at any time).
	work chan int
	// deliveries is buffered generously so slots rarely block handing
	// events back; deliver falls back to a stop-guarded send, so after
	// halt nothing can deadlock against the coordinator.
	deliveries chan delivery
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

func (d *dispatcher) halt() { d.stopOnce.Do(func() { close(d.stop) }) }

// deliver hands an event to the coordinator without ever deadlocking a
// slot: before halt the coordinator is draining, after halt the stop
// case lets the slot move on (post-halt events are opportunistic).
func (d *dispatcher) deliver(dl delivery) {
	select {
	case d.deliveries <- dl:
	default:
		select {
		case d.deliveries <- dl:
		case <-d.stop:
		}
	}
}

// recvFrame is one transport read, shipped from a slot's reader
// goroutine into its select loop.
type recvFrame struct {
	m   msg
	err error
}

// slot is one pool position, surviving the workers that fill it. All
// fields are owned by the slot's goroutine; communication happens over
// the dispatcher's channels.
type slot struct {
	d          *dispatcher
	id         int
	cfg        slotConfig
	gen        int
	spawnFails int
	t          Transport
	frames     chan recvFrame
	readerDead bool           // the reader goroutine's terminal error frame was consumed
	job        int            // the job the worker holds, -1 when it holds none
	jobSpan    obs.SpanHandle // that job's dist.shard span
	lastRecv   time.Time
	worker     string // "host/pid" of the current worker, from its hello
	pingSent   int64  // unix ns of the unanswered heartbeat ping, 0 when none
}

// recordClock funnels one clock-offset sample everywhere it is wanted:
// the caller's NetStats, the sweep's span harvest, and the gated
// dist.net.clock_* metrics.
func (sl *slot) recordClock(offsetNs, rttNs int64) {
	if sl.worker == "" {
		return
	}
	if sl.d.net != nil {
		sl.d.net.RecordClockSample(sl.worker, offsetNs, rttNs)
	}
	if sl.d.harvest != nil {
		sl.d.harvest.recordClock(sl.worker, offsetNs, rttNs)
	}
	recordClockSample(offsetNs, rttNs)
}

// run drives the slot until the sweep halts or its spawn budget is
// exhausted. A slot never spawns a worker before it has a job for it,
// so an idle pool position costs nothing.
func (sl *slot) run() {
	defer sl.d.wg.Done()
	for {
		var first int
		select {
		case <-sl.d.stop:
			return
		case first = <-sl.d.work:
		}
		if !sl.serveFrom(first) {
			return
		}
	}
}

// serveFrom prices jobs on one worker life after another, beginning
// with the given job. After a worker death the slot respawns eagerly
// (gen+1) so the pool recovers its parallelism before more work
// arrives. Returns false when the slot must retire: the sweep halted,
// or consecutive spawn failures exhausted the budget.
func (sl *slot) serveFrom(first int) bool {
	pending := first
	for {
		select {
		case <-sl.d.stop:
			if pending >= 0 {
				sl.d.deliver(delivery{kind: dRequeue, job: pending, slot: sl.id, err: ErrStopped})
			}
			return false
		default:
		}
		if err := sl.ensure(); err != nil {
			RecordWorkerDeath()
			sl.gen++
			sl.spawnFails++
			if pending >= 0 {
				sl.d.deliver(delivery{kind: dRequeue, job: pending, slot: sl.id, err: err, spawnFail: true})
			}
			if sl.spawnFails > sl.d.retryLimit {
				sl.d.deliver(delivery{kind: dSlotDead, slot: sl.id, err: err})
				return false
			}
			return true // back to run: wait for work before retrying the spawn
		}
		sl.spawnFails = 0
		died := sl.serve(pending)
		pending = -1
		if !died {
			return false
		}
	}
}

// ensure spawns and handshakes a worker if the slot has none.
func (sl *slot) ensure() error {
	if sl.t != nil {
		return nil
	}
	t, err := sl.cfg.spawn.Spawn(sl.id, sl.gen)
	if err != nil {
		return fmt.Errorf("dist: spawn worker %d (gen %d): %w", sl.id, sl.gen, err)
	}
	RecordWorkerSpawn()
	m, err := t.Recv()
	if err == nil && (m.Type != msgHello || m.Version != ProtoVersion) {
		err = fmt.Errorf("dist: worker %d: bad hello (type %q version %d, want %d)", sl.id, m.Type, m.Version, ProtoVersion)
	}
	var offset, rtt int64
	var sampled bool
	if err == nil {
		sl.worker = workerKey(m.Host, m.PID)
		offset, rtt, sampled, err = pingPong(t)
	}
	if err != nil {
		t.Close()
		return fmt.Errorf("dist: worker %d handshake: %w", sl.id, err)
	}
	if sampled {
		sl.recordClock(offset, rtt)
	}
	sl.t = t
	return nil
}

// pingPong is one synchronous heartbeat round trip, used only during
// the handshake (steady-state heartbeats run in serve while a job
// prices). The pong's wall clock yields the slot's first clock-offset
// sample; sampled is false against a worker whose pong carried no
// clock.
func pingPong(t Transport) (offsetNs, rttNs int64, sampled bool, err error) {
	t0 := time.Now().UnixNano()
	if err := t.Send(msg{Type: msgPing}); err != nil {
		return 0, 0, false, err
	}
	m, err := t.Recv()
	t1 := time.Now().UnixNano()
	if err != nil {
		return 0, 0, false, err
	}
	if m.Type != msgPong {
		return 0, 0, false, fmt.Errorf("dist: %q in reply to ping", m.Type)
	}
	RecordHeartbeat()
	if m.Now == 0 {
		return 0, 0, false, nil
	}
	offsetNs, rttNs = clockOffset(t0, t1, m.Now)
	return offsetNs, rttNs, true, nil
}

// serve drives one worker life in lock-step: take a job off the queue
// only when the worker holds none, send it, and wait for its result
// while pinging on the heartbeat ticker, declaring death on timeout.
// pending >= 0 is a job to dispatch immediately. Returns true when the
// worker died (the caller respawns) and false when the sweep is
// halting.
func (sl *slot) serve(pending int) (died bool) {
	sl.job = -1
	// One job's result, the pongs of its heartbeats and the reader's
	// terminal error fit without blocking the reader.
	sl.frames = make(chan recvFrame, 8)
	sl.readerDead = false
	sl.pingSent = 0
	go func(t Transport, frames chan<- recvFrame) {
		for {
			m, err := t.Recv()
			frames <- recvFrame{m, err}
			if err != nil {
				return
			}
		}
	}(sl.t, sl.frames)
	sl.lastRecv = time.Now()
	if pending >= 0 {
		if err := sl.dispatch(pending); err != nil {
			sl.die(err)
			return true
		}
	}
	ticker := time.NewTicker(sl.d.hbEvery)
	defer ticker.Stop()
	for {
		if sl.job < 0 {
			// Idle: block for work. No pings while idle — dispatch
			// resets the liveness epoch when work resumes.
			select {
			case <-sl.d.stop:
				sl.shutdown()
				return false
			case k := <-sl.d.work:
				if err := sl.dispatch(k); err != nil {
					sl.die(err)
					return true
				}
			}
			continue
		}
		select {
		case <-sl.d.stop:
			sl.shutdown()
			return false
		case f := <-sl.frames:
			if f.err != nil {
				sl.readerDead = true
				err := f.err
				if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
					err = fmt.Errorf("dist: worker %d exited holding job %d", sl.id, sl.job)
				}
				sl.die(err)
				return true
			}
			if dead := sl.onFrame(f.m); dead != nil {
				sl.die(dead)
				return true
			}
		case <-ticker.C:
			if time.Since(sl.lastRecv) > sl.d.hbTimeout {
				recordHeartbeatTimeout()
				if sl.d.net != nil {
					sl.d.net.HeartbeatTimeouts.Add(1)
				}
				sl.die(fmt.Errorf("dist: worker %d: heartbeat timeout (silent for %v holding job %d)",
					sl.id, sl.d.hbTimeout, sl.job))
				return true
			}
			// Remember the send instant of at most one outstanding ping
			// so its pong yields a clock-offset sample; if an earlier
			// ping is still unanswered, keep its timestamp (pairing the
			// pong with the later send would understate the RTT).
			if sl.pingSent == 0 {
				sl.pingSent = time.Now().UnixNano()
			}
			if err := sl.t.Send(msg{Type: msgPing}); err != nil {
				sl.die(err)
				return true
			}
		}
	}
}

// onFrame handles one well-formed frame; a non-nil return is a
// protocol violation that kills the worker.
func (sl *slot) onFrame(m msg) error {
	switch m.Type {
	case msgPong:
		RecordHeartbeat()
		sl.lastRecv = time.Now()
		if m.Now != 0 && sl.pingSent != 0 {
			off, rtt := clockOffset(sl.pingSent, time.Now().UnixNano(), m.Now)
			sl.recordClock(off, rtt)
			sl.pingSent = 0
		}
		return nil
	case msgResult:
		if m.Result == nil {
			return fmt.Errorf("dist: worker %d: result frame without a result", sl.id)
		}
		sl.lastRecv = time.Now()
		sl.finish(*m.Result)
		return nil
	default:
		return fmt.Errorf("dist: worker %d: unexpected %q frame", sl.id, m.Type)
	}
}

// finish matches one result to the job the worker holds and delivers
// it. A result for any other job (possible only after a desync) is
// dropped — the coordinator's duplicate guard would discard it anyway.
func (sl *slot) finish(res ShardResult) {
	if sl.job < 0 || res.Shard != sl.job {
		return
	}
	sl.job = -1
	var jobErr error
	if res.Err != "" {
		jobErr = errors.New(res.Err)
	}
	sl.jobSpan.EndErr(jobErr)
	sl.d.deliver(delivery{kind: dResult, job: res.Shard, slot: sl.id, stats: res.Stats, err: jobErr})
}

// dispatch sends job k to the live worker. The worker holds the job
// from before the send, so a failed write still requeues it via die.
// Peer slots rewrite TracePath to the shipped digest ref.
func (sl *slot) dispatch(k int) error {
	sp := sl.d.root.Child("dist.shard", obs.StageEncode).WithShard(k)
	j := buildJob(sl.d.plan, sl.d.opts, k)
	if sl.cfg.ref != "" {
		j.TracePath = sl.cfg.ref
	}
	if h := sl.d.harvest; h != nil {
		j.Trace = h.TraceID()
		j.Span = sp.Context().Parent // 0 when tracing is off; workers then root their spans
	}
	sl.job, sl.jobSpan = k, sp
	sl.lastRecv = time.Now()
	return sl.t.Send(msg{Type: msgJob, Job: j})
}

// die declares the current worker dead: the job it held goes back on
// the queue for any slot to re-price, the transport is reaped, and the
// generation advances for the respawn.
func (sl *slot) die(err error) {
	RecordWorkerDeath()
	if sl.job >= 0 {
		sl.jobSpan.EndErr(err)
		sl.d.deliver(delivery{kind: dRequeue, job: sl.job, slot: sl.id, err: err})
		sl.job = -1
	}
	sl.reap()
	sl.gen++
}

// shutdown is the polite halt path: forward any results the worker
// already framed (a job priced concurrently with the stop is still
// priced), harvest the worker's spans when the sweep is collecting
// them, send shutdown, reap.
func (sl *slot) shutdown() {
drain:
	for {
		select {
		case f := <-sl.frames:
			if f.err != nil {
				sl.readerDead = true
				break drain
			}
			if f.m.Type == msgResult && f.m.Result != nil {
				sl.finish(*f.m.Result)
			}
		default:
			break drain
		}
	}
	if sl.job >= 0 {
		sl.jobSpan.End()
		sl.job = -1
	}
	if h := sl.d.harvest; h != nil && !sl.readerDead {
		// The spans must cross the still-open connection before the
		// shutdown frame: pipe workers lose their recorder with the
		// process, and a TCP peer's connection-bracket span only closes
		// with the connection — the post-dispatch HTTP harvest could
		// race past it. Peers whose connection died are still picked up
		// by that HTTP pass (the dumps dedup by span ID).
		sl.harvestSpans(h)
	}
	sl.t.Send(msg{Type: msgShutdown})
	sl.reap()
}

// harvestSpans asks the live worker for its tagged spans and waits for
// the dump, forwarding any results still racing in. Bounded by the
// heartbeat timeout: a worker that dies mid-harvest costs its spans,
// never the sweep.
func (sl *slot) harvestSpans(h *SpanHarvest) {
	if sl.t.Send(msg{Type: msgSpans, Trace: h.TraceID()}) != nil {
		return
	}
	deadline := time.NewTimer(sl.d.hbTimeout)
	defer deadline.Stop()
	for {
		select {
		case f := <-sl.frames:
			if f.err != nil {
				sl.readerDead = true
				return
			}
			switch f.m.Type {
			case msgSpans:
				if f.m.Spans != nil {
					h.addDump(f.m.Spans)
					recordSpanHarvest(len(f.m.Spans.Spans))
				}
				return
			case msgResult:
				if f.m.Result != nil {
					sl.finish(*f.m.Result)
				}
			}
		case <-deadline.C:
			return
		}
	}
}

// reap closes the transport and drains the reader goroutine to its
// terminal error frame so it can never leak blocked on a full channel.
// When the terminal frame was already consumed (the death was observed
// through it) the reader has exited and there is nothing to drain.
func (sl *slot) reap() {
	sl.t.Close()
	for !sl.readerDead {
		f := <-sl.frames
		if f.err != nil {
			sl.readerDead = true
		}
	}
	sl.t = nil
	sl.frames = nil
}

// dispatch runs the slot pool over every job the journal does not
// already hold and returns the per-job stats slots (journal-recovered
// slots included).
func dispatch(root obs.SpanHandle, plan *planned, opts Opts, cfgs []slotConfig, prior *journalState, jr *journal) ([]map[string]bus.Stats, error) {
	dsp := root.Child("dist.dispatch", obs.StageEval)
	jobs := len(plan.jobs)
	stats := make([]map[string]bus.Stats, jobs)
	jobErrs := make([]error, jobs)
	var pending []int
	for k := 0; k < jobs; k++ {
		if st, ok := prior.done[k]; ok {
			stats[k] = st
			continue
		}
		pending = append(pending, k)
	}
	retryLimit := opts.RetryLimit
	if retryLimit <= 0 {
		retryLimit = 1
	}
	hbEvery := opts.HeartbeatInterval
	if hbEvery <= 0 {
		hbEvery = DefaultHeartbeatInterval
	}
	hbTimeout := opts.HeartbeatTimeout
	if hbTimeout <= 0 {
		hbTimeout = DefaultHeartbeatTimeout
	}

	d := &dispatcher{
		root: root, plan: plan, opts: opts,
		hbEvery: hbEvery, hbTimeout: hbTimeout,
		retryLimit: retryLimit, net: opts.Net, harvest: opts.Harvest,
		work:       make(chan int, jobs),
		deliveries: make(chan delivery, 2*jobs+len(cfgs)*(retryLimit+4)+16),
		stop:       make(chan struct{}),
	}
	for _, k := range pending {
		d.work <- k
	}
	live := len(cfgs)
	for id, cfg := range cfgs {
		d.wg.Add(1)
		sl := &slot{d: d, id: id, cfg: cfg}
		go sl.run()
	}
	slotsDone := make(chan struct{})
	go func() { d.wg.Wait(); close(slotsDone) }()

	// attempts counts dispatch tries per job (worker deaths only;
	// spawn failures never held the job). doneJob guards against a job
	// priced twice — possible when a timed-out worker was merely slow
	// and both its late result and the re-dispatch land.
	attempts := make(map[int]int, len(pending))
	doneJob := make([]bool, jobs)
	for k := range prior.done {
		doneJob[k] = true
	}
	completed := 0
	stopped := false
	var fatal error
	var lastDead error
	handle := func(dl delivery) {
		switch dl.kind {
		case dResult:
			if doneJob[dl.job] {
				return
			}
			doneJob[dl.job] = true
			jobErrs[dl.job] = dl.err
			stats[dl.job] = dl.stats
			completed++
			RecordShardDone()
			if jr != nil && dl.err == nil {
				if err := jr.append(journalRec{Type: recDone, Job: dl.job, Stats: dl.stats, Digest: statsDigest(dl.stats)}); err != nil {
					if fatal == nil {
						fatal = err
					}
					d.halt()
					return
				}
			}
			if opts.StopAfter > 0 && completed >= opts.StopAfter && completed < len(pending) {
				stopped = true
				d.halt()
			}
		case dRequeue:
			if doneJob[dl.job] || errors.Is(dl.err, ErrStopped) {
				return
			}
			if !dl.spawnFail {
				attempts[dl.job]++
				if attempts[dl.job] > retryLimit {
					if fatal == nil {
						fatal = fmt.Errorf("dist: job %d: worker %d died %d times (last: %v)", dl.job, dl.slot, attempts[dl.job], dl.err)
					}
					d.halt()
					return
				}
				RecordShardRetry()
				recordRedispatch()
				if d.net != nil {
					d.net.Redispatches.Add(1)
				}
			}
			d.work <- dl.job
		case dSlotDead:
			live--
			lastDead = dl.err
			if live == 0 && completed < len(pending) && fatal == nil {
				fatal = fmt.Errorf("dist: every worker slot died before the sweep finished (last: %v)", lastDead)
				d.halt()
			}
		}
	}
collect:
	for completed < len(pending) && fatal == nil && !stopped {
		select {
		case dl := <-d.deliveries:
			handle(dl)
		case <-slotsDone:
			break collect
		}
	}
	d.halt()
	d.wg.Wait()
	// Slots have exited; pick up anything still buffered. On a
	// deliberate stop only results matter (a slot racing to die must
	// not fail a stopped sweep); otherwise handle everything so fatal
	// states surface.
	for {
		select {
		case dl := <-d.deliveries:
			if !stopped || dl.kind == dResult {
				handle(dl)
			}
		default:
			if fatal != nil {
				dsp.EndErr(fatal)
				return nil, fatal
			}
			if stopped || (opts.StopAfter > 0 && completed < len(pending)) {
				dsp.EndErr(ErrStopped)
				return nil, fmt.Errorf("%w (%d/%d jobs journaled)", ErrStopped, completed+len(prior.done), jobs)
			}
			// Job-level pricing errors: the lowest job wins, so the
			// reported error does not depend on the schedule.
			for k := 0; k < jobs; k++ {
				if jobErrs[k] != nil {
					dsp.EndErr(jobErrs[k])
					return nil, jobErrs[k]
				}
			}
			for k := 0; k < jobs; k++ {
				if stats[k] == nil {
					err := fmt.Errorf("dist: job %d never completed", k)
					dsp.EndErr(err)
					return nil, err
				}
			}
			dsp.End()
			return stats, nil
		}
	}
}
