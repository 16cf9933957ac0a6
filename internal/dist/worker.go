package dist

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// WorkerOpts tunes ServeWorker.
type WorkerOpts struct {
	// FailAfter, when positive, makes the worker exit without replying
	// once it has priced that many jobs and received one more — the
	// fault injection knob behind the kill-a-worker-mid-sweep tests and
	// the CLI's -failafter flag. The coordinator sees a dead pipe with
	// a job in flight, exactly like a real crash.
	FailAfter int
	// StallAfter, when positive, makes the worker go silent once it
	// has priced that many jobs: it keeps reading frames (so the
	// coordinator's job and ping sends never block) but answers nothing,
	// not even pings — the fault injection knob behind the
	// heartbeat-timeout tests. A crash looks like EOF; a stall looks
	// like a wedged peer.
	StallAfter int
	// Resolve, when non-nil, maps Job.TracePath references to local
	// filesystem paths before mapping. The /dist endpoint uses it to
	// confine workers to the peer's content-addressed trace store
	// ("sha256:..." refs only); nil means paths are used as-is.
	Resolve func(ref string) (string, error)
}

// errFailInjected is returned by ServeWorker when FailAfter trips; the
// process wrapper turns it into a silent nonzero exit.
var errFailInjected = fmt.Errorf("dist: injected worker failure")

// ServeWorker runs the worker side of the job protocol over the given
// byte streams (stdin/stdout for a real worker process, a hijacked TCP
// connection on a busencd peer, an in-memory pipe in tests): announce
// with a hello, then price every job the coordinator sends until
// shutdown or EOF. Pings arrive while a job is pricing, so a reader
// goroutine keeps draining frames (answering pings immediately) while
// the pricer works through the jobs in arrival order. The coordinator
// sends a slot's next job only after the previous one's result; the
// worker does not depend on that and prices whatever it is sent.
// Trace views are mmap'd once per path and shared read-only through the
// page cache — a worker never copies trace bytes.
func ServeWorker(r io.Reader, w io.Writer, opts WorkerOpts) error {
	c := newConn(r, w)
	var wmu sync.Mutex // hello/pong/result writes interleave across goroutines
	send := func(m msg) error {
		wmu.Lock()
		defer wmu.Unlock()
		return c.send(m)
	}
	hostname, _ := os.Hostname()
	if err := send(msg{Type: msgHello, Version: ProtoVersion, PID: os.Getpid(), Host: hostname}); err != nil {
		return err
	}
	views := map[string]mappedView{}
	defer func() {
		for _, v := range views {
			v.closer.Close()
		}
	}()

	var stalled atomic.Bool
	var ct connTrace // the connection-bracket span for harvested sweeps
	defer ct.finish()
	jobs := make(chan *Job, 64)
	errc := make(chan error, 1)
	done := make(chan struct{})
	defer close(done) // unblocks the reader if the pricer exits first
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	go func() {
		defer close(jobs)
		for {
			m, err := c.recv()
			if err != nil {
				if err != io.EOF {
					fail(err)
				}
				return
			}
			switch m.Type {
			case msgPing:
				if stalled.Load() {
					continue
				}
				if err := send(msg{Type: msgPong, Now: time.Now().UnixNano()}); err != nil {
					fail(err)
					return
				}
			case msgSpans:
				if stalled.Load() {
					continue
				}
				// The coordinator only asks once its jobs are all
				// answered; close the connection-bracket span so the
				// dump includes it.
				ct.finish()
				if err := send(msg{Type: msgSpans, Spans: spanDump(m.Trace)}); err != nil {
					fail(err)
					return
				}
			case msgShutdown:
				return
			case msgJob:
				if m.Job == nil {
					fail(fmt.Errorf("dist: job frame without a job"))
					return
				}
				select {
				case jobs <- m.Job:
				case <-done:
					return
				}
			default:
				fail(fmt.Errorf("dist: unexpected %q frame", m.Type))
				return
			}
		}
	}()

	priced := 0
	for j := range jobs {
		if opts.FailAfter > 0 && priced >= opts.FailAfter {
			return errFailInjected
		}
		if opts.StallAfter > 0 && priced >= opts.StallAfter {
			stalled.Store(true)
			continue // swallow the job; keep draining frames silently
		}
		ct.begin(j.Trace)
		sp := obs.StartSpanCtx("dist.shard_price", obs.StageEncode,
			obs.SpanContext{Trace: j.Trace, Parent: j.Span}).WithShard(j.Shard).WithStream(j.Stream)
		res := priceJob(j, views, opts.Resolve, sp)
		if res.Err != "" {
			sp.EndErr(fmt.Errorf("%s", res.Err))
		} else {
			sp.End()
		}
		priced++
		if err := send(msg{Type: msgResult, Result: res}); err != nil {
			return err
		}
	}
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// connTrace brackets one worker connection's traced lifetime with a
// dist.worker_conn span: begun on the first job that carries trace
// context, ended right before the spans dump (or on connection close).
// The span exists so every worker's pid lane in the merged timeline is
// covered end to end, not just during job pricing — tracecheck's
// per-lane -mincover leans on it. begin also turns tracing on in
// worker processes that were started without it: the coordinator's
// choice to harvest is the worker's signal to record.
type connTrace struct {
	mu   sync.Mutex
	sp   obs.SpanHandle
	open bool
}

func (ct *connTrace) begin(trace string) {
	if trace == "" {
		return
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.open {
		return
	}
	if !obs.TracingEnabled() {
		obs.EnableTracing(obs.TracerConfig{})
	}
	ct.sp = obs.StartSpanCtx("dist.worker_conn", obs.StageEval, obs.SpanContext{Trace: trace})
	ct.open = true
}

func (ct *connTrace) finish() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.open {
		ct.sp.End()
		ct.open = false
	}
}

type mappedView struct {
	data   []byte
	closer io.Closer
}

// priceJob prices one job. Any error — resolving or opening the trace,
// decoding the range, seeding, a verification mismatch — is reported in
// the result rather than killing the worker, so a bad job fails the
// sweep through the ordered merge (lowest job wins) instead of looking
// like a worker crash. sp is the job-level span (inert when the sweep
// is not harvesting spans).
func priceJob(j *Job, views map[string]mappedView, resolve func(string) (string, error), sp obs.SpanHandle) *ShardResult {
	res := &ShardResult{Shard: j.Shard}
	stats, err := priceRange(j, views, resolve, sp)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Stats = stats
	return res
}

// priceRange is the one pricing loop of a worker: refuse a job naming a
// codec twice, build the Pricers for the job's codecs
// (codec.NewPricers), seed them at the job's cut
// (a no-op at entry 0; past it every codec is a Seeder and joins from
// the cut's two previous entries), then stream the range's chunks
// through every Pricer in one decode pass. Each Pricer records a
// dist.codec_price child span of sp, labeled with its codec names
// joined by "+"; the spans overlap, since the Pricers share the pass.
func priceRange(j *Job, views map[string]mappedView, resolve func(string) (string, error), sp obs.SpanHandle) (map[string]bus.Stats, error) {
	if err := uniqueCodecs(j.Codecs); err != nil {
		return nil, err
	}
	data, err := mapView(j.TracePath, views, resolve)
	if err != nil {
		return nil, err
	}
	codecs := make([]codec.Codec, len(j.Codecs))
	for i, cs := range j.Codecs {
		if codecs[i], err = cs.New(); err != nil {
			return nil, err
		}
	}
	ps, err := codec.NewPricers(codecs, codec.RunOpts{
		Verify:  codec.VerifyMode(j.Verify),
		PerLine: j.PerLine,
		Kernel:  codec.Kernel(j.Kernel),
	})
	if err != nil {
		return nil, err
	}
	bd := codec.Boundary{First: j.Cut.Entry == 0, Base: int(j.Cut.Entry)}
	if !bd.First {
		bd.Prev = trace.Entry{Addr: j.Cut.PrevAddr, Kind: j.Cut.PrevKind}
		if j.Cut.Entry >= 2 {
			bd.SeedSym = codec.SymbolOf(trace.Entry{Addr: j.Cut.Prev2Addr, Kind: j.Cut.Prev2Kind})
			bd.HaveSeedSym = true
		}
	}
	for _, p := range ps {
		if err := p.Seed(bd); err != nil {
			return nil, err
		}
	}
	r, err := trace.NewMemRangeReader(data, j.Stream, j.Width, j.Cut, j.N, j.TracePath, nil)
	if err != nil {
		return nil, err
	}
	spans := make([]obs.SpanHandle, len(ps))
	errs := make([]error, len(ps))
	for k, p := range ps {
		spans[k] = sp.Child("dist.codec_price", obs.StageEncode).WithCodec(p.Name())
	}
	var readErr error
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		for k, p := range ps {
			if errs[k] == nil {
				errs[k] = p.Consume(ch.Addrs, ch.Kinds)
			}
		}
		ch.Release()
	}
	for k := range spans {
		if errs[k] == nil {
			errs[k] = readErr
		}
		spans[k].EndErr(errs[k])
	}
	if readErr != nil {
		return nil, readErr
	}
	buses, err := codec.CollectBuses(ps)
	if err != nil {
		return nil, err
	}
	stats := make(map[string]bus.Stats, len(buses))
	for i, b := range buses {
		stats[j.Codecs[i].Name] = b.Stats()
	}
	return stats, nil
}

// mapView returns the byte view of a job's trace, mapping it on first
// use: ref goes through resolve when one is set (a peer's
// content-addressed store), and the view stays open for later jobs.
func mapView(ref string, views map[string]mappedView, resolve func(string) (string, error)) ([]byte, error) {
	if v, ok := views[ref]; ok {
		return v.data, nil
	}
	path := ref
	if resolve != nil {
		p, err := resolve(ref)
		if err != nil {
			return nil, err
		}
		path = p
	}
	data, closer, err := trace.MapBytes(path)
	if err != nil {
		return nil, err
	}
	views[ref] = mappedView{data: data, closer: closer}
	return data, nil
}
