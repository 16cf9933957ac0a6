package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"busenc/internal/obs"
)

// Distributed span harvest. A sweep with Opts.Harvest set mints one
// trace ID, threads it through every job frame, and collects the
// tagged spans back from every process that priced a job: pipe
// workers answer a spans frame right before shutdown, TCP busencd
// peers answer GET /spans?trace=<id> after dispatch (their spans
// outlive the /dist connection). Each remote recorder timestamps spans
// against its own tracer epoch, so the harvest also keeps a per-worker
// clock-offset estimate — the RTT midpoint of the ping/pong round
// trips the dispatcher already performs — and Merged shifts every
// remote epoch onto the coordinator's clock before building the single
// multi-process timeline.

// SpanDump is one process's contribution to a distributed trace: the
// spans it recorded under the trace ID, plus the identity (pid, host)
// and timebase (tracer epoch, unix ns on the worker's clock) needed to
// place them on a merged timeline.
type SpanDump struct {
	Trace string     `json:"trace"`
	PID   int        `json:"pid"`
	Host  string     `json:"host"`
	Epoch int64      `json:"epoch_unix_ns"`
	Spans []obs.Span `json:"spans,omitempty"`
}

// workerKey names one worker process across transports: busencd peers
// and pipe workers alike are "host/pid", matching the hello frame and
// the /spans export, so clock samples recorded on the frame path pair
// with span dumps harvested over HTTP.
func workerKey(host string, pid int) string {
	return host + "/" + strconv.Itoa(pid)
}

// ClockEstimate is the best clock-offset estimate for one worker.
// OffsetNs is what to add to a wall-clock instant on the worker's
// clock to express it on the coordinator's clock; RTTNs is the round
// trip the retained sample rode on (narrower round trips bound the
// offset error more tightly, so the minimum-RTT sample wins).
type ClockEstimate struct {
	OffsetNs int64 `json:"offset_ns"`
	RTTNs    int64 `json:"rtt_ns"`
	Samples  int64 `json:"samples"`
}

// clockOffset turns one ping/pong round trip into an offset sample.
// t0 and t1 are the coordinator's clock at ping send and pong receive
// (unix ns); remoteNow is the worker's clock when it framed the pong.
// The worker is assumed to have answered at the midpoint of the round
// trip, so
//
//	offset = (t0+t1)/2 − remoteNow
//
// with the error bounded by half the RTT (plus clock drift between
// samples, negligible at sweep timescales).
func clockOffset(t0, t1, remoteNow int64) (offsetNs, rttNs int64) {
	rtt := t1 - t0
	if rtt < 0 {
		rtt = 0 // a clock step mid-flight; keep the sample sane
	}
	return t0 + rtt/2 - remoteNow, rtt
}

// SpanHarvest accumulates one sweep's distributed trace: the minted
// trace ID, the per-worker clock estimates, and the span dumps
// collected at sweep end. Methods are safe for concurrent use by the
// dispatcher's slot goroutines.
type SpanHarvest struct {
	mu     sync.Mutex
	trace  string
	clocks map[string]ClockEstimate
	dumps  map[string]*SpanDump
}

// start installs the sweep's trace ID (the coordinator calls this once
// before dispatch).
func (h *SpanHarvest) start(trace string) {
	h.mu.Lock()
	h.trace = trace
	h.mu.Unlock()
}

// TraceID returns the sweep-wide trace ID, empty before the sweep ran.
func (h *SpanHarvest) TraceID() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trace
}

// recordClock folds one offset sample in, keeping the estimate from
// the narrowest round trip seen so far.
func (h *SpanHarvest) recordClock(key string, offsetNs, rttNs int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.clocks == nil {
		h.clocks = make(map[string]ClockEstimate)
	}
	e, ok := h.clocks[key]
	if !ok || rttNs < e.RTTNs {
		e.OffsetNs = offsetNs
		e.RTTNs = rttNs
	}
	e.Samples++
	h.clocks[key] = e
}

// Clocks returns a copy of the per-worker clock estimates.
func (h *SpanHarvest) Clocks() map[string]ClockEstimate {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]ClockEstimate, len(h.clocks))
	for k, v := range h.clocks {
		out[k] = v
	}
	return out
}

// addDump folds one process's span dump in. Dumps for the same worker
// merge (a worker that served several slot generations reports once
// per connection) with spans deduplicated by ID.
func (h *SpanHarvest) addDump(d *SpanDump) {
	if d == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dumps == nil {
		h.dumps = make(map[string]*SpanDump)
	}
	key := workerKey(d.Host, d.PID)
	have, ok := h.dumps[key]
	if !ok {
		cp := *d
		cp.Spans = append([]obs.Span(nil), d.Spans...)
		h.dumps[key] = &cp
		return
	}
	seen := make(map[uint64]bool, len(have.Spans))
	for _, s := range have.Spans {
		seen[s.ID] = true
	}
	for _, s := range d.Spans {
		if !seen[s.ID] {
			have.Spans = append(have.Spans, s)
		}
	}
}

// Merged assembles the multi-process timeline: the coordinator's own
// spans first, then every harvested worker in stable key order, each
// remote epoch shifted onto the coordinator's clock by its clock
// estimate. A dump whose host/pid matches this process (an in-process
// worker sharing the coordinator's recorder) is skipped — its spans
// are already in the local snapshot. The result is deterministic for a
// given harvest state, so merging twice writes byte-identical files.
func (h *SpanHarvest) Merged(local []obs.Span, localEpoch time.Time) []obs.ProcessTrace {
	h.mu.Lock()
	defer h.mu.Unlock()
	host, _ := os.Hostname()
	self := workerKey(host, os.Getpid())
	procs := []obs.ProcessTrace{{
		Label:       "coordinator " + self,
		Host:        host,
		PID:         os.Getpid(),
		EpochUnixNs: localEpoch.UnixNano(),
		Spans:       local,
	}}
	keys := make([]string, 0, len(h.dumps))
	for k := range h.dumps {
		if k != self {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := h.dumps[k]
		spans := append([]obs.Span(nil), d.Spans...)
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].ID < spans[j].ID
		})
		procs = append(procs, obs.ProcessTrace{
			Label:       "worker " + k,
			Host:        d.Host,
			PID:         d.PID,
			EpochUnixNs: d.Epoch + h.clocks[k].OffsetNs,
			Spans:       spans,
		})
	}
	return procs
}

// harvestPeerSpans pulls the sweep's tagged spans off every TCP peer
// over plain HTTP after dispatch has closed the /dist connections —
// the peer's flight recorder outlives them. Best-effort per peer: a
// peer that died after returning its results costs its spans, not the
// sweep.
func harvestPeerSpans(peers []string, h *SpanHarvest) error {
	trace := h.TraceID()
	var firstErr error
	for _, addr := range peers {
		d, err := fetchPeerSpans(addr, trace)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		h.addDump(d)
		recordSpanHarvest(len(d.Spans))
	}
	return firstErr
}

// fetchPeerSpans is one GET /spans?trace=<id> round trip.
func fetchPeerSpans(addr, trace string) (*SpanDump, error) {
	resp, err := healthClient.Get("http://" + addr + "/spans?trace=" + trace)
	if err != nil {
		return nil, fmt.Errorf("dist: peer %s: span harvest: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("dist: peer %s: /spans returned %s", addr, resp.Status)
	}
	var body struct {
		PID   int        `json:"pid"`
		Host  string     `json:"host"`
		Epoch int64      `json:"epoch_unix_ns"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("dist: peer %s: bad /spans body: %w", addr, err)
	}
	return &SpanDump{Trace: trace, PID: body.PID, Host: body.Host, Epoch: body.Epoch, Spans: body.Spans}, nil
}

// spanDump snapshots this process's contribution to a trace: every
// recorded span tagged with the trace ID, stamped with the tracer
// epoch and process identity. Used by the worker side of the spans
// frame and by the /spans HTTP export.
func spanDump(trace string) *SpanDump {
	host, _ := os.Hostname()
	d := &SpanDump{Trace: trace, PID: os.Getpid(), Host: host}
	tr := obs.CurrentTracer()
	if tr == nil {
		return d
	}
	d.Epoch = tr.Epoch().UnixNano()
	for _, s := range tr.Spans() {
		if s.Trace == trace {
			d.Spans = append(d.Spans, s)
		}
	}
	return d
}
