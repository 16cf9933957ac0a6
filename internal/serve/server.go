// Package serve is the multi-tenant evaluation service layer: a
// persistent job queue with bounded concurrent evaluations and
// per-tenant fairness, streamed trace upload into a content-addressed
// store, per-tenant quotas (request rate, queued jobs, stored bytes), a
// bytes-bounded LRU result cache, and graceful drain semantics. It is
// the machinery behind cmd/busencd's /traces, /eval and /jobs
// endpoints; cmd/busencload drives it under load.
//
// Backpressure contract: a full queue or a draining server answers 503
// with a Retry-After header; a tenant over its request rate or job
// quota answers 429; an upload over the size cap or byte quota answers
// 413. All error bodies are the {"error","status"} JSON envelope.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the evaluation worker-pool size (GOMAXPROCS if 0).
	Workers int
	// QueueCap bounds waiting jobs across all tenants (DefaultQueueCap
	// if 0).
	QueueCap int
	// Quotas are the per-tenant budgets (zero = unlimited).
	Quotas Quotas
	// CacheBytes bounds the result cache (DefaultCacheBytes if 0; < 0
	// disables caching).
	CacheBytes int64
	// StoreDir is the trace-store directory (required).
	StoreDir string
	// MaxUploadBytes caps one POST /traces body (DefaultMaxUploadBytes
	// if 0).
	MaxUploadBytes int64
	// SyncMaxEntries is the legacy synchronous /eval threshold: a trace
	// with a known entry count at or below it is evaluated inline
	// (DefaultSyncMaxEntries if 0).
	SyncMaxEntries int64
	// Options are the codec parameters (core.DefaultOptions when zero).
	Options codec.Options
	// DistFailAfter injects a worker fault into the first /dist
	// connection of the process: its dist worker dies after pricing
	// that many jobs. Test/smoke-only knob; 0 disables.
	DistFailAfter int
}

// Defaults for Config's zero values.
const (
	DefaultQueueCap       = 256
	DefaultMaxUploadBytes = 256 << 20
	DefaultSyncMaxEntries = 1 << 16
	defaultRetryAfter     = "1"
)

// Server ties the store, tenants, cache and queue together under an
// http.Handler surface.
type Server struct {
	cfg       Config
	store     *Store
	tenants   *Tenants
	cache     *Cache
	queue     *Queue
	slo       *SLO
	distConns atomic.Int64
}

// New builds a Server (without starting workers; call Start).
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.SyncMaxEntries <= 0 {
		cfg.SyncMaxEntries = DefaultSyncMaxEntries
	}
	if cfg.Options == (codec.Options{}) {
		cfg.Options = core.DefaultOptions
	}
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("serve: Config.StoreDir is required")
	}
	store, err := NewStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		tenants: NewTenants(cfg.Quotas),
		slo:     NewSLO(0),
	}
	if cfg.CacheBytes >= 0 {
		s.cache = NewCache(cfg.CacheBytes)
	}
	s.queue = NewQueue(cfg.QueueCap, DefaultEvaluator(store, cfg.Options), s.cache, s.tenants)
	s.queue.onWait = s.slo.ObserveQueueWait
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() { s.queue.Start(s.cfg.Workers) }

// Queue exposes the underlying queue (the daemon's drain path and
// tests use it).
func (s *Server) Queue() *Queue { return s.queue }

// Store exposes the underlying trace store.
func (s *Server) Store() *Store { return s.store }

// Cache exposes the result cache (nil when disabled).
func (s *Server) Cache() *Cache { return s.cache }

// SLO exposes the per-tenant service-level accumulator.
func (s *Server) SLO() *SLO { return s.slo }

// Drain stops intake and waits for every accepted job to finish, then
// stops the workers. It reports whether the queue fully drained within
// the timeout (<= 0 waits forever).
func (s *Server) Drain(timeout time.Duration) bool {
	ok := s.queue.Drain(timeout)
	s.queue.Close()
	return ok
}

// Register installs the service endpoints on a mux: POST /traces,
// GET /traces, GET /traces/{digest}, GET/POST /eval, GET /jobs,
// GET /jobs/{id}, GET /healthz, GET /spans, GET /slo and the /dist
// peer upgrade. Request-bearing routes are wrapped so every response's
// wall time lands in the per-tenant SLO histograms under a fixed route
// label; /dist is hijacked into the peer protocol, so its connection
// lifetime is not a request latency and it stays untimed.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/traces", s.timed("/traces", s.handleTraces))
	mux.HandleFunc("/traces/", s.timed("/traces/{digest}", s.handleTraceByDigest))
	mux.HandleFunc("/eval", s.timed("/eval", s.HandleEval))
	mux.HandleFunc("/jobs", s.timed("/jobs", s.handleJobs))
	mux.HandleFunc("/jobs/", s.timed("/jobs/{id}", s.handleJob))
	mux.HandleFunc("/healthz", s.timed("/healthz", s.handleHealthz))
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/dist", s.handleDist)
}

// timed wraps a handler so its wall time is observed under the given
// route label. The route is the registration pattern, never the raw
// request path — SLO cardinality stays (tenants × registered routes).
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		tenant, ok := TenantOf(r)
		if !ok {
			tenant = "invalid"
		}
		s.slo.ObserveRequest(tenant, route, time.Since(start))
	}
}

// Error writes the service's JSON error envelope ({"error","status"})
// with the matching HTTP status code.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}{fmt.Sprintf(format, args...), status})
}

// unavailable writes the backpressure 503 with its Retry-After header.
func unavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", defaultRetryAfter)
	Error(w, http.StatusServiceUnavailable, format, args...)
}

// TenantOf extracts the request's tenant: the X-Tenant header, or
// "anon" when absent. An invalid identifier yields ok=false (the
// handler answers 400).
func TenantOf(r *http.Request) (string, bool) {
	id := r.Header.Get("X-Tenant")
	if id == "" {
		return "anon", true
	}
	if !ValidTenant(id) {
		return "", false
	}
	return id, true
}

// admit runs the shared per-request gate: tenant validity and the
// token-bucket rate. It writes the error response itself on failure.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (string, bool) {
	tenant, ok := TenantOf(r)
	if !ok {
		Error(w, http.StatusBadRequest, "invalid X-Tenant header (want 1-64 chars of [A-Za-z0-9_.-])")
		return "", false
	}
	if !s.tenants.Allow(tenant) {
		w.Header().Set("Retry-After", defaultRetryAfter)
		Error(w, http.StatusTooManyRequests, "tenant %q request rate exceeded", tenant)
		return "", false
	}
	return tenant, true
}

// handleTraces serves POST /traces (streamed upload) and GET /traces
// (stored-trace listing).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.store.List())
	case http.MethodPost:
		s.handleUpload(w, r)
	default:
		Error(w, http.StatusMethodNotAllowed, "method %s not allowed on /traces", r.Method)
	}
}

// handleUpload streams one trace body into the store under the
// tenant's byte quota. The body is parsed (and rejected with the trace
// layer's positioned errors) while it is being digested and spooled —
// it is never buffered whole.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.admit(w, r)
	if !ok {
		return
	}
	if s.queue.Draining() {
		metrics().uploadErrs.Inc()
		unavailable(w, "server is draining")
		return
	}
	sp := obs.StartSpan("serve.upload", obs.StageRead).WithStream(tenant)
	meta, err := s.store.Ingest(r.Body, s.cfg.MaxUploadBytes)
	sp.EndErr(err)
	if err != nil {
		metrics().uploadErrs.Inc()
		if strings.Contains(err.Error(), errTooLarge.Error()) {
			Error(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.tenants.AdmitBytes(tenant, meta.Digest, meta.Bytes); err != nil {
		Error(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, meta)
}

// evalRequest is a parsed /eval query.
type evalRequest struct {
	source string
	spec   JobSpec
	mode   string // "", "sync", "async"
}

// parseEval validates the query and writes the 4xx envelope itself on
// failure.
func (s *Server) parseEval(w http.ResponseWriter, r *http.Request) (evalRequest, bool) {
	q := r.URL.Query()
	var req evalRequest
	req.source = q.Get("trace")
	if req.source == "" {
		Error(w, http.StatusBadRequest, "missing trace parameter")
		return req, false
	}
	kern, err := codec.ParseKernel(q.Get("kernel"))
	if err != nil {
		Error(w, http.StatusBadRequest, "%v", err)
		return req, false
	}
	req.spec.Kernel = kern
	req.spec.Codes = NormalizeCodes(q.Get("codes"))
	// Validate codec names at admission so an async request fails with
	// 422 now instead of a JobFailed snapshot later.
	registered := make(map[string]bool, len(codec.Names()))
	for _, n := range codec.Names() {
		registered[n] = true
	}
	for _, c := range req.spec.Codes {
		if !registered[c] {
			Error(w, http.StatusUnprocessableEntity, "codec: unknown code %q (have %v)", c, codec.Names())
			return req, false
		}
	}
	var ok bool
	if req.spec.ChunkLen, ok = posIntParam(w, q.Get("chunklen"), "chunklen", MaxChunkLen); !ok {
		return req, false
	}
	if req.spec.Depth, ok = posIntParam(w, q.Get("depth"), "depth", MaxDepth); !ok {
		return req, false
	}
	// /eval has no shard-parallel route. The parameter is refused, not
	// ignored: an old client moved silently onto the default route could
	// get a 202 it never polls.
	if q.Has("parallel") {
		Error(w, http.StatusBadRequest, "parallel is no longer supported: drop it to price through the default /eval route (streaming fan-out, sync or async by trace size)")
		return req, false
	}
	if v := q.Get("stride"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			Error(w, http.StatusBadRequest, "stride must be a positive integer, got %q", v)
			return req, false
		}
		req.spec.Stride = n
	}
	switch req.mode = q.Get("mode"); req.mode {
	case "", "sync", "async":
	default:
		Error(w, http.StatusBadRequest, "mode must be sync or async, got %q", req.mode)
		return req, false
	}
	req.spec.Source = req.source
	return req, true
}

// EvalResponse is the JSON reply of a synchronous /eval.
type EvalResponse struct {
	Trace   string         `json:"trace"`
	Stream  string         `json:"stream"`
	Width   int            `json:"width"`
	Entries int64          `json:"entries"`
	Cached  bool           `json:"cached"`
	Results []codec.Result `json:"results"`
}

// enqueueResponse is the 202 reply of an asynchronous /eval.
type enqueueResponse struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Location string   `json:"location"`
}

// HandleEval serves /eval: admission, source resolution, then either
// the legacy synchronous path (small traces or explicit ?mode=sync) or
// enqueue-and-poll (202 with a /jobs/{id} location). Unknown digests and
// missing files are 404; backpressure is 503 + Retry-After.
func (s *Server) HandleEval(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.admit(w, r)
	if !ok {
		return
	}
	req, ok := s.parseEval(w, r)
	if !ok {
		return
	}

	// Resolve the source to an entry count where one is cheaply known
	// (stored digests always; BETR files from their header) so the
	// sync/async routing is deterministic.
	entries := int64(-1)
	if IsDigest(req.source) {
		meta, ok := s.store.Lookup(req.source)
		if !ok {
			Error(w, http.StatusNotFound, "unknown trace digest %q", req.source)
			return
		}
		entries = meta.Entries
	}

	mode := req.mode
	if mode == "" {
		if entries >= 0 && entries <= s.cfg.SyncMaxEntries {
			mode = "sync"
		} else if entries < 0 {
			mode = s.pathMode(req.source)
		} else {
			mode = "async"
		}
	}
	if mode == "sync" {
		s.evalSync(w, req)
		return
	}

	job, err := s.queue.Enqueue(tenant, req.spec)
	switch {
	case err == nil:
	case err == ErrQueueFull:
		unavailable(w, "job queue full (capacity %d)", s.cfg.QueueCap)
		return
	case err == ErrDraining:
		unavailable(w, "server is draining")
		return
	default: // tenant job quota
		w.Header().Set("Retry-After", defaultRetryAfter)
		Error(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, enqueueResponse{
		ID: job.ID, State: JobQueued, Location: "/jobs/" + job.ID,
	})
}

// pathMode routes a legacy filesystem-path source: BETR headers carry
// an entry count, so regular binary files below the sync threshold run
// inline; anything unknown-sized runs async.
func (s *Server) pathMode(path string) string {
	r, closer, err := trace.OpenFile(path, nil)
	if err != nil {
		return "sync" // let evalSync surface the open error as 404
	}
	defer closer.Close()
	type counter interface{ EntryCount() (uint64, bool) }
	if ec, ok := r.(counter); ok {
		if n, known := ec.EntryCount(); known && int64(n) <= s.cfg.SyncMaxEntries {
			return "sync"
		}
	}
	return "async"
}

// evalSync runs the legacy synchronous path through the same
// cache-aware evaluator the workers use.
func (s *Server) evalSync(w http.ResponseWriter, req evalRequest) {
	metrics().jobsSync.Inc()
	results, width, entries, cached, err := s.queue.evaluate(req.spec)
	if err != nil {
		s.evalError(w, req.source, err)
		return
	}
	writeJSON(w, http.StatusOK, EvalResponse{
		Trace: req.source, Stream: results[0].Stream, Width: width,
		Entries: entries, Cached: cached, Results: results,
	})
}

// evalError maps an evaluation error to the daemon's historical status
// split: unreadable sources are 404, everything else (unknown codec,
// malformed trace) is 422.
func (s *Server) evalError(w http.ResponseWriter, source string, err error) {
	if !IsDigest(source) {
		if _, statErr := os.Stat(source); statErr != nil {
			Error(w, http.StatusNotFound, "%v", err)
			return
		}
	}
	Error(w, http.StatusUnprocessableEntity, "%v", err)
}

// handleJobs lists the requesting tenant's jobs (?all=1 lists every
// tenant, for the ops surface).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	tenant, ok := TenantOf(r)
	if !ok {
		Error(w, http.StatusBadRequest, "invalid X-Tenant header")
		return
	}
	if r.URL.Query().Get("all") != "" {
		tenant = ""
	}
	writeJSON(w, http.StatusOK, s.queue.Jobs(tenant))
}

// handleJob serves GET /jobs/{id}[?wait=2s]: the job snapshot, with
// optional long-polling — the request parks until the job is terminal
// or the wait elapses, whichever is first (capped at MaxJobWait).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if id == "" || strings.Contains(id, "/") {
		Error(w, http.StatusNotFound, "want /jobs/{id}")
		return
	}
	job, ok := s.queue.Lookup(id)
	if !ok {
		Error(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if wait := r.URL.Query().Get("wait"); wait != "" {
		d, err := time.ParseDuration(wait)
		if err != nil || d < 0 {
			Error(w, http.StatusBadRequest, "wait must be a duration like 500ms, got %q", wait)
			return
		}
		if d > MaxJobWait {
			d = MaxJobWait
		}
		select {
		case <-job.Done():
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// MaxJobWait caps one long-poll parking interval.
const MaxJobWait = 30 * time.Second

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// MaxDepth and MaxChunkLen bound the /eval depth and chunklen
// parameters. Each sizes memory a query holds for its whole evaluation:
// depth a chunk buffer per fan-out worker, chunklen every pooled chunk
// at 9 B per entry. Unbounded, one tenant's query could exhaust the
// daemon's memory.
const (
	MaxDepth    = 64
	MaxChunkLen = 1 << 20
)

// posIntParam parses an optional integer query parameter in [1, max],
// writing the 400 envelope itself on a bad value.
func posIntParam(w http.ResponseWriter, s, name string, max int) (int, bool) {
	if s == "" {
		return 0, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		Error(w, http.StatusBadRequest, "%s must be a positive integer, got %q", name, s)
		return 0, false
	}
	if n > max {
		Error(w, http.StatusBadRequest, "%s must be at most %d, got %d", name, max, n)
		return 0, false
	}
	return n, true
}

// PaperCodes mirrors cmd/paper: the seven codes of the paper's tables,
// binary first so savings are always relative to it.
var PaperCodes = []string{"binary", "gray", "t0", "businvert", "t0bi", "dualt0", "dualt0bi"}

// NormalizeCodes expands a codes query value to the canonical list:
// "" or "paper" → the paper's seven, "all" → every registered codec,
// otherwise a comma list with binary forced first (deduplicated).
func NormalizeCodes(codes string) []string {
	switch codes {
	case "", "paper":
		return PaperCodes
	case "all":
		return codec.Names()
	}
	out := []string{"binary"}
	for _, c := range strings.Split(codes, ",") {
		if c = strings.TrimSpace(c); c != "" && c != "binary" {
			out = append(out, c)
		}
	}
	return out
}
