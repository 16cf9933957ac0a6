// Command busencd is the multi-tenant evaluation daemon: it serves the
// internal/serve job queue over HTTP — streamed trace upload into a
// content-addressed store, enqueue-and-poll evaluation with per-tenant
// fairness and quotas, a bytes-bounded result cache — alongside the
// observability surface (metrics, spans, optional pprof) of
// the original debugging daemon.
//
//	busencd -listen :8377             # service + observability endpoints
//	busencd -listen 127.0.0.1:0       # ephemeral port, printed on stdout
//	busencd -listen :8377 -pprof      # + /debug/pprof/*
//
// Endpoints: POST/GET /traces, GET /traces/{digest}, GET /eval (sync
// for small traces, 202 + /jobs/{id} otherwise), GET /jobs[/{id}],
// GET /dist (peer protocol upgrade for networked distributed pricing),
// /healthz /metrics /spans. SIGTERM/SIGINT starts a
// graceful drain: intake answers
// 503 + Retry-After while every accepted job runs to completion, then
// the HTTP server shuts down. /eval still accepts server-local file
// paths for trusted local profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"busenc/internal/obs"
	"busenc/internal/serve"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8377", "address to serve on (port 0 picks one; the bound address is printed on stdout)")
		withPprof  = flag.Bool("pprof", false, "also expose /debug/pprof/* (CPU/heap/trace profiling)")
		storeDir   = flag.String("store", "", "trace store directory (default: a fresh temp dir)")
		workers    = flag.Int("workers", 0, "evaluation worker pool size (default GOMAXPROCS)")
		queueCap   = flag.Int("queue-cap", serve.DefaultQueueCap, "max waiting jobs before /eval answers 503")
		cacheBytes = flag.Int64("cache-bytes", serve.DefaultCacheBytes, "result cache bound in bytes (negative disables)")
		maxUpload  = flag.Int64("max-upload", serve.DefaultMaxUploadBytes, "max bytes of one POST /traces body")
		syncMax    = flag.Int64("sync-max-entries", serve.DefaultSyncMaxEntries, "largest known trace evaluated synchronously on /eval")
		rate       = flag.Float64("rate", 0, "per-tenant request rate limit per second (0 = unlimited)")
		burst      = flag.Float64("burst", 0, "per-tenant request burst (default: the rate)")
		maxJobs    = flag.Int("max-queued-jobs", 0, "per-tenant concurrent job quota (0 = unlimited)")
		maxBytes   = flag.Int64("max-trace-bytes", 0, "per-tenant stored trace byte quota (0 = unlimited)")
		drainWait  = flag.Duration("drain-timeout", 60*time.Second, "max time to wait for in-flight jobs on shutdown")
		linger     = flag.Duration("drain-linger", 200*time.Millisecond, "grace for final /jobs polls after the drain completes")
		distFail   = flag.Int("dist-failafter", 0, "fault injection: the first /dist peer connection dies after pricing N jobs (0 = off)")
	)
	flag.Parse()

	obs.Enable()
	obs.EnableTracing(obs.TracerConfig{})

	dir := *storeDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "busencd-store-")
		if err != nil {
			log.Fatalf("busencd: %v", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	srv, err := serve.New(serve.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		CacheBytes:     *cacheBytes,
		StoreDir:       dir,
		MaxUploadBytes: *maxUpload,
		SyncMaxEntries: *syncMax,
		DistFailAfter:  *distFail,
		Quotas: serve.Quotas{
			RatePerSec:    *rate,
			RateBurst:     *burst,
			MaxQueuedJobs: *maxJobs,
			MaxTraceBytes: *maxBytes,
		},
	})
	if err != nil {
		log.Fatalf("busencd: %v", err)
	}
	srv.Start()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("busencd: %v", err)
	}
	// The bound address goes to stdout so wrappers (busencload -spawn)
	// can parse it when -listen used port 0.
	fmt.Printf("busencd: listening on %s (pprof=%v store=%s)\n", ln.Addr(), *withPprof, dir)

	hs := &http.Server{Handler: newMux(*withPprof, srv)}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("busencd: %v: draining (timeout %s)", sig, *drainWait)
	case err := <-errc:
		log.Fatalf("busencd: %v", err)
	}

	// Drain: intake 503s while accepted jobs run to completion. The HTTP
	// server keeps answering /jobs polls throughout, plus a short linger
	// so clients can collect their final results before the socket dies.
	drained := srv.Drain(*drainWait)
	time.Sleep(*linger)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	if !drained {
		log.Fatalf("busencd: drain timed out with jobs in flight")
	}
	log.Printf("busencd: drained cleanly")
}

// newMux builds the daemon's handler tree over a serve.Server. Split
// from main so tests can drive it through httptest without a socket.
func newMux(withPprof bool, srv *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	srv.Register(mux) // /traces /eval /jobs /jobs/{id} /healthz /spans /slo /dist
	mux.HandleFunc("/metrics", handleMetrics(srv))
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics dumps every non-empty registry: JSON by default,
// ?format=table for the human-aligned rendering, ?format=prometheus for
// the text exposition a Prometheus scraper expects (with the serve
// layer's per-tenant SLO histograms appended).
func handleMetrics(srv *serve.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			if err := obs.WriteAllJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "table":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := obs.WriteAllTable(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := obs.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if err := srv.SLO().WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, "format must be json, table or prometheus", http.StatusBadRequest)
		}
	}
}
