package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"busenc/internal/bench"
	"busenc/internal/core"
	"busenc/internal/serve"
)

// startService brings up an in-process serve.Server behind httptest.
func startService(t *testing.T, cfg serve.Config, start bool) (*serve.Server, string) {
	t.Helper()
	cfg.StoreDir = t.TempDir()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if start {
		srv.Start()
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		if start {
			srv.Drain(10 * time.Second)
		}
		ts.Close()
	})
	return srv, ts.URL
}

// TestDriveInProcess runs the whole mixed-traffic scenario against an
// in-process service and checks the collected summary invariants:
// parity on every result, at least one cache hit, and zero lost jobs.
func TestDriveInProcess(t *testing.T) {
	_, url := startService(t, serve.Config{QueueCap: 64, Workers: 2}, true)
	cfg := config{
		tenants:  4,
		duration: 1200 * time.Millisecond,
		entries:  800,
		burst:    4000, // small ballast: the 503 leg is not asserted here
		codes:    "t0,gray",
		queueCap: 64,
		workers:  2,
		sigterm:  false,
	}
	sum, err := drive(url, cfg, nil, io.Discard)
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if sum.SyncEvals == 0 {
		t.Error("no sync evals completed")
	}
	if sum.JobsDone == 0 {
		t.Error("no async jobs completed")
	}
	if sum.Uploads == 0 {
		t.Error("no uploads accepted")
	}
	if sum.CacheHits == 0 {
		t.Error("no cache hits: tenants share a digest and codec set, so repeats must hit")
	}
	if sum.ParityErrs != 0 {
		t.Errorf("parity errors = %d, want 0", sum.ParityErrs)
	}
	if sum.LostJobs != 0 {
		t.Errorf("lost jobs = %d, want 0", sum.LostJobs)
	}
	if len(sum.Latencies) == 0 {
		t.Error("no latencies collected")
	}
	// The record holds its own floors and invariants, and declares the
	// checks the committed BENCH_serve.json does.
	rec := sum.record(cfg)
	if vs, _ := bench.Compare("serve", rec, rec); len(vs) != 0 {
		t.Errorf("summary record breaks its own checks: %v", vs)
	}
	committed, err := bench.Read(filepath.Join("..", "..", "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	vs, _ := bench.Compare("serve", committed, rec)
	for _, v := range vs {
		if v.Metric == "bench" || v.Metric == "checks" || strings.Contains(v.Msg, "missing") {
			t.Errorf("record does not match the committed schema: %v", v)
		}
	}
}

// TestEvalAsyncQueueFull checks the harness's 503 accounting against a
// server whose workers never start: the queue wedges deterministically
// and the overflow request must be recorded as a queue-full rejection
// with its Retry-After header observed.
func TestEvalAsyncQueueFull(t *testing.T) {
	_, url := startService(t, serve.Config{QueueCap: 1, Workers: 1}, false)
	client := &http.Client{Timeout: 10 * time.Second}
	st := &loadState{outstanding: map[string]time.Time{}, expected: map[string][]int64{}}

	digest, err := uploadStream(client, url, 200, st)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if _, ok := evalAsync(client, url, "t0", digest, "gray", "", st); !ok {
		t.Fatal("first async eval should be accepted")
	}
	if _, ok := evalAsync(client, url, "t0", digest, "gray", "", st); ok {
		t.Fatal("second async eval should hit the full queue")
	}
	if st.sum.QueueFull503 != 1 {
		t.Errorf("QueueFull503 = %d, want 1", st.sum.QueueFull503)
	}
	if !st.sum.RetryAfter {
		t.Error("Retry-After header was not recorded from the 503")
	}
	if st.sum.Accepted != 1 || len(st.outstanding) != 1 {
		t.Errorf("accepted = %d outstanding = %d, want 1/1", st.sum.Accepted, len(st.outstanding))
	}
}

// uploadStream uploads a fresh reference stream and returns its digest.
func uploadStream(client *http.Client, url string, entries int, st *loadState) (string, error) {
	return upload(client, url, "t0", core.ReferenceMuxedStream(entries), st)
}

func TestPercentiles(t *testing.T) {
	if p50, p95, p99 := percentiles(nil); p50 != 0 || p95 != 0 || p99 != 0 {
		t.Errorf("empty percentiles = %v %v %v, want zeros", p50, p95, p99)
	}
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	p50, p95, p99 := percentiles(lat)
	if p50 != 50*time.Millisecond || p95 != 95*time.Millisecond || p99 != 99*time.Millisecond {
		t.Errorf("percentiles = %v %v %v", p50, p95, p99)
	}
}

func TestContractMisses(t *testing.T) {
	good := summary{
		JobsDone: 5, SyncEvals: 9, CacheHits: 3, QueueFull503: 1,
		RetryAfter: true, Sigtermed: true, DrainedClean: true,
	}
	if msgs := good.contractMisses(config{spawn: "x", sigterm: true}); len(msgs) != 0 {
		t.Errorf("clean summary flagged: %v", msgs)
	}
	bad := summary{JobsDone: 5, SyncEvals: 9}
	msgs := bad.contractMisses(config{spawn: "x", sigterm: true})
	joined := strings.Join(msgs, "; ")
	for _, want := range []string{"cache", "503", "Retry-After", "SIGTERM", "cleanly"} {
		if !strings.Contains(joined, want) {
			t.Errorf("contract misses %q lack %q", joined, want)
		}
	}
	lost := summary{
		JobsDone: 5, SyncEvals: 9, CacheHits: 3, QueueFull503: 1,
		RetryAfter: true, LostJobs: 2,
	}
	if msgs := lost.contractMisses(config{}); len(msgs) != 1 || !strings.Contains(msgs[0], "terminal") {
		t.Errorf("lost-jobs summary misses = %v", msgs)
	}
}
