package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"busenc/internal/core"
	"busenc/internal/obs"
	"busenc/internal/serve"
	"busenc/internal/trace"
)

// newTestMux builds the daemon handler tree over a fresh serve.Server
// (temp store, started workers) for httptest use.
func newTestMux(t *testing.T, withPprof bool) *http.ServeMux {
	t.Helper()
	srv, err := serve.New(serve.Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Drain(5 * time.Second) })
	return newMux(withPprof, srv)
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func writeServerTrace(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteBinary(f, core.ReferenceMuxedStream(n)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestServerEndpoints(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	srv := httptest.NewServer(newTestMux(t, false))
	defer srv.Close()

	if code, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}

	// Evaluate a real trace through the fan-out.
	path := writeServerTrace(t, 2000)
	code, body := get(t, srv, "/eval?trace="+path+"&codes=t0,gray&chunklen=256")
	if code != 200 {
		t.Fatalf("/eval: %d %s", code, body)
	}
	var resp serve.EvalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/eval returned invalid JSON: %v\n%s", err, body)
	}
	if resp.Entries != 2000 {
		t.Errorf("entries = %d, want 2000", resp.Entries)
	}
	want := []string{"binary", "t0", "gray"}
	if len(resp.Results) != len(want) {
		t.Fatalf("results = %+v, want codes %v", resp.Results, want)
	}
	for i, code := range want {
		if resp.Results[i].Codec != code {
			t.Errorf("results[%d] = %s, want %s", i, resp.Results[i].Codec, code)
		}
		if resp.Results[i].Transitions <= 0 {
			t.Errorf("%s: no transitions counted", code)
		}
	}

	// No shard-parallel route: a parallel parameter is refused with a
	// 400 envelope naming it, never silently moved to the default route.
	code, body = get(t, srv, "/eval?trace="+path+"&codes=t0,gray&parallel=2")
	if code != 400 || !strings.Contains(body, "parallel") {
		t.Errorf("/eval?parallel=2: %d %s, want a 400 naming the parameter", code, body)
	}
	decodeErrEnvelope(t, "parallel=2", body, 400)

	// The evaluation's traffic must now show up in the metrics dump.
	if code, body := get(t, srv, "/metrics"); code != 200 ||
		!strings.Contains(body, "trace.chunks_read") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	if code, body := get(t, srv, "/metrics?format=table"); code != 200 ||
		!strings.Contains(body, "core.fanout.blocks_broadcast") {
		t.Errorf("/metrics?format=table: %d\n%s", code, body)
	}
	if code, _ := get(t, srv, "/metrics?format=xml"); code != 400 {
		t.Errorf("bad format accepted: %d", code)
	}
}

// decodeErrEnvelope asserts a response body is the JSON error envelope
// and that its status field echoes the HTTP status.
func decodeErrEnvelope(t *testing.T, label, body string, wantStatus int) {
	t.Helper()
	var env struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Errorf("%s: body is not a JSON envelope: %v\n%s", label, err, body)
		return
	}
	if env.Error == "" {
		t.Errorf("%s: envelope has empty error: %s", label, body)
	}
	if env.Status != wantStatus {
		t.Errorf("%s: envelope status = %d, want %d", label, env.Status, wantStatus)
	}
}

func TestServerEvalErrors(t *testing.T) {
	srv := httptest.NewServer(newTestMux(t, false))
	defer srv.Close()
	path := writeServerTrace(t, 100)
	cases := []struct {
		name, url string
		want      int
	}{
		{"missing trace param", "/eval", 400},
		{"missing file", "/eval?trace=/no/such/file.bin", 404},
		{"bad chunklen", "/eval?trace=" + path + "&chunklen=nope", 400},
		{"zero chunklen", "/eval?trace=" + path + "&chunklen=0", 400},
		{"unknown codec", "/eval?trace=" + path + "&codes=bogus", 422},
		{"bad parallel", "/eval?trace=" + path + "&parallel=-1", 400},
		{"non-numeric parallel", "/eval?trace=" + path + "&parallel=two", 400},
		{"unknown codec before parallel", "/eval?trace=" + path + "&parallel=2&codes=bogus", 422},
	}
	for _, tc := range cases {
		code, body := get(t, srv, tc.url)
		if code != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, code, tc.want)
			continue
		}
		decodeErrEnvelope(t, tc.name, body, tc.want)
	}
}

func TestServerSpansAndPrometheus(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.EnableTracing(obs.TracerConfig{})
	defer obs.DisableTracing()
	srv := httptest.NewServer(newTestMux(t, false))
	defer srv.Close()

	// Drive one eval so the flight recorder and histograms have content.
	path := writeServerTrace(t, 2000)
	if code, body := get(t, srv, "/eval?trace="+path+"&codes=t0,gray"); code != 200 {
		t.Fatalf("/eval: %d %s", code, body)
	}

	code, body := get(t, srv, "/spans")
	if code != 200 {
		t.Fatalf("/spans: %d %s", code, body)
	}
	var sresp serve.SpansResponse
	if err := json.Unmarshal([]byte(body), &sresp); err != nil {
		t.Fatalf("/spans returned invalid JSON: %v\n%s", err, body)
	}
	if !sresp.Enabled || sresp.Count == 0 || len(sresp.Spans) != sresp.Count {
		t.Fatalf("/spans = enabled=%v count=%d len=%d", sresp.Enabled, sresp.Count, len(sresp.Spans))
	}
	// The export identifies its recorder: pid, host and tracer epoch are
	// what a sweep coordinator uses to place this peer's lane on its own
	// timebase.
	if sresp.PID != os.Getpid() || sresp.Epoch == 0 {
		t.Errorf("/spans recorder identity = pid %d epoch %d", sresp.PID, sresp.Epoch)
	}
	stages := map[string]bool{}
	for _, s := range sresp.Spans {
		stages[s.Stage] = true
	}
	for _, stage := range []string{obs.StageRead, obs.StageEncode, obs.StageEval} {
		if !stages[stage] {
			t.Errorf("/spans missing stage %q (got %v)", stage, stages)
		}
	}

	// Stage and codec filters narrow the set.
	code, body = get(t, srv, "/spans?stage=encode&codec=t0")
	if code != 200 {
		t.Fatalf("/spans?stage=encode&codec=t0: %d %s", code, body)
	}
	var fresp serve.SpansResponse
	if err := json.Unmarshal([]byte(body), &fresp); err != nil {
		t.Fatalf("filtered /spans invalid JSON: %v", err)
	}
	if fresp.Count == 0 {
		t.Error("filtered /spans returned no encode/t0 spans")
	}
	for _, s := range fresp.Spans {
		if s.Stage != "encode" || s.Codec != "t0" {
			t.Errorf("filter leak: stage=%q codec=%q", s.Stage, s.Codec)
		}
	}

	// Prometheus exposition carries typed busenc_ metrics, with the
	// labeled per-tenant SLO series appended (the /eval above ran as the
	// "anon" tenant through the timed /eval route).
	code, body = get(t, srv, "/metrics?format=prometheus")
	if code != 200 {
		t.Fatalf("/metrics?format=prometheus: %d %s", code, body)
	}
	for _, want := range []string{
		"# TYPE busenc_", "busenc_default_trace_chunks_read", "_bucket{le=\"+Inf\"}",
		"# TYPE busenc_serve_slo_latency_ns histogram",
		`busenc_serve_slo_latency_ns_count{route="/eval",tenant="anon"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, body)
		}
	}

	// The JSON SLO summary reports the same traffic.
	code, body = get(t, srv, "/slo")
	if code != 200 {
		t.Fatalf("/slo: %d %s", code, body)
	}
	var slo serve.SLOSnapshot
	if err := json.Unmarshal([]byte(body), &slo); err != nil {
		t.Fatalf("/slo returned invalid JSON: %v\n%s", err, body)
	}
	found := false
	for _, req := range slo.Requests {
		if req.Tenant == "anon" && req.Route == "/eval" && req.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("/slo missing the anon /eval series: %+v", slo.Requests)
	}
}

func TestServerPprofGate(t *testing.T) {
	plain := httptest.NewServer(newTestMux(t, false))
	defer plain.Close()
	if code, _ := get(t, plain, "/debug/pprof/"); code == 200 {
		t.Error("pprof exposed without -pprof")
	}
	prof := httptest.NewServer(newTestMux(t, true))
	defer prof.Close()
	if code, body := get(t, prof, "/debug/pprof/"); code != 200 ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: %d\n%s", code, body)
	}
}

// TestServerServiceRoundTrip drives the daemon's service surface:
// streamed upload, async enqueue, long-poll to completion, cache hit on
// the synchronous repeat.
func TestServerServiceRoundTrip(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	srv := httptest.NewServer(newTestMux(t, false))
	defer srv.Close()

	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, core.ReferenceMuxedStream(500)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/traces", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var meta serve.TraceMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Entries != 500 {
		t.Fatalf("uploaded meta = %+v", meta)
	}

	code, body2 := get(t, srv, "/eval?trace="+meta.Digest+"&codes=t0&mode=async")
	if code != 202 {
		t.Fatalf("async eval: %d %s", code, body2)
	}
	var enq struct {
		ID       string `json:"id"`
		Location string `json:"location"`
	}
	if err := json.Unmarshal([]byte(body2), &enq); err != nil {
		t.Fatal(err)
	}
	code, body2 = get(t, srv, enq.Location+"?wait=5s")
	if code != 200 {
		t.Fatalf("job poll: %d %s", code, body2)
	}
	var snap serve.Snapshot
	if err := json.Unmarshal([]byte(body2), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != serve.JobDone || len(snap.Results) != 2 {
		t.Fatalf("job = %+v, want done with binary+t0", snap)
	}

	// Same key synchronously: served from the result cache.
	code, body2 = get(t, srv, "/eval?trace="+meta.Digest+"&codes=t0")
	if code != 200 {
		t.Fatalf("sync repeat: %d %s", code, body2)
	}
	var eresp serve.EvalResponse
	if err := json.Unmarshal([]byte(body2), &eresp); err != nil {
		t.Fatal(err)
	}
	if !eresp.Cached {
		t.Error("synchronous repeat of an async-evaluated key missed the cache")
	}
	if eresp.Results[1].Transitions != snap.Results[1].Transitions {
		t.Errorf("cached transitions diverge: %d vs %d",
			eresp.Results[1].Transitions, snap.Results[1].Transitions)
	}

	// Queue metrics from the async path are visible on /metrics.
	if code, body := get(t, srv, "/metrics"); code != 200 ||
		!strings.Contains(body, "serve.jobs.done") {
		t.Errorf("/metrics missing serve counters: %d", code)
	}
}
