// Command busencload is the load harness for the busencd evaluation
// service: it drives mixed upload / eval / poll traffic from N
// concurrent tenants against a live daemon, checks every returned
// result against an in-process reference evaluation of the same
// generated stream (parity), and reports a latency table plus a
// BENCH_serve.json record for the regression guard.
//
//	busencload -addr 127.0.0.1:8377 -tenants 8 -duration 3s
//	busencload -spawn ./busencd -tenants 32 -duration 5s -smoke
//
// With -spawn the harness launches its own busencd on an ephemeral
// port (parsing the bound address from the child's stdout), forces a
// queue-full burst against a deliberately small -queue-cap, and sends
// the child SIGTERM mid-run with jobs still in flight. -smoke then
// asserts the service contract: at least one queue-full 503 carrying
// Retry-After, at least one result served from the cache, parity on
// every collected result, zero accepted jobs lost across the drain,
// and a clean child exit.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"busenc/internal/bench"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/serve"
	"busenc/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	addr     string
	spawn    string
	tenants  int
	duration time.Duration
	entries  int
	burst    int
	codes    string
	queueCap int
	workers  int
	smoke    bool
	sigterm  bool
	benchOut string
	spansOut string
	jsonOut  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("busencload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "", "address of a running busencd (mutually exclusive with -spawn)")
	fs.StringVar(&cfg.spawn, "spawn", "", "path to a busencd binary to launch on an ephemeral port")
	fs.IntVar(&cfg.tenants, "tenants", 8, "concurrent tenants")
	fs.DurationVar(&cfg.duration, "duration", 3*time.Second, "steady-state traffic duration")
	fs.IntVar(&cfg.entries, "entries", 2000, "entries in the small (synchronously evaluated) trace")
	fs.IntVar(&cfg.burst, "burst", 1<<21, "entries in the large trace used to force queue-full backpressure")
	fs.StringVar(&cfg.codes, "codes", "t0,gray", "codec list under test")
	fs.IntVar(&cfg.queueCap, "queue-cap", 4, "queue capacity for a spawned daemon")
	fs.IntVar(&cfg.workers, "workers", 2, "worker pool size for a spawned daemon")
	fs.BoolVar(&cfg.smoke, "smoke", false, "enforce the service-contract assertions (exit 1 on any miss)")
	fs.BoolVar(&cfg.sigterm, "sigterm", true, "with -spawn: SIGTERM the daemon mid-run and verify the drain")
	fs.StringVar(&cfg.benchOut, "benchjson", "", "write a BENCH_serve.json record here")
	fs.StringVar(&cfg.spansOut, "spansout", "", "dump the daemon's span flight recorder here before shutdown")
	fs.BoolVar(&cfg.jsonOut, "json", false, "print the summary as JSON instead of the table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (cfg.addr == "") == (cfg.spawn == "") {
		fmt.Fprintln(stderr, "busencload: exactly one of -addr or -spawn is required")
		return 2
	}
	if cfg.tenants < 1 {
		cfg.tenants = 1
	}

	var child *daemon
	if cfg.spawn != "" {
		var err error
		child, err = spawnDaemon(cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "busencload: %v\n", err)
			return 1
		}
		cfg.addr = child.addr
		defer child.kill()
	}

	sum, err := drive("http://"+cfg.addr, cfg, child, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "busencload: %v\n", err)
		return 1
	}
	report(stdout, cfg, sum)

	if cfg.benchOut != "" {
		if err := bench.Write(cfg.benchOut, sum.record(cfg)); err != nil {
			fmt.Fprintf(stderr, "busencload: %v\n", err)
			return 1
		}
	}
	if cfg.smoke {
		if msgs := sum.contractMisses(cfg); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintf(stderr, "busencload: SMOKE FAIL: %s\n", m)
			}
			return 1
		}
		fmt.Fprintln(stdout, "busencload: smoke ok")
	}
	return 0
}

// daemon is a spawned busencd child.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	storeDir string
	exitCh   chan error
	exitOnce sync.Once
	exitErr  error
}

// spawnDaemon launches busencd on an ephemeral port and parses the
// bound address from its stdout banner.
func spawnDaemon(cfg config, stderr io.Writer) (*daemon, error) {
	storeDir, err := os.MkdirTemp("", "busencload-store-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.spawn,
		"-listen", "127.0.0.1:0",
		"-store", storeDir,
		"-queue-cap", fmt.Sprint(cfg.queueCap),
		"-workers", fmt.Sprint(cfg.workers),
		"-drain-linger", "750ms",
	)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, storeDir: storeDir, exitCh: make(chan error, 1)}
	go func() { d.exitCh <- cmd.Wait() }()

	// First stdout line: "busencd: listening on HOST:PORT (...)".
	sc := bufio.NewScanner(out)
	deadline := time.After(10 * time.Second)
	got := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if f := strings.Fields(line); len(f) >= 4 && strings.Contains(line, "listening on") {
				got <- f[3]
				break
			}
		}
		close(got)
	}()
	select {
	case addr, ok := <-got:
		if !ok || addr == "" {
			d.kill()
			return nil, fmt.Errorf("spawned daemon exited before announcing its address")
		}
		d.addr = addr
		go io.Copy(io.Discard, out) // keep the pipe drained
		return d, nil
	case <-deadline:
		d.kill()
		return nil, fmt.Errorf("spawned daemon never announced its address")
	}
}

// sigterm delivers the drain signal.
func (d *daemon) sigterm() error { return d.cmd.Process.Signal(syscall.SIGTERM) }

// waitExit blocks for process exit and returns its error (nil = clean).
func (d *daemon) waitExit(timeout time.Duration) error {
	d.exitOnce.Do(func() {
		select {
		case d.exitErr = <-d.exitCh:
		case <-time.After(timeout):
			d.exitErr = fmt.Errorf("daemon did not exit within %s", timeout)
			d.cmd.Process.Kill()
		}
	})
	return d.exitErr
}

func (d *daemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
	}
	if d.storeDir != "" {
		os.RemoveAll(d.storeDir)
	}
}

// summary aggregates one load run.
type summary struct {
	JobsDone     int64           `json:"jobs_done"`
	SyncEvals    int64           `json:"sync_evals"`
	Uploads      int64           `json:"uploads"`
	CacheHits    int64           `json:"cache_hits"`
	QueueFull503 int64           `json:"queue_full_503"`
	RateLimited  int64           `json:"rate_limited_429"`
	Accepted     int64           `json:"accepted_jobs"`
	LostJobs     int64           `json:"lost_jobs"`
	ParityErrs   int64           `json:"parity_errors"`
	RetryAfter   bool            `json:"retry_after_seen"`
	DrainedClean bool            `json:"drained_clean"`
	Sigtermed    bool            `json:"sigtermed"`
	Elapsed      time.Duration   `json:"elapsed_ns"`
	Latencies    []time.Duration `json:"-"`
}

// record is the run as a BENCH_serve.json record. Parity and zero lost
// jobs are correctness invariants and bind on any machine; throughput
// is a same-machine band.
func (s *summary) record(cfg config) bench.Record {
	p50, p95, p99 := percentiles(s.Latencies)
	rec := bench.New("ServeLoad", 0)
	rec.Metrics = map[string]float64{
		"gomaxprocs":  float64(runtime.GOMAXPROCS(0)),
		"tenants":     float64(cfg.tenants),
		"workers":     float64(cfg.workers),
		"queue_cap":   float64(cfg.queueCap),
		"duration_ns": float64(s.Elapsed.Nanoseconds()),

		"jobs_done":      float64(s.JobsDone),
		"sync_evals":     float64(s.SyncEvals),
		"uploads":        float64(s.Uploads),
		"cache_hits":     float64(s.CacheHits),
		"queue_full_503": float64(s.QueueFull503),
		"lost_jobs":      float64(s.LostJobs), // accepted jobs that never went terminal

		// End-to-end eval latency percentiles (enqueue/request to result).
		"p50_ns": float64(p50.Nanoseconds()),
		"p95_ns": float64(p95.Nanoseconds()),
		"p99_ns": float64(p99.Nanoseconds()),
		// Completed evaluations (sync + async) per second.
		"throughput_jps": float64(s.JobsDone+s.SyncEvals) / s.Elapsed.Seconds(),
		"parity":         bench.Bool(s.ParityErrs == 0),
	}
	rec.Checks = []bench.Check{
		{Metric: "throughput_jps", Kind: bench.Ratio, Bound: bench.Band},
		{Metric: "parity", Kind: bench.Invariant, Bound: 1},
		{Metric: "lost_jobs", Kind: bench.Invariant, Bound: 0},
		{Metric: "jobs_done", Kind: bench.Floor, Bound: 1},
		{Metric: "p50_ns", Kind: bench.Floor, Bound: 1},
		{Metric: "p95_ns", Kind: bench.Floor, Bound: 1},
		{Metric: "p99_ns", Kind: bench.Floor, Bound: 1},
	}
	return rec
}

// contractMisses lists every smoke assertion the run failed to satisfy.
func (s *summary) contractMisses(cfg config) []string {
	var out []string
	if s.JobsDone == 0 {
		out = append(out, "no async jobs completed")
	}
	if s.SyncEvals == 0 {
		out = append(out, "no synchronous evals completed")
	}
	if s.ParityErrs > 0 {
		out = append(out, fmt.Sprintf("%d results diverged from the reference evaluation", s.ParityErrs))
	}
	if s.CacheHits == 0 {
		out = append(out, "no response was served from the result cache")
	}
	if s.QueueFull503 == 0 {
		out = append(out, "no queue-full 503 was provoked")
	}
	if !s.RetryAfter {
		out = append(out, "no 503 carried a Retry-After header")
	}
	if s.LostJobs > 0 {
		out = append(out, fmt.Sprintf("%d accepted jobs never reached a terminal state", s.LostJobs))
	}
	if cfg.spawn != "" && cfg.sigterm {
		if !s.Sigtermed {
			out = append(out, "the mid-run SIGTERM was never delivered")
		}
		if !s.DrainedClean {
			out = append(out, "the daemon did not exit cleanly after the drain")
		}
	}
	return out
}

// loadState is the shared mutable state of one run.
type loadState struct {
	mu           sync.Mutex
	sum          summary
	outstanding  map[string]time.Time // job ID → enqueue time
	expected     map[string][]int64   // stream key → per-codec reference transitions
	smallEntries int64                // cycle count identifying the small stream's jobs
}

func (st *loadState) note(f func(*summary)) {
	st.mu.Lock()
	f(&st.sum)
	st.mu.Unlock()
}

// drive runs the whole scenario against baseURL and aggregates the
// summary. child may be nil (an external -addr daemon: no SIGTERM leg).
func drive(baseURL string, cfg config, child *daemon, stderr io.Writer) (*summary, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	st := &loadState{
		outstanding: make(map[string]time.Time),
		expected:    make(map[string][]int64),
	}
	codes := serve.NormalizeCodes(cfg.codes)

	// Two shared streams: a small one (sync-routed, cache-friendly — all
	// tenants share its digest) and a large one whose evaluations are
	// slow enough to wedge the queue during the backpressure burst.
	small := core.ReferenceMuxedStream(cfg.entries)
	big := core.ReferenceMuxedStream(cfg.burst)
	if err := st.reference("small", small, codes); err != nil {
		return nil, err
	}
	st.smallEntries = int64(len(small.Entries))

	smallDigest, err := upload(client, baseURL, "seed", small, st)
	if err != nil {
		return nil, fmt.Errorf("seed upload: %v", err)
	}
	bigDigest, err := upload(client, baseURL, "seed", big, st)
	if err != nil {
		return nil, fmt.Errorf("seed upload (burst trace): %v", err)
	}

	start := time.Now()
	deadline := start.Add(cfg.duration)

	// Steady-state traffic: every tenant mixes re-uploads (dedup), sync
	// evals, async evals and polls over the shared digest.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < cfg.tenants; i++ {
		wg.Add(1)
		go func(tenant string, seq int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (n + seq) % 4 {
				case 0:
					// Re-upload: content-addressed dedup, same digest back.
					if d, err := upload(client, baseURL, tenant, small, st); err == nil && d != smallDigest {
						st.note(func(s *summary) { s.ParityErrs++ })
						fmt.Fprintf(stderr, "busencload: dedup digest mismatch: %s vs %s\n", d, smallDigest)
					}
				case 1, 2:
					evalSync(client, baseURL, tenant, smallDigest, cfg.codes, codes, st, stderr)
				case 3:
					if id, ok := evalAsync(client, baseURL, tenant, smallDigest, cfg.codes, "", st); ok {
						pollJob(client, baseURL, tenant, id, codes, st, stderr)
					}
				}
			}
		}(fmt.Sprintf("tenant%02d", i), i)
	}

	// Backpressure burst, partway in: flood the queue with slow async
	// jobs on the big trace until at least one 503 lands. The worker
	// pool and queue of a spawned daemon are sized so one round is
	// normally enough; retry a few rounds against an external daemon.
	time.Sleep(cfg.duration / 2)
	for attempt := 0; attempt < 5; attempt++ {
		burstOnce(client, baseURL, bigDigest, cfg, attempt, st)
		st.mu.Lock()
		got := st.sum.QueueFull503 > 0
		st.mu.Unlock()
		if got {
			break
		}
	}

	// Optional mid-drain SIGTERM: let the steady-state traffic run out
	// its full duration, refill the queue with slow jobs so the signal
	// lands with work genuinely in flight, then collect every
	// outstanding job through the drain.
	if child != nil && cfg.sigterm {
		if rem := time.Until(deadline); rem > 0 {
			time.Sleep(rem)
		}
		if cfg.spansOut != "" {
			dumpSpans(client, baseURL, cfg.spansOut, stderr)
		}
		burstOnce(client, baseURL, bigDigest, cfg, 5, st)
		close(stop)
		wg.Wait()
		if err := child.sigterm(); err != nil {
			return nil, fmt.Errorf("SIGTERM: %v", err)
		}
		st.note(func(s *summary) { s.Sigtermed = true })
		collectOutstanding(client, baseURL, codes, st, stderr)
		if err := child.waitExit(2 * time.Minute); err != nil {
			fmt.Fprintf(stderr, "busencload: daemon exit: %v\n", err)
		} else {
			st.note(func(s *summary) { s.DrainedClean = true })
		}
	} else {
		wg.Wait()
		close(stop)
		if cfg.spansOut != "" {
			dumpSpans(client, baseURL, cfg.spansOut, stderr)
		}
		collectOutstanding(client, baseURL, codes, st, stderr)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.sum.LostJobs = int64(len(st.outstanding))
	st.sum.Elapsed = time.Since(start)
	out := st.sum
	return &out, nil
}

// reference computes the expected transitions for a stream in process,
// through the paper-faithful codec.Run, which shares no pricing code
// with the daemon under test.
func (st *loadState) reference(key string, s *trace.Stream, codes []string) error {
	exp := make([]int64, len(codes))
	for i, code := range codes {
		c, err := codec.New(code, s.Width, core.DefaultOptions)
		if err != nil {
			return err
		}
		res, err := codec.Run(c, s)
		if err != nil {
			return err
		}
		exp[i] = res.Transitions
	}
	st.expected[key] = exp
	return nil
}

// checkParity compares served results against the reference for key.
// Streams without a precomputed reference (the burst ballast) skip.
func (st *loadState) checkParity(key string, results []codec.Result, stderr io.Writer) {
	exp, have := st.expected[key]
	if !have {
		return
	}
	ok := len(results) == len(exp)
	if ok {
		for i := range exp {
			if results[i].Transitions != exp[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		st.note(func(s *summary) { s.ParityErrs++ })
		fmt.Fprintf(stderr, "busencload: parity mismatch for %s: got %v want %v\n", key, results, exp)
	}
}

func upload(client *http.Client, baseURL, tenant string, s *trace.Stream, st *loadState) (string, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, s); err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/traces", &buf)
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("upload: %d %s", resp.StatusCode, body)
	}
	var meta serve.TraceMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		return "", err
	}
	st.note(func(s *summary) { s.Uploads++ })
	return meta.Digest, nil
}

func get(client *http.Client, url, tenant string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

// evalSync runs one synchronous /eval and records latency + parity.
func evalSync(client *http.Client, baseURL, tenant, digest, codesParam string, codes []string, st *loadState, stderr io.Writer) {
	t0 := time.Now()
	resp, body, err := get(client, baseURL+"/eval?trace="+digest+"&codes="+codesParam, tenant)
	if err != nil {
		return // transport error during shutdown windows is not a contract miss
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		st.note(func(s *summary) { s.RateLimited++ })
		return
	case http.StatusServiceUnavailable:
		st.note(func(s *summary) {
			s.QueueFull503++
			if resp.Header.Get("Retry-After") != "" {
				s.RetryAfter = true
			}
		})
		return
	default:
		fmt.Fprintf(stderr, "busencload: sync eval: %d %s\n", resp.StatusCode, body)
		st.note(func(s *summary) { s.ParityErrs++ })
		return
	}
	var er serve.EvalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		st.note(func(s *summary) { s.ParityErrs++ })
		return
	}
	lat := time.Since(t0)
	st.checkParity("small", er.Results, stderr)
	st.note(func(s *summary) {
		s.SyncEvals++
		s.Latencies = append(s.Latencies, lat)
		if er.Cached {
			s.CacheHits++
		}
	})
}

// evalAsync enqueues one async job; extra is appended to the query
// string verbatim. Returns the job ID when accepted.
func evalAsync(client *http.Client, baseURL, tenant, digest, codesParam, extra string, st *loadState) (string, bool) {
	resp, body, err := get(client, baseURL+"/eval?trace="+digest+"&codes="+codesParam+"&mode=async"+extra, tenant)
	if err != nil {
		return "", false
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusServiceUnavailable:
		st.note(func(s *summary) {
			s.QueueFull503++
			if resp.Header.Get("Retry-After") != "" {
				s.RetryAfter = true
			}
		})
		return "", false
	case http.StatusTooManyRequests:
		st.note(func(s *summary) { s.RateLimited++ })
		return "", false
	default:
		return "", false
	}
	var enq struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &enq); err != nil || enq.ID == "" {
		return "", false
	}
	st.mu.Lock()
	st.sum.Accepted++
	st.outstanding[enq.ID] = time.Now()
	st.mu.Unlock()
	return enq.ID, true
}

// pollJob long-polls one accepted job to a terminal state, recording
// latency, cache hits and parity. Jobs that cannot be confirmed stay in
// the outstanding set and count as lost at the end of the run.
func pollJob(client *http.Client, baseURL, tenant, id string, codes []string, st *loadState, stderr io.Writer) bool {
	st.mu.Lock()
	enq, tracked := st.outstanding[id]
	st.mu.Unlock()
	if !tracked {
		return true
	}
	for deadline := time.Now().Add(90 * time.Second); time.Now().Before(deadline); {
		resp, body, err := get(client, baseURL+"/jobs/"+id+"?wait=5s", tenant)
		if err != nil {
			// The socket can die between drain completion and our poll;
			// brief retry separates that race from a genuinely lost job.
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(stderr, "busencload: poll %s: %d %s\n", id, resp.StatusCode, body)
			return false
		}
		var snap serve.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return false
		}
		switch snap.State {
		case serve.JobDone:
			lat := time.Since(enq)
			st.checkParity(st.parityKey(snap.Entries), snap.Results, stderr)
			st.mu.Lock()
			// Two pollers can race on the same job (a burst drainer and
			// the final collector); only the one that removes it from
			// the outstanding set gets to count it.
			if _, mine := st.outstanding[id]; mine {
				delete(st.outstanding, id)
				st.sum.JobsDone++
				st.sum.Latencies = append(st.sum.Latencies, lat)
				if snap.Cached {
					st.sum.CacheHits++
				}
			}
			st.mu.Unlock()
			return true
		case serve.JobFailed:
			fmt.Fprintf(stderr, "busencload: job %s failed: %s\n", id, snap.Error)
			st.mu.Lock()
			if _, mine := st.outstanding[id]; mine {
				delete(st.outstanding, id)
				st.sum.ParityErrs++
			}
			st.mu.Unlock()
			return false
		}
	}
	return false
}

// parityKey maps a job's cycle count to the reference stream it ran
// over ("small" has a reference; the burst trace is latency ballast and
// skips the check).
func (st *loadState) parityKey(entries int64) string {
	if entries == st.smallEntries {
		return "small"
	}
	return ""
}

// burstOnce floods the queue with slow jobs to provoke ErrQueueFull.
// Each attempt uses a distinct stride (powers of two — the codecs
// reject anything else) so its cache key differs from every earlier
// round — a cached burst job completes instantly and would never wedge
// the queue. The workers are seeded with slow jobs first, then the
// queue is flooded while they are busy.
func burstOnce(client *http.Client, baseURL, bigDigest string, cfg config, attempt int, st *loadState) {
	extra := fmt.Sprintf("&stride=%d", 1<<attempt)
	submit := func(n, base int) []string {
		var wg sync.WaitGroup
		ids := make(chan string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tenant := fmt.Sprintf("burst%02d", base+i)
				// codes=all deliberately includes the slow scalar-only
				// codecs (adaptive, workzone) so each burst job holds a
				// worker long enough for the flood to pile up behind it.
				if id, ok := evalAsync(client, baseURL, tenant, bigDigest, "all", extra, st); ok {
					ids <- id
				}
			}(i)
		}
		wg.Wait()
		close(ids)
		var out []string
		for id := range ids {
			out = append(out, id)
		}
		return out
	}
	seeded := submit(cfg.workers, 0)
	time.Sleep(100 * time.Millisecond) // let the seeds occupy the workers
	flood := submit(cfg.queueCap+24, cfg.workers)
	// Drain the accepted burst jobs in the background; their terminal
	// states are collected (or counted lost) by collectOutstanding.
	for _, id := range append(seeded, flood...) {
		go pollJob(client, baseURL, "burst", id, nil, st, io.Discard)
	}
}

// collectOutstanding polls every still-untracked job to terminal state;
// anything left afterwards is a lost job.
func collectOutstanding(client *http.Client, baseURL string, codes []string, st *loadState, stderr io.Writer) {
	st.mu.Lock()
	ids := make([]string, 0, len(st.outstanding))
	for id := range st.outstanding {
		ids = append(ids, id)
	}
	st.mu.Unlock()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			pollJob(client, baseURL, "collect", id, codes, st, stderr)
		}(id)
	}
	wg.Wait()
}

// dumpSpans saves the daemon's span flight recorder to a file.
func dumpSpans(client *http.Client, baseURL, path string, stderr io.Writer) {
	resp, body, err := get(client, baseURL+"/spans", "loadgen")
	if err != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "busencload: span dump failed: %v\n", err)
		return
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		fmt.Fprintf(stderr, "busencload: span dump: %v\n", err)
	}
}

// percentiles returns p50/p95/p99 of the collected latencies.
func percentiles(lat []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return at(0.50), at(0.95), at(0.99)
}

// report prints the human latency table (or the JSON summary).
func report(w io.Writer, cfg config, sum *summary) {
	if cfg.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(sum)
		return
	}
	p50, p95, p99 := percentiles(sum.Latencies)
	fmt.Fprintf(w, "busencload: %d tenants for %s against queue-cap %d / %d workers\n",
		cfg.tenants, sum.Elapsed.Round(time.Millisecond), cfg.queueCap, cfg.workers)
	fmt.Fprintf(w, "  %-22s %d\n", "sync evals", sum.SyncEvals)
	fmt.Fprintf(w, "  %-22s %d (of %d accepted)\n", "async jobs done", sum.JobsDone, sum.Accepted)
	fmt.Fprintf(w, "  %-22s %d\n", "uploads accepted", sum.Uploads)
	fmt.Fprintf(w, "  %-22s %d\n", "cache hits", sum.CacheHits)
	fmt.Fprintf(w, "  %-22s %d (retry-after seen: %v)\n", "queue-full 503s", sum.QueueFull503, sum.RetryAfter)
	fmt.Fprintf(w, "  %-22s %d\n", "rate-limited 429s", sum.RateLimited)
	fmt.Fprintf(w, "  %-22s %d\n", "lost jobs", sum.LostJobs)
	fmt.Fprintf(w, "  %-22s %d\n", "parity errors", sum.ParityErrs)
	fmt.Fprintf(w, "  %-22s p50 %s  p95 %s  p99 %s\n", "eval latency",
		p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
	if sum.Elapsed > 0 {
		fmt.Fprintf(w, "  %-22s %.1f evals/s\n", "throughput",
			float64(sum.JobsDone+sum.SyncEvals)/sum.Elapsed.Seconds())
	}
	if sum.Sigtermed {
		fmt.Fprintf(w, "  %-22s drained clean: %v\n", "SIGTERM", sum.DrainedClean)
	}
}
