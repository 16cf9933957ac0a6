package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"busenc/internal/codec"
	"busenc/internal/serve"
	"busenc/internal/trace"
)

// The serve-mixed traffic: serveTenants tenants over serveConns
// connections from one process; per ten requests one upload of a fresh
// trace, three cache-miss evals and six cache-hit evals. The open-loop
// phase sends on a fixed schedule of serveRate requests per second for
// the first openShare of the run; the closed loop fills the rest.
const (
	serveTenants = 8
	serveConns   = 2
	serveRate    = 400.0
	openShare    = 0.6
	serveMix     = "ummmhhhhhh"
)

// daemon is a spawned busencd on an ephemeral loopback port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	store   string
	drained chan struct{} // closed once the daemon's stdout hits EOF
}

func startDaemon(bin, store string, log io.Writer) (*daemon, error) {
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, "busencd"), "-listen", "127.0.0.1:0", "-store", store)
	cmd.Stdout, cmd.Stderr = w, log
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, store: store, drained: make(chan struct{})}
	banner := make(chan string, 1)
	go func() {
		defer close(d.drained)
		defer r.Close()
		br := bufio.NewReader(r)
		line, _ := br.ReadString('\n')
		banner <- line
		io.Copy(io.Discard, br)
	}()
	select {
	case line := <-banner:
		// "busencd: listening on HOST:PORT (...)"
		if f := strings.Fields(line); len(f) >= 4 && f[1] == "listening" {
			d.addr = f[3]
			return d, nil
		}
		d.stop()
		return nil, fmt.Errorf("busencd: unexpected banner %q", line)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("busencd did not announce its address")
	}
}

// stop kills the daemon, waits for it and removes its store. Kill fails
// only if the daemon already exited, Wait then reports how it ended, and
// a store left behind stays inside .bench_build: none of these changes a
// result.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	<-d.drained
	_ = os.RemoveAll(d.store)
}

type evalKey struct{ digest, codes string }

// subsetCodes are the codecs a cache-miss eval draws its subset from;
// binary always leads the list.
var subsetCodes = func() []string {
	var out []string
	for _, n := range codec.Names() {
		if n != "binary" {
			out = append(out, n)
		}
	}
	return out
}()

// serveLoad issues verified requests against one daemon. Every upload is
// checked against the digest of the bytes sent and the oracle's entry
// count, every eval against the oracle of the trace behind its digest.
type serveLoad struct {
	base   string
	client *http.Client
	traces []*trace.Stream
	oracle []oracle

	mu      sync.Mutex
	rng     *rand.Rand
	digests map[string]int // digest -> index of the trace it holds
	hot     []string       // digests warmed before timing
	fresh   []string       // uploaded, not yet evaluated
	evals   []evalKey      // evaluated, so now cached
	used    map[evalKey]bool
	seq     int
}

func newServeLoad(addr string, traces []*trace.Stream, oracles []oracle, seed int64) *serveLoad {
	return &serveLoad{
		base: "http://" + addr,
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
		traces:  traces,
		oracle:  oracles,
		rng:     rand.New(rand.NewSource(seed)),
		digests: map[string]int{},
		used:    map[evalKey]bool{},
	}
}

func (l *serveLoad) close() { l.client.CloseIdleConnections() }

func (l *serveLoad) do(req *http.Request, tenant string, want int) ([]byte, error) {
	req.Header.Set("X-Tenant", tenant)
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// uploadTrace uploads trace k under a new stream name, so its bytes and
// digest are new to the store, and returns the digest: with an error too
// when the store's reply disagrees with what was sent.
func (l *serveLoad) uploadTrace(k int, name, tenant string) (string, error) {
	var buf bytes.Buffer
	s := l.traces[k]
	if err := trace.WriteBinary(&buf, &trace.Stream{Name: name, Width: s.Width, Entries: s.Entries}); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	req, err := http.NewRequest(http.MethodPost, l.base+"/traces", &buf)
	if err != nil {
		return "", err
	}
	body, err := l.do(req, tenant, http.StatusCreated)
	if err != nil {
		return "", err
	}
	var meta serve.TraceMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		return "", err
	}
	l.mu.Lock()
	l.digests[meta.Digest] = k
	l.mu.Unlock()
	if want := "sha256:" + hex.EncodeToString(sum[:]); meta.Digest != want || meta.Entries != l.oracle[k].Entries {
		return meta.Digest, fmt.Errorf("upload %s: digest %s over %d entries, want %s over %d",
			name, meta.Digest, meta.Entries, want, l.oracle[k].Entries)
	}
	return meta.Digest, nil
}

// eval runs one synchronous /eval and checks it against the oracle. It
// returns the entries answered and whether the daemon's cache served it.
func (l *serveLoad) eval(key evalKey, tenant string) (int64, bool, error) {
	l.mu.Lock()
	k, ok := l.digests[key.digest]
	l.mu.Unlock()
	if !ok {
		return 0, false, fmt.Errorf("eval of unknown digest %s", key.digest)
	}
	req, err := http.NewRequest(http.MethodGet,
		l.base+"/eval?trace="+url.QueryEscape(key.digest)+"&codes="+url.QueryEscape(key.codes), nil)
	if err != nil {
		return 0, false, err
	}
	body, err := l.do(req, tenant, http.StatusOK)
	if err != nil {
		return 0, false, err
	}
	var er serve.EvalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		return 0, false, err
	}
	if err := l.oracle[k].check(er.Results, serve.NormalizeCodes(key.codes)); err != nil {
		return 0, er.Cached, fmt.Errorf("eval %s codes=%s: %v", key.digest, key.codes, err)
	}
	return er.Entries, er.Cached, nil
}

// warm uploads one hot trace per tenant and evaluates each with every
// codec, so the timed phases start with hits available.
func (l *serveLoad) warm(t *tally) {
	for k := 0; k < serveTenants && k < len(l.traces); k++ {
		tenant := fmt.Sprintf("tenant%d", k)
		d, err := l.uploadTrace(k, fmt.Sprintf("hot-%d", k), tenant)
		t.check(err)
		if err != nil {
			continue
		}
		key := evalKey{d, "all"}
		_, _, err = l.eval(key, tenant)
		t.check(err)
		if err == nil {
			l.hot = append(l.hot, d)
			l.used[key] = true
			l.evals = append(l.evals, key)
		}
	}
}

// outcome is one mixed-traffic request.
type outcome struct {
	kind    byte  // 'u' upload, 'm' cache-miss eval, 'h' cache-hit eval
	entries int64 // entries answered by an eval
	cached  bool
	err     error
}

// request issues the i-th request of the mix.
func (l *serveLoad) request(i int) outcome {
	tenant := fmt.Sprintf("tenant%d", i%serveTenants)
	o := outcome{kind: serveMix[i%len(serveMix)]}
	if o.kind == 'u' {
		l.mu.Lock()
		seq := l.seq
		l.seq++
		l.mu.Unlock()
		var d string
		if d, o.err = l.uploadTrace(seq%len(l.traces), fmt.Sprintf("upload-%d", seq), tenant); o.err == nil {
			l.mu.Lock()
			l.fresh = append(l.fresh, d)
			l.mu.Unlock()
		}
		return o
	}
	key, err := l.next(o.kind)
	if err != nil {
		o.err = err
		return o
	}
	o.entries, o.cached, o.err = l.eval(key, tenant)
	if o.kind == 'm' && o.err == nil {
		l.mu.Lock()
		l.evals = append(l.evals, key)
		l.mu.Unlock()
	}
	return o
}

// next picks an eval: for a hit, any evaluation done before; for a miss,
// the oldest fresh upload with every codec, else a hot trace with a
// codec subset not asked for before.
func (l *serveLoad) next(kind byte) (evalKey, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if kind == 'h' {
		if len(l.evals) == 0 {
			return evalKey{}, fmt.Errorf("no evaluation to repeat")
		}
		return l.evals[l.rng.Intn(len(l.evals))], nil
	}
	if len(l.fresh) > 0 {
		d := l.fresh[0]
		l.fresh = l.fresh[1:]
		return evalKey{d, "all"}, nil
	}
	if len(l.hot) == 0 {
		return evalKey{}, fmt.Errorf("no hot trace to evaluate")
	}
	// used also holds the warm-up keys, so this stops a little early
	// rather than searching forever for a subset left to ask for.
	if len(l.used) >= len(l.hot)<<len(subsetCodes) {
		return evalKey{}, fmt.Errorf("every codec subset of the %d hot traces was evaluated", len(l.hot))
	}
	for {
		codes := []string{"binary"}
		mask := l.rng.Intn(1 << len(subsetCodes))
		for j, n := range subsetCodes {
			if mask&(1<<j) != 0 {
				codes = append(codes, n)
			}
		}
		key := evalKey{l.hot[l.rng.Intn(len(l.hot))], strings.Join(codes, ",")}
		if !l.used[key] {
			l.used[key] = true
			return key, nil
		}
	}
}

// openLoop sends requests first..first+n-1 on a fixed schedule of rate
// per second over serveConns connections. Each request is timed from
// its scheduled send, so a stall also charges the requests queued
// behind it; late is how far behind schedule each send started.
func (l *serveLoad) openLoop(rate float64, d time.Duration, first int) (lat, late []float64, outs []outcome) {
	n := int(rate * d.Seconds())
	lat, late, outs = make([]float64, n), make([]float64, n), make([]outcome, n)
	due := make(chan int, n) // room for the whole schedule: the generator never waits on the daemon
	start := time.Now()
	at := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				late[i] = time.Since(at(i)).Seconds()
				outs[i] = l.request(first + i)
				lat[i] = time.Since(at(i)).Seconds()
			}
		}()
	}
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(at(i)))
		due <- i
	}
	close(due)
	wg.Wait()
	return lat, late, outs
}

// closedLoop runs serveConns callers back to back for d, starting at
// request first.
func (l *serveLoad) closedLoop(d time.Duration, first int) ([]outcome, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]outcome, serveConns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], l.request(int(next.Add(1)-1)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []outcome
	for _, o := range per {
		outs = append(outs, o...)
	}
	return outs, elapsed
}

// timedServe is serve-mixed's timed phase: a daemon spawned by this
// (child) process, the hot set warmed, then the open and closed loops.
func timedServe(p childParams, oracles []oracle, t *tally, log io.Writer) (childResult, error) {
	var cr childResult
	traces := make([]*trace.Stream, len(p.Paths))
	for i, path := range p.Paths {
		r, closer, err := trace.OpenFile(path, nil)
		if err != nil {
			return cr, err
		}
		traces[i], err = trace.ReadAll(r)
		closer.Close()
		if err != nil {
			return cr, err
		}
	}
	d, err := startDaemon(p.Bin, filepath.Join(p.Dir, "store-timed"), log)
	if err != nil {
		return cr, err
	}
	defer d.stop()
	l := newServeLoad(d.addr, traces, oracles, p.Seed)
	defer l.close()
	l.warm(t)

	peaks, stopSampling := samplePeaks(d.cmd.Process.Pid)
	total := time.Duration(p.Seconds) * time.Second
	openD := time.Duration(float64(total) * openShare)
	lat, late, open := l.openLoop(serveRate, openD, 0)
	closed, elapsed := l.closedLoop(total-openD, len(open))
	if err := stopSampling(); err != nil {
		return cr, err
	}

	byKind := map[byte][]float64{}
	for i, o := range open {
		t.check(o.err)
		byKind[o.kind] = append(byKind[o.kind], lat[i])
	}
	var entries int64
	for _, o := range closed {
		t.check(o.err)
		if o.err == nil {
			entries += o.entries
		}
	}
	cr.Metrics = map[string]float64{
		"latency_ms":  median(lat) * 1e3,
		"peak_rss_mb": median(*peaks),
	}
	cr.Info = map[string]float64{
		"open_requests":        float64(len(open)),
		"p99_ms":               quantile(lat, 0.99) * 1e3,
		"late_ms_p99":          quantile(late, 0.99) * 1e3,
		"upload_ms_p50":        median(byKind['u']) * 1e3,
		"miss_ms_p50":          median(byKind['m']) * 1e3,
		"hit_ms_p50":           median(byKind['h']) * 1e3,
		"closed_rps":           float64(len(closed)) / elapsed.Seconds(),
		"closed_entries_per_s": float64(entries) / elapsed.Seconds(),
	}
	return cr, nil
}

// samplePeaks records process pid's resident-set peak once a second,
// resetting it each time, until the returned stop function is called; stop
// takes a last sample and returns the first error met.
func samplePeaks(pid int) (*[]float64, func() error) {
	var peaks []float64
	var err error
	sample := func() {
		var pk float64
		if pk, err = peakMB(pid); err == nil {
			peaks = append(peaks, pk)
			err = resetPeak(pid)
		}
	}
	if err = resetPeak(pid); err != nil {
		return &peaks, func() error { return err }
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for err == nil {
			select {
			case <-stop:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return &peaks, func() error {
		close(stop)
		<-done
		return err
	}
}

// serveSetup is one fresh serve set-up: start a daemon, upload a trace,
// get its first evaluation.
func (b *bench) serveSetup() (float64, error) {
	t0 := time.Now()
	d, err := startDaemon(b.bin, filepath.Join(b.dir, "store-setup"), b.log)
	if err != nil {
		return time.Since(t0).Seconds(), err
	}
	defer d.stop()
	l := newServeLoad(d.addr, b.streams[:1], b.oracles[:1], b.cfg.seed)
	defer l.close()
	digest, err := l.uploadTrace(0, "setup", "tenant0")
	if digest != "" {
		if _, _, eerr := l.eval(evalKey{digest, codesArg(b.w.codes)}, "tenant0"); err == nil {
			err = eerr
		}
	}
	return time.Since(t0).Seconds(), err
}

// serveProbe times the serve layer unloaded, on one trace: n rounds of
// an upload under a fresh name, its first eval (a cache miss) and the
// same eval again (a hit).
func serveProbe(b *bench, s *trace.Stream, o oracle, n int, t *tally) (upload, miss, hit []float64, err error) {
	d, err := startDaemon(b.bin, filepath.Join(b.dir, "store-probe"), b.log)
	if err != nil {
		return nil, nil, nil, err
	}
	defer d.stop()
	l := newServeLoad(d.addr, []*trace.Stream{s}, []oracle{o}, b.cfg.seed)
	defer l.close()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		digest, err := l.uploadTrace(0, fmt.Sprintf("probe-%d", i), "probe")
		upload = append(upload, time.Since(t0).Seconds())
		t.check(err)
		if digest == "" {
			continue
		}
		for _, out := range []*[]float64{&miss, &hit} {
			t0 := time.Now()
			_, _, err := l.eval(evalKey{digest, codesArg(b.w.codes)}, "probe")
			*out = append(*out, time.Since(t0).Seconds())
			t.check(err)
		}
	}
	return upload, miss, hit, nil
}
