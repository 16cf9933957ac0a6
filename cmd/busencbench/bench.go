package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/dist"
	"busenc/internal/trace"
	"busenc/internal/workload"
)

// setupRuns fresh set-ups are timed per run; setup_s is their median.
// One set-up alone varies by about 20% on a shared machine, so the
// median needs this many to stay within a few percent.
const setupRuns = 21

// minIters is the fewest timed passes a pricing run may report, so its
// fastest tenth holds at least ten passes.
const minIters = 100

// bench is one workload run's prepared state in the parent process.
type bench struct {
	cfg     config
	w       *workloadDef
	dir     string // .bench_build/run/<workload>: inputs, oracle, stores
	bin     string // built busencd, busencsweep and paper
	streams []*trace.Stream
	paths   []string
	oracles []oracle
	log     io.Writer
}

func binDir(root string) string { return filepath.Join(root, ".bench_build", "bin") }

// buildBinaries builds the program binaries the workloads drive, from
// the checkout's source.
func buildBinaries(root string, log io.Writer) error {
	bin := binDir(root)
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/busencd", "./cmd/busencsweep", "./cmd/paper")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	return cmd.Run()
}

// prepare generates the inputs from the seed, writes them as BETR files
// (which also warms the page cache) and computes the oracle. The traced
// run checks every codec, so its oracle covers them all.
func prepare(cfg config, w *workloadDef, log io.Writer) (*bench, error) {
	b := &bench{cfg: cfg, w: w, dir: filepath.Join(cfg.root, ".bench_build", "run", w.name), bin: binDir(cfg.root), log: log}
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	b.streams = w.inputs(cfg.seed, cfg.smoke)
	var err error
	if b.paths, err = writeInputs(b.dir, b.streams); err != nil {
		return nil, err
	}
	codes := w.codes
	if cfg.trace {
		codes = codec.Names()
	}
	for _, s := range b.streams {
		o, err := computeOracle(s, codes)
		if err != nil {
			return nil, err
		}
		if cfg.corrupt {
			o.corrupt()
		}
		b.oracles = append(b.oracles, o)
	}
	return b, writeJSON(filepath.Join(b.dir, "oracle.json"), b.oracles)
}

// runWorkload runs one workload: the traced run with -trace 1, otherwise
// the fresh set-ups and then the timed phase in a child process.
func runWorkload(cfg config, w *workloadDef, log io.Writer) (record, error) {
	b, err := prepare(cfg, w, log)
	if err != nil {
		return record{}, err
	}
	if cfg.trace {
		return b.traced()
	}
	t := &tally{log: log}
	n := setupRuns
	if cfg.smoke {
		n = 1
	}
	var setups []float64
	for i := 0; i < n; i++ {
		d, err := b.setupOnce()
		t.check(err)
		setups = append(setups, d)
	}
	cr, err := b.runChild()
	if err != nil {
		return record{}, err
	}
	t.attempted += cr.Attempted
	t.failed += cr.Failed
	m := metrics{}
	for name, v := range cr.Metrics {
		m.set(endToEnd, name, v)
	}
	m.set(endToEnd, "setup_s", median(setups))
	return newRecord(cfg, w, t, m, cr.Info), nil
}

// setupOnce times one fresh set-up, from the first program call to the
// first result: a new process (and its workers or daemon) opening the
// trace and pricing it once cold.
func (b *bench) setupOnce() (float64, error) {
	codes := codesArg(b.w.codes)
	switch b.w.kind {
	case kindStream:
		return b.timeCLI(parsePaperTable, filepath.Join(b.bin, "paper"),
			"-trace", b.paths[0], "-stream", "-codes", codes)
	case kindSweep:
		return b.timeCLI(parseSweepJSON, filepath.Join(b.bin, "busencsweep"),
			"-trace", b.paths[0], "-workers", strconv.Itoa(sweepWorkers), "-shards", strconv.Itoa(sweepShards),
			"-codes", codes, "-json")
	}
	return b.serveSetup()
}

// codesArg is the -codes / codes= spelling of a codec list.
func codesArg(codes []string) string {
	if strings.Join(codes, ",") == strings.Join(codec.Names(), ",") {
		return "all"
	}
	return strings.Join(codes, ",")
}

func (b *bench) timeCLI(parse func([]byte) ([]codec.Result, error), argv ...string) (float64, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, b.log
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0).Seconds()
	if err != nil {
		return d, fmt.Errorf("%s: %v", filepath.Base(argv[0]), err)
	}
	res, err := parse(out.Bytes())
	if err != nil {
		return d, err
	}
	return d, b.oracles[0].check(res, b.w.codes)
}

var paperRefs = regexp.MustCompile(`: (\d+) references,`)

// parsePaperTable reads cmd/paper -trace output: a header line with the
// reference count, then one row per codec (code, bus lines, transitions,
// per cycle, savings).
func parsePaperTable(out []byte) ([]codec.Result, error) {
	m := paperRefs.FindSubmatch(out)
	if m == nil {
		return nil, fmt.Errorf("paper: no reference count in %q", out)
	}
	entries, _ := strconv.ParseInt(string(m[1]), 10, 64)
	known := map[string]bool{}
	for _, n := range codec.Names() {
		known[n] = true
	}
	var res []codec.Result
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || !known[f[0]] {
			continue
		}
		tr, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("paper: row %q: %v", line, err)
		}
		res = append(res, codec.Result{Codec: f[0], Transitions: tr, Cycles: entries})
	}
	return res, nil
}

func parseSweepJSON(out []byte) ([]codec.Result, error) {
	var res []codec.Result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("busencsweep -json: %v", err)
	}
	return res, nil
}

// evaluateFile is the cmd/paper -trace -stream path: open the trace and
// price every codec in one streaming fan-out pass.
func evaluateFile(path string, codes []string) ([]codec.Result, error) {
	r, closer, err := trace.OpenFile(path, nil)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return core.EvaluateStreaming(r, r.Width(), codes, core.DefaultOptions,
		core.FanoutConfig{Verify: codec.VerifySampled})
}

// sweepFile is the busencsweep path: a distributed sweep over
// sweepWorkers workers and sweepShards shards.
func sweepFile(path string, codes []string, spawn dist.Spawner) ([]codec.Result, error) {
	specs := make([]dist.CodecSpec, len(codes))
	for i, name := range codes {
		specs[i] = dist.CodecSpec{Name: name, Width: workload.Width, Stride: core.Stride}
	}
	return dist.Sweep(path, dist.Opts{
		Workers: sweepWorkers, Shards: sweepShards, Codecs: specs,
		Verify: codec.VerifySampled, Spawn: spawn,
	})
}

func workerSpawner(bin string) dist.Spawner {
	return dist.ExecSpawner([]string{filepath.Join(bin, "busencsweep"), "-worker"}, nil)
}

// childEnv carries the timed phase's parameters to the child process.
const childEnv = "BUSENCBENCH_CHILD"

type childParams struct {
	Workload string   `json:"workload"`
	Dir      string   `json:"dir"`
	Bin      string   `json:"bin"`
	Paths    []string `json:"paths"`
	Entries  int      `json:"entries"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Smoke    bool     `json:"smoke"`
}

type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]float64 `json:"info"`
}

// runChild runs the timed phase in a fresh process, away from the
// inputs and oracle this process holds.
func (b *bench) runChild() (childResult, error) {
	var cr childResult
	self, err := os.Executable()
	if err != nil {
		return cr, err
	}
	p, err := json.Marshal(childParams{
		Workload: b.w.name, Dir: b.dir, Bin: b.bin, Paths: b.paths, Entries: b.streams[0].Len(),
		Seed: b.cfg.seed, Seconds: b.cfg.seconds, Smoke: b.cfg.smoke,
	})
	if err != nil {
		return cr, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(p))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, b.log
	if err := cmd.Run(); err != nil {
		return cr, fmt.Errorf("timed phase: %v", err)
	}
	if err := json.Unmarshal(out.Bytes(), &cr); err != nil {
		return cr, fmt.Errorf("timed phase output: %v", err)
	}
	return cr, nil
}

// Resident-set peaks come from /proc: VmHWM is a process's peak since it
// started or since clear_refs last reset it, so a peak per iteration (or
// per second of traffic) is exact and cheap. The rusage maximum is not
// usable: for a process started by exec it also counts the parent's peak
// at the time of the exec.

func procFile(pid int, name string) string {
	if pid == 0 {
		return "/proc/self/" + name
	}
	return fmt.Sprintf("/proc/%d/%s", pid, name)
}

// peakMB returns process pid's VmHWM in MB; pid 0 is this process.
func peakMB(pid int) (float64, error) {
	data, err := os.ReadFile(procFile(pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", procFile(pid, "status"))
}

// resetPeak restarts process pid's VmHWM from its current resident set.
func resetPeak(pid int) error {
	return os.WriteFile(procFile(pid, "clear_refs"), []byte("5"), 0)
}

// childMain is the timed phase, run in the child process.
func childMain(param string, stdout, stderr io.Writer) int {
	var p childParams
	if err := json.Unmarshal([]byte(param), &p); err != nil {
		fmt.Fprintln(stderr, "busencbench: child parameters:", err)
		return 1
	}
	w, err := lookupWorkload(p.Workload)
	if err != nil {
		fmt.Fprintln(stderr, "busencbench:", err)
		return 1
	}
	var oracles []oracle
	if err := readJSON(filepath.Join(p.Dir, "oracle.json"), &oracles); err != nil {
		fmt.Fprintln(stderr, "busencbench:", err)
		return 1
	}
	t := &tally{log: stderr}
	var cr childResult
	switch w.kind {
	case kindStream:
		cr, err = timedPricing(p, t, func() error {
			res, err := evaluateFile(p.Paths[0], w.codes)
			if err != nil {
				return err
			}
			return oracles[0].check(res, w.codes)
		})
	case kindSweep:
		spawn := workerSpawner(p.Bin)
		cr, err = timedPricing(p, t, func() error {
			res, err := sweepFile(p.Paths[0], w.codes, spawn)
			if err != nil {
				return err
			}
			return oracles[0].check(res, w.codes)
		})
	default:
		cr, err = timedServe(p, oracles, t, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "busencbench:", err)
		return 1
	}
	cr.Attempted, cr.Failed = t.attempted, t.failed
	if err := json.NewEncoder(stdout).Encode(cr); err != nil {
		fmt.Fprintln(stderr, "busencbench:", err)
		return 1
	}
	return 0
}

// timedPricing is a closed loop: one caller runs op back to back, after
// one untimed warm-up call, until the run length has passed and at least
// minIters calls were timed, but never past twice the run length.
// latency_ms is the fastest tenth of the calls, the time one pass takes
// while the machine is quiet: on a shared machine the median and tail
// move by 10-20% between runs of identical code. peak_rss_mb is the
// median over calls of this process's peak during the call.
func timedPricing(p childParams, t *tally, op func() error) (childResult, error) {
	t.check(op())
	least := minIters
	if p.Smoke {
		least = 1
	}
	d := time.Duration(p.Seconds) * time.Second
	var ds, peaks []float64
	for start, el := time.Now(), time.Duration(0); (el < d || len(ds) < least) && el < 2*d; el = time.Since(start) {
		if err := resetPeak(0); err != nil {
			return childResult{}, err
		}
		t0 := time.Now()
		err := op()
		ds = append(ds, time.Since(t0).Seconds())
		t.check(err)
		pk, err := peakMB(0)
		if err != nil {
			return childResult{}, err
		}
		peaks = append(peaks, pk)
	}
	return childResult{
		Metrics: map[string]float64{
			"latency_ms":  quantile(ds, 0.1) * 1e3,
			"peak_rss_mb": median(peaks),
		},
		Info: map[string]float64{
			"iterations":    float64(len(ds)),
			"p50_ms":        median(ds) * 1e3,
			"p90_ms":        quantile(ds, 0.9) * 1e3,
			"entries_per_s": float64(p.Entries) / median(ds),
		},
	}, nil
}
