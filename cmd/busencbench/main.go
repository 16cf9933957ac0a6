// Command busencbench is busenc's benchmark: four named workloads that
// time address-stream pricing where users reach it (cmd/paper -trace,
// busencsweep, busencd /eval), end to end and layer by layer, against a
// paper-faithful oracle computed with codec.Run.
//
//	busencbench -workload muxed-stream -seed 1 -seconds 22 -trace 0
//	busencbench -workload instr-plane -trace 1 -spans spans.json
//	busencbench -out run.json                  # every workload, appended to run.json
//	busencbench -compare base.json new.json    # verdict per (workload, metric)
//
// Each run generates its inputs from -seed, builds the real busencd,
// busencsweep and paper binaries, computes the oracle, times fresh
// set-ups, and then runs the timed phase in a fresh child process, away
// from the inputs and oracle the parent holds. -trace 1 instead times
// every layer of the program separately on the same inputs. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the exit status is 1 if any result differs from
// the oracle.
//
// Run it through run.sh, which keeps build and run files inside the
// checkout. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	root     string
	workload string // empty: every workload in turn
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	spans    string
	corrupt  bool // test hook: perturb the oracle so every check fails
}

func run(args []string, stdout, stderr io.Writer) int {
	if p := os.Getenv(childEnv); p != "" {
		return childMain(p, stdout, stderr)
	}
	fs := flag.NewFlagSet("busencbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceMode int
	fs.StringVar(&cfg.root, "root", "", "repository root (default: the enclosing busenc module of the working directory)")
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: muxed-stream, instr-plane, muxed-sweep or serve-mixed (default: all)")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; seed 2 is held out for checking claims")
	fs.IntVar(&cfg.seconds, "seconds", 22, "length of the timed phase in seconds")
	fs.IntVar(&traceMode, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs (4096 entries) and a 1 s timed phase, for tests")
	fs.StringVar(&cfg.out, "out", "", "append each run's record to this JSON file")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1: write a Chrome trace-event file of the traced run")
	compare := fs.Bool("compare", false, "compare two -out files: busencbench -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot(cfg.root)
	if err != nil {
		fmt.Fprintln(stderr, "busencbench:", err)
		return 1
	}
	cfg.root = root
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: busencbench -compare base.json new.json")
			return 2
		}
		return runCompare(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || traceMode < 0 || traceMode > 1 || cfg.seconds < 1 {
		fs.Usage()
		return 2
	}
	cfg.trace = traceMode == 1
	if cfg.smoke {
		cfg.seconds = 1
	}
	todo := workloads
	if cfg.workload != "" {
		w, err := lookupWorkload(cfg.workload)
		if err != nil {
			fmt.Fprintln(stderr, "busencbench:", err)
			return 2
		}
		todo = []workloadDef{*w}
	}
	if err := buildBinaries(root, stderr); err != nil {
		fmt.Fprintln(stderr, "busencbench: build:", err)
		return 1
	}

	var recs []record
	for i := range todo {
		rec, err := runWorkload(cfg, &todo[i], stderr)
		if err != nil {
			fmt.Fprintf(stderr, "busencbench: %s: %v\n", todo[i].name, err)
			return 1
		}
		printRecord(stdout, rec)
		recs = append(recs, rec)
	}
	if cfg.out != "" {
		if err := appendRecords(cfg.out, recs); err != nil {
			fmt.Fprintln(stderr, "busencbench:", err)
			return 1
		}
	}
	res := recs[0].result
	if len(recs) > 1 {
		res = combine(recs)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "busencbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot returns dir, or the nearest directory at or above the working
// directory whose go.mod declares module busenc.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module busenc\n") {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no busenc module at or above %s", wd)
		}
	}
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as kept by -out: the result plus its identity and
// the informational numbers behind it.
type record struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	Smoke     bool   `json:"smoke,omitempty"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	result
	Info map[string]float64 `json:"info,omitempty"`
}

// tally counts checked operations and failures, reporting the first few
// failures on standard error.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintln(t.log, "busencbench: check failed:", err)
	}
}

// metrics collects named values against the declared units.
type metrics map[string]metricValue

func (m metrics) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("busencbench: undeclared metric " + name)
}

func newRecord(cfg config, w *workloadDef, t *tally, m metrics, info map[string]float64) record {
	return record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		result: result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m},
		Info:   info,
	}
}

func printRecord(w io.Writer, rec record) {
	mode := "end to end"
	if rec.Trace {
		mode = "per layer"
	}
	fmt.Fprintf(w, "busencbench: %s seed %d, %d s, %s: %d checked, %d failed\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, rec.Attempted, rec.Failed)
	for _, name := range sortedKeys(rec.Metrics) {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	for _, name := range sortedKeys(rec.Info) {
		fmt.Fprintf(w, "  info %-31s %14.6g\n", name, rec.Info[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// combine folds several workloads' results into one, metric names
// prefixed by workload.
func combine(recs []record) result {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range recs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, v := range r.Metrics {
			out.Metrics[r.Workload+"/"+name] = v
		}
	}
	return out
}

// appendRecords adds recs to the JSON array in path, creating it.
func appendRecords(path string, recs []record) error {
	var all []record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(append(all, recs...)); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
