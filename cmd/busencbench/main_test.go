package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"busenc/internal/trace"
)

// TestMain lets the test binary serve as the timed-phase child process.
func TestMain(m *testing.M) {
	if p := os.Getenv(childEnv); p != "" {
		os.Exit(childMain(p, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// syncBuffer collects standard error, which spawned daemons write to
// from their own goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(filepath.Join(repoRoot(t), "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// reports, and setup_s carries the largest end-to-end bound.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	var e2e, layer []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g, want the largest (%g)", setupBound, maxBound)
	}
}

// Every workload runs in smoke mode, both ways, and reports every
// declared metric with its unit and no failed check.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w.name+"/trace"+mode.trace, func(t *testing.T) {
				var stdout bytes.Buffer
				var stderr syncBuffer
				args := []string{"-root", repoRoot(t), "-workload", w.name, "-smoke", "-trace", mode.trace,
					"-out", filepath.Join(t.TempDir(), "run.json")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
						t.Errorf("metric %s = %+v, want unit %s", d.name, v, d.unit)
					}
				}
			})
		}
	}
}

// A corrupted oracle makes every checked operation fail.
func TestCorruptOracleFailsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root := repoRoot(t)
	if err := buildBinaries(root, os.Stderr); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := config{root: root, seed: 1, seconds: 1, smoke: true, corrupt: true}
			rec, err := runWorkload(cfg, w, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Attempted == 0 || rec.Failed != rec.Attempted || rec.Correct {
				t.Errorf("attempted %d, failed %d, correct %v: want every check failed", rec.Attempted, rec.Failed, rec.Correct)
			}
		})
	}
}

// The held-out seed gives different bytes but the same workload shape:
// every in-sequence and data fraction within 0.01 of its target.
func TestGeneratorSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size inputs")
	}
	mux := mipsMux()
	for i := range workloads {
		w := &workloads[i]
		var betr [2][]byte
		for j, seed := range []int64{1, 2} {
			ins := w.inputs(seed, false)
			var buf bytes.Buffer
			all := trace.New("all", ins[0].Width)
			for _, s := range ins {
				if err := trace.WriteBinary(&buf, s); err != nil {
					t.Fatal(err)
				}
				all.Entries = append(all.Entries, s.Entries...)
			}
			betr[j] = buf.Bytes()
			near := func(what string, got, want float64) {
				if math.Abs(got-want) > 0.01 {
					t.Errorf("%s seed %d: %s %.4f, target %.4f", w.name, seed, what, got, want)
				}
			}
			if w.name == "instr-plane" {
				near("in-seq", all.InSeqFraction(4), instrTarget)
				continue
			}
			data := all.DataOnly()
			near("instr in-seq", all.InstrOnly().InSeqFraction(4), mux.Instr.Target)
			near("data in-seq", data.InSeqFraction(4), mux.Data.Target)
			near("data fraction", float64(data.Len())/float64(all.Len()), mux.DataFrac)
		}
		if bytes.Equal(betr[0], betr[1]) {
			t.Errorf("%s: seeds 1 and 2 generate identical inputs", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25}, {[]float64{3, 1, 2}, 1, 3}} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		next         []float64
		higherBetter bool
		want         string
	}{
		{"same runs", base, false, "unchanged"},
		{"within bound", scale(base, 1.05), false, "unchanged"},
		{"slower", scale(base, 1.2), false, "regressed"},
		{"faster", scale(base, 0.8), false, "improved"},
		{"higher is better", scale(base, 1.2), true, "improved"},
		{"spread wider than bound", noisy, false, "unresolved"},
	} {
		if got := verdict(base, c.next, 0.1, c.higherBetter); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
