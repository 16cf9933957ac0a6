package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// verdict classifies one (workload, metric) pair from the runs of a base
// and a changed commit, paired in order. A gain needs the change to win
// at least nine tenths of the pairs and the medians to differ by more
// than the base's own interquartile distance. Otherwise, when either
// side's spread is wider than the bound the pair is unresolved, unless
// every changed run beats every base run; else it regressed when the
// changed median is worse by more than the bound.
func verdict(base, next []float64, bound float64, higherBetter bool) string {
	if len(base) == 0 || len(next) == 0 {
		return "unresolved"
	}
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	wins, pairs := 0, min(len(base), len(next))
	for i := 0; i < pairs; i++ {
		if better(next[i], base[i]) {
			wins++
		}
	}
	mb, mn := median(base), median(next)
	q1, q3 := quartiles(base)
	if wins*10 >= pairs*9 && math.Abs(mn-mb) > q3-q1 {
		return "improved"
	}
	if spread(base) > bound || spread(next) > bound {
		worstNext, bestBase := slices.Max(next), slices.Min(base)
		if higherBetter {
			worstNext, bestBase = slices.Min(next), slices.Max(base)
		}
		if better(worstNext, bestBase) {
			return "unchanged"
		}
		return "unresolved"
	}
	worse := (mn - mb) / mb
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	return "unchanged"
}

// runCompare prints one row per (workload, metric) of two -out files and
// exits 1 if any end-to-end pair regressed. Per-layer rows carry no
// bound and are shown for attribution only.
func runCompare(specPath, basePath, nextPath string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	var base, next []record
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {basePath, &base}, {nextPath, &next}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "busencbench:", err)
			return 1
		}
	}
	values := func(recs []record, workload, metric string, traced bool) []float64 {
		var out []float64
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced && r.Correct {
				out = append(out, v.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tspread\tnew median\tspread\tchange\tverdict")
	row := func(w, name, unit string, b, n []float64, v string) {
		if len(b) == 0 && len(n) == 0 {
			return
		}
		cell := func(xs []float64) (string, string) {
			if len(xs) == 0 {
				return "-", "-"
			}
			return fmt.Sprintf("%.6g", median(xs)), fmt.Sprintf("%.1f%%", spread(xs)*100)
		}
		bm, bs := cell(b)
		nm, ns := cell(n)
		change := "-"
		if len(b) > 0 && len(n) > 0 {
			change = fmt.Sprintf("%+.1f%%", (median(n)/median(b)-1)*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", w, name, unit, bm, bs, nm, ns, change, v)
	}
	regressed := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := values(base, w.Name, m.Name, false), values(next, w.Name, m.Name, false)
			v := verdict(b, n, m.Bound, m.Better == "higher")
			regressed = regressed || v == "regressed"
			row(w.Name, m.Name, m.Unit, b, n, v)
		}
		for _, m := range spec.PerLayer {
			row(w.Name, m.Name, m.Unit, values(base, w.Name, m.Name, true), values(next, w.Name, m.Name, true), "layer")
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "busencbench:", err)
		return 1
	}
	if regressed {
		return 1
	}
	return 0
}
