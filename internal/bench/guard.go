package bench

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
)

// Violation is one broken check or malformed record.
type Violation struct {
	Record string  // record name, e.g. "engine"
	Metric string  // checked metric, or "bench", "checks", "baseline", "fresh"
	Old    float64 // committed value or bound (0 when not applicable)
	New    float64 // fresh value
	Msg    string
}

// String renders one error line. The record name always leads, and
// every number prints with fixed 3-decimal formatting so CI logs stay
// column-comparable across runs (no %g magnitude-dependent width).
func (v Violation) String() string {
	if v.Old != 0 || v.New != 0 {
		return fmt.Sprintf("%s: %s: %s (committed %.3f, fresh %.3f)", v.Record, v.Metric, v.Msg, v.Old, v.New)
	}
	return fmt.Sprintf("%s: %s: %s", v.Record, v.Metric, v.Msg)
}

// sameMachine reports whether two records describe comparable
// measurement environments. Unknown identity (zero num_cpu or empty
// go_version on either side) counts as comparable.
func sameMachine(a, b Record) bool {
	if a.NumCPU != 0 && b.NumCPU != 0 && a.NumCPU != b.NumCPU {
		return false
	}
	return a.GoVersion == "" || b.GoVersion == "" || a.GoVersion == b.GoVersion
}

// Compare holds the fresh record against the committed one under the
// committed record's checks. It returns one violation per broken check
// and one note per check that could not bind on the fresh record's
// machine. A wrong bench identity, a check list that differs from the
// committed one, a committed or checked metric missing from the fresh
// record, and a ratio or floor metric that is not positive (the
// producer never filled it) are violations too. Boundaries are
// inclusive: a value exactly on a band or floor passes.
func Compare(name string, old, fresh Record) (vs []Violation, notes []string) {
	fail := func(metric string, was, got float64, format string, args ...any) {
		vs = append(vs, Violation{Record: name, Metric: metric, Old: was, New: got, Msg: fmt.Sprintf(format, args...)})
	}
	if fresh.Bench != old.Bench {
		fail("bench", 0, 0, "bench = %q, want %q", fresh.Bench, old.Bench)
		return vs, notes
	}
	if !slices.Equal(fresh.Checks, old.Checks) {
		fail("checks", 0, 0, "check list differs from the committed record")
	}
	missing := map[string]bool{}
	need := func(m string) {
		if _, ok := fresh.Metrics[m]; !ok {
			missing[m] = true
		}
	}
	for m := range old.Metrics {
		need(m)
	}
	for _, c := range old.Checks {
		need(c.Metric)
	}
	for _, m := range sortedKeys(missing) {
		fail(m, 0, 0, "missing from the fresh record")
	}

	same := sameMachine(old, fresh)
	for _, c := range old.Checks {
		got := fresh.Metrics[c.Metric]
		if missing[c.Metric] {
			continue
		}
		switch c.Kind {
		case Invariant:
			if got != c.Bound {
				fail(c.Metric, c.Bound, got, "invariant broken: must equal %.3f on every machine", c.Bound)
			}
			continue
		case Ratio, Floor:
		default:
			fail(c.Metric, 0, 0, "unknown check kind %q", c.Kind)
			continue
		}
		if got <= 0 {
			// Reported once, however many checks share the metric.
			missing[c.Metric] = true
			fail(c.Metric, 0, got, "%s metric must be > 0 (never measured?)", c.Kind)
			continue
		}
		was := old.Metrics[c.Metric]
		switch {
		case fresh.NumCPU < c.MinCPU:
			notes = append(notes, fmt.Sprintf("%s: %s %s skipped: num_cpu=%d (needs >= %d CPUs)",
				name, c.Metric, c.Kind, fresh.NumCPU, c.MinCPU))
		case c.Kind == Floor:
			if got < c.Bound {
				fail(c.Metric, c.Bound, got, "fell below the absolute floor %.3f on a %d-CPU box", c.Bound, fresh.NumCPU)
			}
		case was <= 0:
			fail(c.Metric, was, got, "committed ratio metric must be > 0")
		case !same:
			notes = append(notes, fmt.Sprintf("%s: %s ratio skipped: cross-machine baseline (%d/%s vs %d/%s)",
				name, c.Metric, old.NumCPU, old.GoVersion, fresh.NumCPU, fresh.GoVersion))
		default:
			if limit := was * (1 - c.Bound); got < limit {
				fail(c.Metric, was, got, "dropped more than %.0f%% below the committed record (floor %.3f)", c.Bound*100, limit)
			}
		}
	}
	return vs, notes
}

// Guard compares BENCH_<name>.json in freshDir against the committed
// record in baselineDir for every name in Names. An unreadable or
// malformed file is a violation, not an error: the guard's job is to
// fail loudly, so CI gets one report either way.
func Guard(baselineDir, freshDir string) (vs []Violation, notes []string) {
	for _, name := range Names {
		file := "BENCH_" + name + ".json"
		old, err := Read(filepath.Join(baselineDir, file))
		if err != nil {
			vs = append(vs, Violation{Record: name, Metric: "baseline", Msg: err.Error()})
		}
		fresh, ferr := Read(filepath.Join(freshDir, file))
		if ferr != nil {
			vs = append(vs, Violation{Record: name, Metric: "fresh", Msg: ferr.Error()})
		}
		if err == nil && ferr == nil {
			v, n := Compare(name, old, fresh)
			vs, notes = append(vs, v...), append(notes, n...)
		}
	}
	return vs, notes
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
