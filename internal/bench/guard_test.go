package bench

import (
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fixtures returns one healthy record per name, measured on an 8-CPU
// box, declaring the checks its producer declares
// (TestGuardOnCommittedRecords pins them against the committed files).
func fixtures() map[string]Record {
	rec := func(bench string, m map[string]float64, checks ...Check) Record {
		return Record{Bench: bench, NumCPU: 8, GoVersion: "go1.22.1", Metrics: m, Checks: checks}
	}
	ratio := func(m string, bound float64, minCPU int) Check {
		return Check{Metric: m, Kind: Ratio, Bound: bound, MinCPU: minCPU}
	}
	floor := func(m string, bound float64, minCPU int) Check {
		return Check{Metric: m, Kind: Floor, Bound: bound, MinCPU: minCPU}
	}
	inv := func(m string, bound float64) Check { return Check{Metric: m, Kind: Invariant, Bound: bound} }
	return map[string]Record{
		"engine": rec("Table4",
			map[string]float64{"reference_ns": 120e6, "engine_warm_ns": 5e6, "speedup_warm": 24, "parity": 1},
			ratio("speedup_warm", Band, 0), inv("parity", 1)),
		"stream": rec("StreamPipeline",
			map[string]float64{"streaming_ns": 46e6, "speedup_streaming": 1.6, "alloc_ratio": 24, "parity": 1},
			ratio("speedup_streaming", Band, 0), ratio("alloc_ratio", 0.5, 0), inv("parity", 1)),
		"bitslice": rec("Bitslice",
			map[string]float64{"plane_ns": 10e6, "speedup_bitslice": 6, "parity": 1},
			floor("speedup_bitslice", 5, 0), ratio("speedup_bitslice", Band, 0), inv("parity", 1)),
		"dist": rec("DistSweep",
			map[string]float64{"speedup_dist": 2, "parity": 1, "tcp.peers": 2,
				"tcp.parity": 1, "tcp.trace_ship_bytes": 2.2e6, "tcp.dedup_reship_bytes": 0},
			floor("speedup_dist", 1.3, 4), ratio("speedup_dist", Band, 0),
			inv("parity", 1), inv("tcp.parity", 1), inv("tcp.dedup_reship_bytes", 0),
			floor("tcp.trace_ship_bytes", 1, 0)),
		"serve": rec("ServeLoad",
			map[string]float64{"throughput_jps": 104, "parity": 1, "lost_jobs": 0, "jobs_done": 400,
				"p50_ns": 4e6, "p95_ns": 20e6, "p99_ns": 45e6},
			ratio("throughput_jps", Band, 0), inv("parity", 1), inv("lost_jobs", 0),
			floor("jobs_done", 1, 0), floor("p50_ns", 1, 0), floor("p95_ns", 1, 0), floor("p99_ns", 1, 0)),
	}
}

// with returns a copy of r with one metric set to v.
func with(r Record, metric string, v float64) Record {
	r.Metrics = maps.Clone(r.Metrics)
	r.Metrics[metric] = v
	return r
}

// TestGuardPassesOnIdenticalRecords: comparing a record against itself
// must be clean — this is what CI sees when nothing changed.
func TestGuardPassesOnIdenticalRecords(t *testing.T) {
	for name, r := range fixtures() {
		if vs, notes := Compare(name, r, r); len(vs) != 0 || len(notes) != 0 {
			t.Errorf("identical %s records: violations %v, notes %v", name, vs, notes)
		}
	}
}

// TestGuardFailsOnInjected2xSlowdown is the enforcement table: every
// check every record declares, broken by a 2x slowdown (ratio, floor)
// or a flipped invariant, yields exactly one violation on that metric,
// or two where a floor and a band share it.
func TestGuardFailsOnInjected2xSlowdown(t *testing.T) {
	table := []struct {
		record, metric string
		broken         float64
		want           int
	}{
		{"engine", "speedup_warm", 12, 1},
		{"engine", "parity", 0, 1},
		{"stream", "speedup_streaming", 0.8, 1},
		{"stream", "alloc_ratio", 6, 1}, // quartered: half sits on the 2x band's edge
		{"stream", "parity", 0, 1},
		{"bitslice", "speedup_bitslice", 3, 2}, // absolute 5x floor and relative band
		{"bitslice", "parity", 0, 1},
		{"dist", "speedup_dist", 1, 2},
		{"dist", "parity", 0, 1},
		{"dist", "tcp.parity", 0, 1},
		{"dist", "tcp.dedup_reship_bytes", 4096, 1},
		{"dist", "tcp.trace_ship_bytes", 0, 1},
		{"serve", "throughput_jps", 52, 1},
		{"serve", "parity", 0, 1},
		{"serve", "lost_jobs", 2, 1},
		{"serve", "jobs_done", 0, 1},
		{"serve", "p50_ns", 0, 1},
		{"serve", "p95_ns", 0, 1},
		{"serve", "p99_ns", 0, 1},
	}
	fx := fixtures()
	covered := map[string]bool{}
	for _, row := range table {
		covered[row.record+" "+row.metric] = true
		old := fx[row.record]
		vs, notes := Compare(row.record, old, with(old, row.metric, row.broken))
		n := 0
		for _, v := range vs {
			if v.Record == row.record && v.Metric == row.metric {
				n++
			}
		}
		if n != row.want || len(vs) != row.want || len(notes) != 0 {
			t.Errorf("%s %s = %v: violations %v, notes %v; want %d on that metric only",
				row.record, row.metric, row.broken, vs, notes, row.want)
		}
	}
	for name, r := range fx {
		for _, c := range r.Checks {
			if !covered[name+" "+c.Metric] {
				t.Errorf("%s check %+v has no row in the table", name, c)
			}
		}
	}
}

// TestGuardBoundary: boundaries are inclusive — a fresh value exactly on
// a band's or floor's edge passes; the next float below it fails.
func TestGuardBoundary(t *testing.T) {
	for name, r := range fixtures() {
		for _, c := range r.Checks {
			if c.Kind == Invariant {
				continue
			}
			one := r
			one.Checks = []Check{c}
			edge := c.Bound
			if c.Kind == Ratio {
				edge = r.Metrics[c.Metric] * (1 - c.Bound)
			}
			if vs, _ := Compare(name, one, with(one, c.Metric, edge)); len(vs) != 0 {
				t.Errorf("%s %+v: value %v on the edge rejected: %v", name, c, edge, vs)
			}
			below := math.Nextafter(edge, 0)
			if vs, _ := Compare(name, one, with(one, c.Metric, below)); len(vs) != 1 || vs[0].Metric != c.Metric {
				t.Errorf("%s %+v: value %v just below the edge: violations %v", name, c, below, vs)
			}
		}
	}
}

// TestGuardParity: across a machine boundary every ratio band is
// skipped with a cross-machine note, while every invariant still binds.
func TestGuardParity(t *testing.T) {
	for name, old := range fixtures() {
		fresh := old
		fresh.NumCPU = 2
		fresh.Metrics = maps.Clone(old.Metrics)
		var want []string
		for _, c := range old.Checks {
			if c.Kind == Invariant {
				fresh.Metrics[c.Metric] = 1 - c.Bound // flipped
				want = append(want, c.Metric)
			}
		}
		vs, notes := Compare(name, old, fresh)
		var got []string
		for _, v := range vs {
			got = append(got, v.Metric)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s cross-machine with flipped invariants: violations %v, want one on each of %v", name, vs, want)
		}
		for _, c := range old.Checks {
			note := name + ": " + c.Metric + " ratio skipped: cross-machine baseline (8/go1.22.1 vs 2/go1.22.1)"
			if c.Kind == Ratio && !slices.Contains(notes, note) {
				t.Errorf("%s: notes %v, want %q", name, notes, note)
			}
		}
	}
}

// TestGuardBitsliceFloor: the bit-sliced kernel's absolute 5x floor
// binds on any machine, including across a machine boundary where its
// relative band is skipped.
func TestGuardBitsliceFloor(t *testing.T) {
	old := fixtures()["bitslice"]
	fresh := with(old, "speedup_bitslice", 4.9)
	fresh.NumCPU = 4
	vs, notes := Compare("bitslice", old, fresh)
	if len(vs) != 1 || vs[0].Metric != "speedup_bitslice" || !strings.Contains(vs[0].Msg, "floor 5.000") {
		t.Errorf("cross-box 4.9x: violations %v, want the absolute floor only", vs)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "speedup_bitslice ratio skipped: cross-machine baseline") {
		t.Errorf("cross-box 4.9x: notes %v, want the band's skip", notes)
	}
	if vs, _ := Compare("bitslice", old, with(fresh, "speedup_bitslice", 5)); len(vs) != 0 {
		t.Errorf("speedup exactly on the floor rejected: %v", vs)
	}
}

// TestGuardDistFloor: a check with min_cpu set — the dist floor —
// skips with a note on a box below its gate and binds at the gate.
func TestGuardDistFloor(t *testing.T) {
	gated := 0
	for name, r := range fixtures() {
		for _, c := range r.Checks {
			if c.MinCPU == 0 {
				continue
			}
			gated++
			one := r
			one.Checks = []Check{c}
			broken := c.Bound / 2
			if c.Kind == Ratio {
				broken = r.Metrics[c.Metric] / 2
			}
			for _, cpus := range []int{c.MinCPU - 1, c.MinCPU} {
				old := one
				old.NumCPU = cpus
				vs, notes := Compare(name, old, with(old, c.Metric, broken))
				if cpus < c.MinCPU {
					note := name + ": " + c.Metric + " " + string(c.Kind) + " skipped: num_cpu=" + strconv.Itoa(cpus)
					if len(vs) != 0 || len(notes) != 1 || !strings.HasPrefix(notes[0], note) {
						t.Errorf("%s %+v on %d CPUs: violations %v, notes %v; want only %q", name, c, cpus, vs, notes, note)
					}
				} else if len(vs) != 1 || vs[0].Metric != c.Metric || len(notes) != 0 {
					t.Errorf("%s %+v on %d CPUs: violations %v, notes %v; want it to bind", name, c, cpus, vs, notes)
				}
			}
		}
	}
	if gated != 1 {
		t.Errorf("%d gated checks, want 1 (the dist floor)", gated)
	}
}

// TestGuardDistTCP: a fresh dist record without the networked sweep
// fails once per committed tcp.* metric; the checks on those metrics
// do not report them a second time.
func TestGuardDistTCP(t *testing.T) {
	old := fixtures()["dist"]
	fresh := old
	fresh.Metrics = map[string]float64{}
	var tcp []string
	for m, v := range old.Metrics {
		if strings.HasPrefix(m, "tcp.") {
			tcp = append(tcp, m)
		} else {
			fresh.Metrics[m] = v
		}
	}
	sort.Strings(tcp)
	vs, _ := Compare("dist", old, fresh)
	if len(vs) != len(tcp) {
		t.Fatalf("violations %v, want one per missing metric %v", vs, tcp)
	}
	for i, v := range vs {
		if v.Metric != tcp[i] || !strings.Contains(v.Msg, "missing from the fresh record") {
			t.Errorf("violation %d = %v, want %s missing", i, v, tcp[i])
		}
	}
}

// TestGuardServe: a load run that timed nothing — no async job done, no
// latency percentile — breaks each structural floor of the serve
// record once, however good its throughput looks.
func TestGuardServe(t *testing.T) {
	old := fixtures()["serve"]
	fresh := with(old, "throughput_jps", 2*old.Metrics["throughput_jps"])
	for _, m := range []string{"jobs_done", "p50_ns", "p95_ns", "p99_ns"} {
		fresh.Metrics[m] = 0
	}
	vs, _ := Compare("serve", old, fresh)
	var got []string
	for _, v := range vs {
		got = append(got, v.Metric)
	}
	if want := []string{"jobs_done", "p50_ns", "p95_ns", "p99_ns"}; !slices.Equal(got, want) {
		t.Errorf("violations %v, want one each on %v", vs, want)
	}
}

// TestGuardGatedSkipNote: on a 1-CPU box the dist record's CPU-gated
// floor is skipped with a note, while the same record's other checks
// keep binding — the band on the very metric that floor gates
// included.
func TestGuardGatedSkipNote(t *testing.T) {
	old := fixtures()["dist"]
	old.NumCPU = 1
	fresh := with(old, "speedup_dist", 1)
	fresh.Metrics["parity"] = 0
	vs, notes := Compare("dist", old, fresh)
	want := []string{
		"dist: speedup_dist floor skipped: num_cpu=1 (needs >= 4 CPUs)",
	}
	if !slices.Equal(notes, want) {
		t.Errorf("1-CPU notes %v, want %v", notes, want)
	}
	var got []string
	for _, v := range vs {
		if v.Metric != "parity" && !strings.Contains(v.Msg, "below the committed record") {
			t.Errorf("violation %v, want the band, not the skipped floor", v)
		}
		got = append(got, v.Metric)
	}
	if !slices.Equal(got, []string{"speedup_dist", "parity"}) {
		t.Errorf("1-CPU speedup collapse + parity=0: violations %v, want the band and parity", vs)
	}
}

// TestSameMachine: unknown identity counts as comparable; a mismatch in
// either CPU count or toolchain does not.
func TestSameMachine(t *testing.T) {
	cases := []struct {
		oldCPU, freshCPU int
		oldGo, freshGo   string
		want             bool
	}{
		{8, 8, "go1.22.1", "go1.22.1", true},
		{0, 8, "", "go1.22.1", true},
		{8, 0, "go1.22.1", "", true},
		{8, 4, "go1.22.1", "go1.22.1", false},
		{8, 8, "go1.22.1", "go1.23.0", false},
	}
	for _, c := range cases {
		a := Record{NumCPU: c.oldCPU, GoVersion: c.oldGo}
		b := Record{NumCPU: c.freshCPU, GoVersion: c.freshGo}
		if got := sameMachine(a, b); got != c.want {
			t.Errorf("sameMachine(%d/%q, %d/%q) = %v, want %v", c.oldCPU, c.oldGo, c.freshCPU, c.freshGo, got, c.want)
		}
	}
}

// TestGuardMissingField: a malformed fresh or committed record is a
// violation, never a silent pass.
func TestGuardMissingField(t *testing.T) {
	healthy := fixtures()["engine"]
	cases := []struct {
		name       string
		old, fresh func(Record) Record
		metric     string
		msg        string
	}{
		{"missing metric", nil, func(r Record) Record {
			r.Metrics = maps.Clone(r.Metrics)
			delete(r.Metrics, "reference_ns")
			return r
		}, "reference_ns", "missing from the fresh record"},
		{"missing checked metric", nil, func(r Record) Record {
			r.Metrics = maps.Clone(r.Metrics)
			delete(r.Metrics, "speedup_warm")
			return r
		}, "speedup_warm", "missing from the fresh record"},
		{"ratio metric never filled", nil, func(r Record) Record { return with(r, "speedup_warm", 0) },
			"speedup_warm", "must be > 0"},
		{"wrong bench", nil, func(r Record) Record { r.Bench = "StreamPipeline"; return r },
			"bench", `want "Table4"`},
		{"differing check list", nil, func(r Record) Record { r.Checks = r.Checks[:1]; return r },
			"checks", "differs from the committed record"},
		{"committed ratio not positive", func(r Record) Record { return with(r, "speedup_warm", 0) }, nil,
			"speedup_warm", "committed ratio metric must be > 0"},
		{"unknown kind", func(r Record) Record {
			r.Checks = []Check{{Metric: "speedup_warm", Kind: "band", Bound: Band}}
			return r
		}, nil, "speedup_warm", `unknown check kind "band"`},
	}
	for _, c := range cases {
		old, fresh := healthy, healthy
		if c.old != nil {
			old = c.old(old)
			fresh.Checks = old.Checks
		}
		if c.fresh != nil {
			fresh = c.fresh(fresh)
		}
		vs, _ := Compare("engine", old, fresh)
		if len(vs) != 1 || vs[0].Metric != c.metric || !strings.Contains(vs[0].Msg, c.msg) {
			t.Errorf("%s: violations %v, want one on %s saying %q", c.name, vs, c.metric, c.msg)
		}
	}
}

// TestGuardOnCommittedRecords: the records committed at the repository
// root declare exactly the fixtures' checks, pass the guard against
// themselves with only the two 1-CPU skip notes, and fail once a
// slowdown past any binding band is injected.
func TestGuardOnCommittedRecords(t *testing.T) {
	fx := fixtures()
	var notes []string
	for _, name := range Names {
		rec, err := Read(filepath.Join("..", "..", "BENCH_"+name+".json"))
		if err != nil {
			t.Fatalf("committed %s record unreadable: %v", name, err)
		}
		if rec.Bench != fx[name].Bench || !slices.Equal(rec.Checks, fx[name].Checks) {
			t.Errorf("committed %s record declares %q %+v, want %q %+v", name, rec.Bench, rec.Checks, fx[name].Bench, fx[name].Checks)
		}
		vs, ns := Compare(name, rec, rec)
		if len(vs) != 0 {
			t.Errorf("committed %s record fails its own guard: %v", name, vs)
		}
		notes = append(notes, ns...)
		for _, c := range rec.Checks {
			if c.Kind != Ratio || rec.NumCPU < c.MinCPU {
				continue
			}
			slow := with(rec, c.Metric, rec.Metrics[c.Metric]*(1-c.Bound)/2) // half the band's edge
			if vs, _ := Compare(name, rec, slow); len(vs) == 0 {
				t.Errorf("slowdown injected into committed %s %s passed the guard", name, c.Metric)
			}
		}
	}
	want := []string{
		"dist: speedup_dist floor skipped: num_cpu=1 (needs >= 4 CPUs)",
	}
	if !slices.Equal(notes, want) {
		t.Errorf("notes on the committed records:\n%s\nwant:\n%s", strings.Join(notes, "\n"), strings.Join(want, "\n"))
	}
}

// TestGuardDirs: the directory-level entry point reports missing,
// unparsable and old-schema files as violations naming their record,
// and still compares every record it can read.
func TestGuardDirs(t *testing.T) {
	base := filepath.Join("..", "..")
	if vs, notes := Guard(base, base); len(vs) != 0 || len(notes) != 1 {
		t.Errorf("committed records against themselves: violations %v, notes %v", vs, notes)
	}

	empty := t.TempDir()
	for _, dirs := range [][2]string{{base, empty}, {empty, base}} {
		vs, _ := Guard(dirs[0], dirs[1])
		if len(vs) != len(Names) {
			t.Errorf("Guard(%s, %s): %d violations (%v), want one per record", dirs[0], dirs[1], len(vs), vs)
		}
	}

	broken := t.TempDir()
	for _, name := range Names {
		data, err := os.ReadFile(filepath.Join(base, "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		switch name {
		case "engine":
			data = []byte("{")
		case "stream":
			data = []byte(`{"bench": "StreamPipeline", "speedup_streaming": 1.3, "parity": true}`)
		}
		if err := os.WriteFile(filepath.Join(broken, "BENCH_"+name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vs, _ := Guard(base, broken)
	if len(vs) != 2 || vs[0].Record != "engine" || vs[1].Record != "stream" ||
		vs[0].Metric != "fresh" || !strings.Contains(vs[1].Msg, "not a benchmark record") {
		t.Errorf("unparsable engine + old-schema stream record: %v, want one fresh violation each", vs)
	}
}
