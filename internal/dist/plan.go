package dist

import (
	"slices"
	"sort"

	"busenc/internal/codec"
)

// The sweep plan. A job prices a set of codecs over one contiguous
// entry range. A codec whose encoder is a codec.Seeder joins the stream
// anywhere from the two entries before a cut, so it is cut into entry
// shards for free. Every other codec (bus-invert, the T0 family,
// working-zone, adaptive) carries state across the whole prefix: an
// entry shard of one needs the prefix's encoder state, and computing
// that state means running the codec's encoder over the prefix, which
// is nearly all the cost of pricing it. So such a cut can never finish
// before the same codec priced whole on one worker, and the planner
// never makes one (DESIGN §6.4).
//
// A whole-trace job costs one decode of the trace plus the Pricers that
// codec.NewPricers builds for its codecs, so the planner weighs those
// Pricers, not single codecs: a unit is one codec.Groups group under the
// sweep's RunOpts, with one weight (costTable). With J the job budget
// (Opts.Shards) and W the slots (local workers plus TCP peers), the
// prefix-dependent codecs P go into G = min(units of P, W, J)
// whole-trace jobs. Entry shards only fill slots those jobs leave idle:
// when G == W the Seeder codecs F join the whole-trace jobs, and
// otherwise they are cut into J-G entry shards, or join when that
// leaves no shard. The whole-trace jobs balance the units of the codecs
// they price (P, plus F when F joins) longest-job-first, each unit
// whole, so no kernel group is split across jobs. The queue holds the
// whole-trace jobs first, costliest first, then the shards in entry
// order. A plan without shards is one part, which the coordinator reads
// from the trace header alone (coord.go).

// costTable is one sweep shape's balancing weights: the per-entry cost,
// in ns, of each Pricer a job can build. groups weighs a kernel group of
// two or more codecs, whatever its members; alone one delta codec in a
// delta group of one; batch one codec on its batch kernel. A Pricer the
// table does not list weighs the table's median.
//
// The numbers are medians of BenchmarkPricers (bench_test.go), seven
// runs of -benchtime=10x over the 2^20-entry MIPS muxed stream
// busencbench prices, each Pricer alone on one goroutine, on the Pricers
// of commit 940010e, on 2 vCPUs (Xeon) with go1.24.0. A batch weight
// pools every sub-benchmark that prices that Pricer (auto, scalar,
// alone). Decode is left out: every whole-trace job pays it once. The
// weights of Pricers built since (the per-line delta group, a delta
// group of one) scale the weights of the Pricers they replaced by the
// ratio of the two in BenchmarkPricers runs alternated on one box.
type costTable struct {
	groups       map[codec.GroupKind]float64
	alone, batch map[string]float64
}

// sampledCosts weighs sweeps with aggregate counting under
// VerifySampled or VerifyNone: KernelAuto's groups (the "auto" and
// "alone" sub-benchmarks) and KernelScalar's batch kernels ("scalar").
var sampledCosts = costTable{
	groups: map[codec.GroupKind]float64{codec.GroupSeq: 11.5, codec.GroupDelta: 10.7},
	alone:  map[string]float64{"offset": 4.4, "incxor": 5.0},
	batch: map[string]float64{
		"workzone": 20.9, "dualt0bi": 8.1, "adaptive": 6.8, "t0bi": 6.7,
		"offset": 6.1, "dualt0": 6.0, "incxor": 6.0, "t0": 5.2,
		"gray": 3.9, "businvert": 3.5, "beach": 2.9, "binary": 2.5,
	},
}

// perLineCosts weighs per-line sweeps short of VerifyFull ("perline"):
// the delta group takes every delta codec, so the other Pricers are the
// T0-family group and working-zone's and adaptive's batch kernels.
var perLineCosts = costTable{
	groups: map[codec.GroupKind]float64{codec.GroupSeq: 47.7, codec.GroupDelta: 20.8},
	batch:  map[string]float64{"workzone": 35.5, "adaptive": 24.9},
}

// fullCosts weighs VerifyFull sweeps ("full"), which build no group and
// decode every word, per line or not.
var fullCosts = costTable{
	batch: map[string]float64{
		"workzone": 44.2, "adaptive": 25.7, "t0bi": 25.0, "dualt0bi": 19.4,
		"t0": 19.4, "dualt0": 18.9, "offset": 15.6, "businvert": 15.4,
		"incxor": 14.9, "gray": 14.5, "beach": 11.6, "binary": 11.1,
	},
}

// costsFor returns the weights of a sweep priced under ro.
func costsFor(ro codec.RunOpts) *costTable {
	switch {
	case ro.Verify == codec.VerifyFull:
		return &fullCosts
	case ro.PerLine:
		return &perLineCosts
	}
	return &sampledCosts
}

// cost weighs group g, whose first codec is named first.
func (t *costTable) cost(g codec.Group, first string) float64 {
	var c float64
	var ok bool
	switch {
	case len(g.At) > 1:
		c, ok = t.groups[g.Kind]
	case g.Kind == codec.GroupDelta:
		c, ok = t.alone[first]
	default:
		c, ok = t.batch[first]
	}
	if !ok {
		c = t.median()
	}
	return c
}

// median is the median of every weight in the table.
func (t *costTable) median() float64 {
	var all []float64
	for _, m := range []map[string]float64{t.batch, t.alone} {
		for _, c := range m {
			all = append(all, c)
		}
	}
	for _, c := range t.groups {
		all = append(all, c)
	}
	sort.Float64s(all)
	n := len(all)
	return (all[(n-1)/2] + all[n/2]) / 2
}

// job is one unit of dispatch: the codecs it prices, as ascending
// indices into Opts.Codecs, over the entries between cuts lo and hi of
// the plan's index. A whole-trace job spans every cut, an entry shard
// one.
type job struct {
	codecs []int
	lo, hi int
	units  []unit // the Pricers a whole-trace job was weighed by; none on a shard
}

// unit is one Pricer of a whole-trace job: its codecs, as ascending
// indices into the sweep's codec list, and its weight.
type unit struct {
	codecs []int
	cost   float64
}

// units routes the codecs at members (ascending indices into codecs)
// into the Pricers codec.NewPricers builds for them under ro, and
// weighs each. A job whose codecs are a union of these units builds
// exactly these Pricers: codec.Groups routes each codec by the codecs
// before it, and every unit before it that could take it is whole.
func units(codecs []codec.Codec, members []int, ro codec.RunOpts) ([]unit, error) {
	set := make([]codec.Codec, len(members))
	for i, m := range members {
		set[i] = codecs[m]
	}
	groups, err := codec.Groups(set, ro)
	if err != nil {
		return nil, err
	}
	costs := costsFor(ro)
	out := make([]unit, len(groups))
	for k, g := range groups {
		u := unit{codecs: make([]int, len(g.At)), cost: costs.cost(g, set[g.At[0]].Name())}
		for i, at := range g.At {
			u.codecs[i] = members[at]
		}
		out[k] = u
	}
	return out, nil
}

// planJobs lays out the jobs for specs priced under ro on slots slots
// under a budget of jobs, and returns them with the number of entry
// shards the index must cut (at least 1: a plan of whole-trace jobs only
// still needs the end-of-stream cut). The layout depends only on its
// arguments, so a plan and its digest are deterministic.
func planJobs(specs []CodecSpec, slots, budget int, ro codec.RunOpts) ([]job, int, error) {
	codecs := make([]codec.Codec, len(specs))
	var prefix, free []int
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			return nil, 0, err
		}
		codecs[i] = c
		if _, ok := c.NewEncoder().(codec.Seeder); ok {
			free = append(free, i)
		} else {
			prefix = append(prefix, i)
		}
	}
	pu, err := units(codecs, prefix, ro)
	if err != nil {
		return nil, 0, err
	}
	groups := min(len(pu), slots, budget)
	shards := budget - groups
	if len(free) == 0 || groups == slots {
		shards = 0 // nothing to cut, or no slot left idle for a shard
	}
	if shards == 0 && len(free) > 0 {
		all := make([]int, len(specs)) // the Seeder codecs join: every codec
		for i := range all {
			all[i] = i
		}
		if pu, err = units(codecs, all, ro); err != nil {
			return nil, 0, err
		}
	}
	jobs := balance(pu, groups)
	for k := 0; k < shards; k++ {
		jobs = append(jobs, job{codecs: free, lo: k, hi: k + 1})
	}
	parts := max(shards, 1)
	for k := 0; k < groups; k++ {
		jobs[k].hi = parts
	}
	return jobs, parts, nil
}

// balance spreads us over n whole-trace jobs longest-job-first: each
// unit, costliest first (ties by first codec), joins the job with the
// least cost so far (ties to the lower job). The jobs come back
// costliest first, each listing its codecs in codec order; their ranges
// are left for the caller to set.
func balance(us []unit, n int) []job {
	if n == 0 {
		return nil
	}
	order := slices.Clone(us)
	slices.SortStableFunc(order, func(a, b unit) int {
		if a.cost != b.cost {
			if a.cost > b.cost {
				return -1
			}
			return 1
		}
		return a.codecs[0] - b.codecs[0]
	})
	jobs := make([]job, n)
	load := make([]float64, n)
	for _, u := range order {
		g := 0
		for k := 1; k < n; k++ {
			if load[k] < load[g] {
				g = k
			}
		}
		jobs[g].codecs = append(jobs[g].codecs, u.codecs...)
		jobs[g].units = append(jobs[g].units, u)
		load[g] += u.cost
	}
	byCost := make([]int, n)
	for k := range byCost {
		byCost[k] = k
	}
	sort.SliceStable(byCost, func(a, b int) bool { return load[byCost[a]] > load[byCost[b]] })
	out := make([]job, n)
	for k, g := range byCost {
		out[k] = jobs[g]
		slices.Sort(out[k].codecs)
	}
	return out
}
