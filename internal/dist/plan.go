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
// With J the job budget (Opts.Shards) and W the slots (local workers
// plus TCP peers), the prefix-dependent codecs P go into
// G = min(|P|, W, J) whole-trace groups, balanced longest-job-first by
// encodeCost. Entry shards only fill slots the groups leave idle: when
// G == W the Seeder codecs join the groups, and otherwise they are cut
// into J-G entry shards, or join the groups when that leaves no shard.
// The queue holds the groups first, costliest first, then the shards in
// entry order. A plan without shards is one part, which the coordinator
// reads from the trace header alone (coord.go).

// encodeCost is the relative per-entry cost of pricing each codec, the
// planner's balancing weight: the medians, in ns, of
// codec.encode_ns_per_entry.<codec> over five traced muxed-stream runs
// of cmd/busencbench (run.sh --workload muxed-stream --seed 1 --trace 1)
// at commit 4c16205, on 2 vCPUs with go1.24.0. Each codec is timed
// alone there, on the kernel RunFast picks: the plane path for the plane
// codecs, the batch kernels for the rest. In one job, two or more delta
// codecs (binary, gray, offset, incxor, businvert, beach) share one delta
// group, priced from address deltas with no word encoded, and two or more
// T0-family codecs (t0, t0bi, dualt0, dualt0bi) share one in-sequence
// group's masks (codec.NewPricers), so such a job costs less than the
// table's sum; the table has no weight for either yet.
var encodeCost = map[string]float64{
	"workzone":  24.9,
	"adaptive":  9.7,
	"dualt0bi":  8.5,
	"t0bi":      7.8,
	"dualt0":    7.7,
	"gray":      7.6,
	"incxor":    7.2,
	"offset":    7.0,
	"binary":    6.8,
	"t0":        6.7,
	"businvert": 6.1,
	"beach":     5.8,
}

// medianCost is what a codec missing from encodeCost weighs.
var medianCost = func() float64 {
	costs := make([]float64, 0, len(encodeCost))
	for _, c := range encodeCost {
		costs = append(costs, c)
	}
	sort.Float64s(costs)
	n := len(costs)
	return (costs[(n-1)/2] + costs[n/2]) / 2
}()

func costOf(name string) float64 {
	if c, ok := encodeCost[name]; ok {
		return c
	}
	return medianCost
}

// job is one unit of dispatch: the codecs it prices, as ascending
// indices into Opts.Codecs, over the entries between cuts lo and hi of
// the plan's index. A whole-trace group spans every cut, an entry shard
// one.
type job struct {
	codecs []int
	lo, hi int
}

// planJobs lays out the jobs for specs on slots slots under a budget of
// jobs, and returns them with the number of entry shards the index must
// cut (at least 1: a plan of groups only still needs the end-of-stream
// cut). The layout depends only on its arguments, so a plan and its
// digest are deterministic.
func planJobs(specs []CodecSpec, slots, budget int) ([]job, int, error) {
	var prefix, free []int
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			return nil, 0, err
		}
		if _, ok := c.NewEncoder().(codec.Seeder); ok {
			free = append(free, i)
		} else {
			prefix = append(prefix, i)
		}
	}
	groups := min(len(prefix), slots, budget)
	shards := budget - groups
	if len(free) == 0 || groups == slots {
		shards = 0 // nothing to cut, or no slot left idle for a shard
	}
	grouped := prefix
	if shards == 0 {
		grouped = append(slices.Clone(prefix), free...)
	}
	jobs := balance(specs, grouped, groups)
	for k := 0; k < shards; k++ {
		jobs = append(jobs, job{codecs: free, lo: k, hi: k + 1})
	}
	parts := max(shards, 1)
	for k := 0; k < groups; k++ {
		jobs[k].hi = parts
	}
	return jobs, parts, nil
}

// balance spreads members over n whole-trace jobs longest-job-first:
// each codec, costliest first (ties in codec order), joins the job with
// the least cost so far (ties to the lower job). The jobs come back
// costliest first, each listing its codecs in codec order; their ranges
// are left for the caller to set.
func balance(specs []CodecSpec, members []int, n int) []job {
	if n == 0 {
		return nil
	}
	order := slices.Clone(members)
	slices.Sort(order)
	sort.SliceStable(order, func(a, b int) bool {
		return costOf(specs[order[a]].Name) > costOf(specs[order[b]].Name)
	})
	jobs := make([]job, n)
	load := make([]float64, n)
	for _, i := range order {
		g := 0
		for k := 1; k < n; k++ {
			if load[k] < load[g] {
				g = k
			}
		}
		jobs[g].codecs = append(jobs[g].codecs, i)
		load[g] += costOf(specs[i].Name)
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
