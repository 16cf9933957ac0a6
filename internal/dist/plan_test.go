package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// isSeeder reports whether the spec's encoder joins a stream from the
// entries before a cut alone.
func isSeeder(t testing.TB, cs CodecSpec) bool {
	t.Helper()
	c, err := cs.New()
	if err != nil {
		t.Fatal(err)
	}
	_, ok := c.NewEncoder().(codec.Seeder)
	return ok
}

// splitSpecs returns the prefix-dependent and the Seeder specs of all.
func splitSpecs(t *testing.T, all []CodecSpec) (prefix, seeders []CodecSpec) {
	for _, cs := range all {
		if isSeeder(t, cs) {
			seeders = append(seeders, cs)
		} else {
			prefix = append(prefix, cs)
		}
	}
	return prefix, seeders
}

// TestSweepPlans runs the plan rule over a table of requests, each
// planned and swept with per-line counting off and on: every plan stays
// within the job budget, never starts a prefix-dependent codec past
// entry 0, covers every codec's [0, N) exactly once in entry order, and
// prices to RunFast's results without any seed sweep. Each whole-trace
// job's codecs build exactly the Pricers the planner weighed it by, and
// no kernel group is split across jobs (checkGroups). Entry shards
// appear only where the whole-trace jobs leave a slot idle; a plan
// without them is read from the trace header alone. The "full" and
// "scalar" rows sweep under VerifyFull and KernelScalar, which build no
// kernel group, so every prefix-dependent codec is a unit of its own.
func TestSweepPlans(t *testing.T) {
	const width = 32
	all := AllSpecs(width)
	prefix, seeders := splitSpecs(t, all)
	if len(prefix) != 7 || len(seeders) != 5 {
		t.Fatalf("%d prefix-dependent and %d Seeder codecs, want 7 and 5", len(prefix), len(seeders))
	}
	byName := func(names ...string) []CodecSpec {
		var out []CodecSpec
		for _, cs := range all {
			for _, n := range names {
				if cs.Name == n {
					out = append(out, cs)
				}
			}
		}
		return out
	}
	for _, tc := range []struct {
		name             string
		workers, shards  int
		specs            []CodecSpec
		verify           codec.VerifyMode
		kernel           codec.Kernel
		entries          int
		wantJobs, groups int
	}{
		{"all/2x8", 2, 8, all, codec.VerifySampled, codec.KernelAuto, 6000, 2, 2},
		{"all/1x9", 1, 9, all, codec.VerifySampled, codec.KernelAuto, 6000, 1, 1},
		{"all/3x7", 3, 7, all, codec.VerifySampled, codec.KernelAuto, 6000, 3, 3},
		{"all/2x1", 2, 1, all, codec.VerifySampled, codec.KernelAuto, 6000, 1, 1},
		{"all/4x16", 4, 16, all, codec.VerifySampled, codec.KernelAuto, 6000, 4, 4},
		{"all/8x8", 8, 8, all, codec.VerifySampled, codec.KernelAuto, 6000, 8, 4},
		{"all/2x8/full", 2, 8, all, codec.VerifyFull, codec.KernelAuto, 6000, 2, 2},
		{"all/8x8/full", 8, 8, all, codec.VerifyFull, codec.KernelAuto, 6000, 8, 7},
		{"all/2x8/scalar", 2, 8, all, codec.VerifySampled, codec.KernelScalar, 6000, 2, 2},
		{"all/8x8/scalar", 8, 8, all, codec.VerifySampled, codec.KernelScalar, 6000, 8, 7},
		{"prefix/2x8", 2, 8, prefix, codec.VerifySampled, codec.KernelAuto, 6000, 2, 2},
		{"seeders/2x8", 2, 8, seeders, codec.VerifySampled, codec.KernelAuto, 6000, 8, 0},
		{"workzone/4", 4, 0, byName("workzone"), codec.VerifySampled, codec.KernelAuto, 6000, 1, 1},
		{"binary/2x8", 2, 8, byName("binary"), codec.VerifySampled, codec.KernelAuto, 6000, 8, 0},
		{"t0+seeders/2x8", 2, 8, append(byName("t0"), seeders...), codec.VerifySampled, codec.KernelAuto, 6000, 8, 1},
		{"workzone+t0+seeders/3x6", 3, 6, append(byName("t0", "workzone"), seeders...), codec.VerifySampled, codec.KernelAuto, 6000, 6, 2},
		{"all/oversplit", 2, 16, all, codec.VerifySampled, codec.KernelAuto, 37, 2, 2},
		{"seeders/oversplit", 2, 16, seeders, codec.VerifySampled, codec.KernelAuto, 37, 16, 0},
		{"all/empty", 2, 8, all, codec.VerifySampled, codec.KernelAuto, 0, 2, 2},
		{"seeders/empty", 2, 8, seeders, codec.VerifySampled, codec.KernelAuto, 0, 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mixStream(width, tc.entries, 71)
			path := writeBETR(t, s)
			budget := tc.shards
			if budget <= 0 {
				budget = 4 * tc.workers
			}
			obs.Enable()
			defer obs.Disable()
			tr := obs.EnableTracing(obs.TracerConfig{})
			defer obs.DisableTracing()
			for _, perLine := range []bool{false, true} {
				ro := codec.RunOpts{Verify: tc.verify, PerLine: perLine, Kernel: tc.kernel}
				jobs, parts, err := planJobs(tc.specs, tc.workers, budget, ro)
				if err != nil {
					t.Fatal(err)
				}
				checkPlan(t, path, tc.specs, jobs, parts, tc.entries, budget)
				checkGroups(t, tc.specs, jobs, ro)
				if len(jobs) != tc.wantJobs {
					t.Errorf("perLine=%v: %d jobs, want %d", perLine, len(jobs), tc.wantJobs)
				}
				groups := 0 // whole-trace jobs, each weighed by its Pricers
				for _, jb := range jobs {
					if len(jb.units) > 0 {
						groups++
					}
				}
				if groups != tc.groups {
					t.Errorf("perLine=%v: %d whole-trace jobs, want %d", perLine, groups, tc.groups)
				}
				before := obs.Default().Snapshot()
				res, err := Sweep(path, Opts{
					Workers: tc.workers, Shards: tc.shards, Codecs: tc.specs,
					Verify: tc.verify, PerLine: perLine, Kernel: tc.kernel, Spawn: InProcSpawner(nil),
				})
				if err != nil {
					t.Fatalf("perLine=%v: %v", perLine, err)
				}
				checkParity(t, res, wantResults(t, s, tc.specs, tc.verify, perLine))
				snap := obs.Default().Snapshot()
				if got := snap.Gauges["dist.plan.shards"]; got != int64(tc.wantJobs) {
					t.Errorf("perLine=%v: dist.plan.shards = %d, want the job count %d", perLine, got, tc.wantJobs)
				}
				if got := snap.Diff(before).Counters["dist.plans"]; got != 1 {
					t.Errorf("perLine=%v: dist.plans = %d, want 1", perLine, got)
				}
				if _, ok := snap.Counters["dist.seed_sweep.entries"]; ok {
					t.Error("dist.seed_sweep.entries counter recorded")
				}
			}
			for _, sp := range tr.Spans() {
				if sp.Name == "dist.seed_sweep" {
					t.Fatal("dist.seed_sweep span recorded")
				}
			}
		})
	}
}

// checkPlan cuts the trace at path for jobs and holds the plan to the
// rule's invariants: within the budget, no prefix-dependent codec past
// entry 0 or over less than the whole trace, and every codec's
// [0, entries) covered exactly once in entry order.
func checkPlan(t *testing.T, path string, specs []CodecSpec, jobs []job, parts, entries, budget int) {
	t.Helper()
	plan, cleanup, err := planTrace(path, jobs, parts)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if len(jobs) > budget {
		t.Errorf("%d jobs over a budget of %d", len(jobs), budget)
	}
	covered := make([]int64, len(specs))
	for k, jb := range jobs {
		from, to := plan.span(k)
		for _, i := range jb.codecs {
			if !isSeeder(t, specs[i]) && (jb.lo != 0 || jb.hi != parts) {
				t.Errorf("job %d prices prefix-dependent codec %s over cuts [%d, %d) of %d", k, specs[i].Name, jb.lo, jb.hi, parts)
			}
			if covered[i] != from {
				t.Errorf("codec %s: job %d covers [%d, %d), want it to start at %d", specs[i].Name, k, from, to, covered[i])
			}
			covered[i] = to
		}
	}
	for i, cs := range specs {
		if covered[i] != int64(entries) {
			t.Errorf("codec %s covered up to entry %d of %d", cs.Name, covered[i], entries)
		}
	}
}

// checkGroups holds the planner's weights to the Pricers the workers
// build: every whole-trace job (one the planner weighed) builds, under
// ro, exactly the Pricers it was weighed by, and no kernel group of the
// codecs those jobs price together is split across jobs. An entry
// shard is weighed by nothing.
func checkGroups(t *testing.T, specs []CodecSpec, jobs []job, ro codec.RunOpts) {
	t.Helper()
	codecs := make([]codec.Codec, len(specs))
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			t.Fatal(err)
		}
		codecs[i] = c
	}
	// route maps codec.Groups over the codecs at members to lists of
	// indices into specs.
	route := func(members []int) [][]int {
		set := make([]codec.Codec, len(members))
		for i, m := range members {
			set[i] = codecs[m]
		}
		groups, err := codec.Groups(set, ro)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]int, len(groups))
		for k, g := range groups {
			for _, at := range g.At {
				out[k] = append(out[k], members[at])
			}
		}
		return out
	}
	var whole []int // the codecs of every weighed job
	owner := map[int]int{}
	for k, jb := range jobs {
		if len(jb.units) == 0 {
			if jb.hi-jb.lo != 1 {
				t.Errorf("job %d over cuts [%d, %d) was weighed by no Pricer", k, jb.lo, jb.hi)
			}
			continue
		}
		var weighed [][]int
		for _, u := range jb.units {
			weighed = append(weighed, u.codecs)
		}
		built := route(jb.codecs)
		sortLists := func(l [][]int) { slices.SortFunc(l, func(a, b []int) int { return a[0] - b[0] }) }
		sortLists(weighed)
		sortLists(built)
		if !reflect.DeepEqual(built, weighed) {
			t.Errorf("job %d builds Pricers %v, weighed by %v", k, built, weighed)
		}
		for _, i := range jb.codecs {
			owner[i] = k
		}
		whole = append(whole, jb.codecs...)
	}
	slices.Sort(whole)
	for _, g := range route(whole) {
		for _, i := range g[1:] {
			if owner[i] != owner[g[0]] {
				t.Errorf("kernel group %v split: codec %d in job %d, codec %d in job %d", g, g[0], owner[g[0]], i, owner[i])
			}
		}
	}
}

// sweepStream decodes fuzz bytes into a trace of at most 300 entries on
// a 32-bit bus, one entry per byte: in-sequence runs, repeats, jumps
// and data accesses, so every registered code exercises real state.
func sweepStream(data []byte) *trace.Stream {
	s := trace.New("fuzz", 32)
	addr := uint64(0x0040_0000)
	for i, b := range data[:min(len(data), 300)] {
		switch b & 7 {
		case 0, 1, 2:
			addr += 4
			s.Append(addr, trace.Instr)
		case 3:
			s.Append(addr, trace.Instr)
		case 4:
			addr = uint64(b)<<10 ^ uint64(i)<<3
			s.Append(addr, trace.Instr)
		case 5:
			addr ^= uint64(b) << 24
			s.Append(addr, trace.Instr)
		case 6:
			s.Append(0x1000_0000+uint64(b)*0x104, trace.DataRead)
		default:
			s.Append(0x1000_0000+uint64(b)*0x104, trace.DataWrite)
		}
	}
	return s
}

// FuzzSweepPlans is the differential target over the dist plan rule:
// for the fuzzer's trace, codec subset (a bit per codec of AllSpecs),
// slot count (1–4 in-process workers), job budget (0–16, 0 for the
// default) and per-line counting, the plan keeps the invariants
// checkPlan and checkGroups hold it to, and the sweep returns
// codec.Run's Transitions, Cycles, MaxPerCycle and PerLine for every
// codec — whether the plan is whole-trace jobs only, whole-trace jobs
// and entry shards, or entry shards only.
func FuzzSweepPlans(f *testing.F) {
	const width = 32
	all := AllSpecs(width)
	var seeders, t0 uint16
	for i, cs := range all {
		if isSeeder(f, cs) {
			seeders |= 1 << i
		}
		if cs.Name == "t0" {
			t0 = 1 << i
		}
	}
	stream := make([]byte, 200)
	for j := range stream {
		stream[j] = byte(j*37 + 5)
	}
	f.Add(stream, uint16(0xfff), uint8(1), uint8(8), false)   // groups only: one per slot
	f.Add(stream, t0|seeders, uint8(1), uint8(8), true)       // a group and seven shards
	f.Add(stream, seeders, uint8(2), uint8(16), false)        // shards only
	f.Add(stream, uint16(0xfff), uint8(3), uint8(0), true)    // the default budget
	f.Add([]byte{}, uint16(0xfff), uint8(1), uint8(8), true)  // an empty trace
	f.Add(stream[:5], t0|seeders, uint8(3), uint8(16), false) // shorter than the budget
	f.Add(stream[:9], seeders, uint8(0), uint8(1), true)      // one shard on one slot
	f.Fuzz(func(t *testing.T, data []byte, set uint16, rawSlots, rawBudget uint8, perLine bool) {
		var specs []CodecSpec
		for i, cs := range all {
			if set>>i&1 == 1 {
				specs = append(specs, cs)
			}
		}
		if len(specs) == 0 {
			return
		}
		s := sweepStream(data)
		path := writeBETR(t, s)
		slots, budget := 1+int(rawSlots)%4, int(rawBudget)%17
		planned := budget
		if planned == 0 {
			planned = 4 * slots
		}
		ro := codec.RunOpts{Verify: codec.VerifySampled, PerLine: perLine}
		jobs, parts, err := planJobs(specs, slots, planned, ro)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, path, specs, jobs, parts, s.Len(), planned)
		checkGroups(t, specs, jobs, ro)
		if t.Failed() {
			t.FailNow()
		}
		res, err := Sweep(path, Opts{
			Workers: slots, Shards: budget, Codecs: specs,
			Verify: codec.VerifySampled, PerLine: perLine, Spawn: InProcSpawner(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, cs := range specs {
			c, err := cs.New()
			if err != nil {
				t.Fatal(err)
			}
			want, err := codec.Run(c, s)
			if err != nil {
				t.Fatal(err)
			}
			if !perLine {
				want.PerLine = nil
			}
			if !sameResult(res[i], want) {
				t.Fatalf("codec %s on %d slots, budget %d: sweep %+v != codec.Run %+v", cs.Name, slots, budget, res[i], want)
			}
		}
	})
}

// TestPlanJobsBalance pins the plans of the benchmark's request, all
// twelve codecs, under the default options. Its prefix-dependent codecs
// make four Pricers: bus-invert alone, the T0-family group, working-zone
// and adaptive. On two slots with a budget of eight they fill both
// slots, so the Seeder codecs join and the four units of all twelve
// (the delta group with bus-invert, the T0-family group, working-zone,
// adaptive) split longest-job-first into two whole-trace jobs over one
// part. On eight slots the four units leave four slots idle, which four
// Seeder shards fill. On three slots with a budget of seven the four
// units share the three slots.
func TestPlanJobsBalance(t *testing.T) {
	specs := AllSpecs(32)
	names := func(jb job) string {
		var out []string
		for _, i := range jb.codecs {
			out = append(out, specs[i].Name)
		}
		return strings.Join(out, "+")
	}
	layout := func(slots, budget int) (int, []string) {
		t.Helper()
		jobs, parts, err := planJobs(specs, slots, budget, codec.RunOpts{Verify: codec.VerifySampled})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, jb := range jobs {
			got = append(got, fmt.Sprintf("%s[%d,%d)", names(jb), jb.lo, jb.hi))
		}
		return parts, got
	}
	for _, tc := range []struct {
		slots, budget, parts int
		want                 []string
	}{
		{2, 8, 1, []string{
			"adaptive+workzone[0,1)",
			"beach+binary+businvert+dualt0+dualt0bi+gray+incxor+offset+t0+t0bi[0,1)",
		}},
		{8, 8, 4, []string{
			"workzone[0,4)",
			"dualt0+dualt0bi+t0+t0bi[0,4)",
			"adaptive[0,4)",
			"businvert[0,4)",
			"beach+binary+gray+incxor+offset[0,1)",
			"beach+binary+gray+incxor+offset[1,2)",
			"beach+binary+gray+incxor+offset[2,3)",
			"beach+binary+gray+incxor+offset[3,4)",
		}},
		{3, 7, 1, []string{
			"workzone[0,1)",
			"adaptive+beach+binary+businvert+gray+incxor+offset[0,1)",
			"dualt0+dualt0bi+t0+t0bi[0,1)",
		}},
	} {
		parts, got := layout(tc.slots, tc.budget)
		if parts != tc.parts || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%d slots, budget %d: plan over %d parts:\n got %v\nwant %v over %d", tc.slots, tc.budget, parts, got, tc.want, tc.parts)
		}
	}
	// A Pricer a cost table does not list weighs the table's median.
	one := codec.Group{At: []int{0}, Kind: codec.GroupBatch}
	for _, tc := range []struct {
		ro   codec.RunOpts
		want float64
	}{
		{codec.RunOpts{Verify: codec.VerifySampled}, 6.25},
		{codec.RunOpts{Verify: codec.VerifySampled, PerLine: true}, 22.55},
		{codec.RunOpts{Verify: codec.VerifyFull, PerLine: true}, 17.25},
	} {
		if got := costsFor(tc.ro).cost(one, "no-such-codec"); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%+v: an unknown codec weighs %v, want the median %v", tc.ro, got, tc.want)
		}
	}
}

// inflightProbe counts, per worker life, the jobs sent minus the
// results received, and keeps the largest count any life reached and
// the jobs sent in all. It holds every result back until some life has
// two jobs in flight, or until a second has passed, so whether a life
// is sent a second job before its first result does not race how fast
// a worker prices the first.
type inflightProbe struct {
	filled chan struct{} // closed once, by fill
	once   sync.Once
	mu     sync.Mutex
	max    int
	sent   int
}

func newInflightProbe() *inflightProbe {
	p := &inflightProbe{filled: make(chan struct{})}
	time.AfterFunc(time.Second, p.fill)
	return p
}

func (p *inflightProbe) fill() { p.once.Do(func() { close(p.filled) }) }

func (p *inflightProbe) wrap(inner Spawner) Spawner {
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		t, err := inner.Spawn(id, gen)
		if err != nil {
			return nil, err
		}
		return &probedTransport{Transport: t, p: p}, nil
	})
}

type probedTransport struct {
	Transport
	p *inflightProbe
	n int // guarded by p.mu
}

func (pt *probedTransport) Send(m msg) error {
	if m.Type == msgJob {
		pt.p.mu.Lock()
		pt.n++
		pt.p.sent++
		pt.p.max = max(pt.p.max, pt.n)
		full := pt.n >= 2
		pt.p.mu.Unlock()
		if full {
			pt.p.fill()
		}
	}
	return pt.Transport.Send(m)
}

func (pt *probedTransport) Recv() (msg, error) {
	m, err := pt.Transport.Recv()
	if err == nil && m.Type == msgResult {
		<-pt.p.filled
		pt.p.mu.Lock()
		pt.n--
		pt.p.mu.Unlock()
	}
	return m, err
}

// TestOneJobInFlight: dispatch is lock-step, so no worker life ever
// holds more than one job, even while the queue holds more jobs than
// there are slots. Two plans on two slots: sixteen entry shards of the
// Seeder codecs, and working-zone plus the Seeder codecs, one
// whole-trace job and seven shards under the default budget, where the
// slot pricing the whole trace must leave the shards to the other.
// Both price to RunFast's results.
func TestOneJobInFlight(t *testing.T) {
	const width = 32
	s := mixStream(width, 40000, 72)
	path := writeBETR(t, s)
	_, seeders := splitSpecs(t, AllSpecs(width))
	for _, tc := range []struct {
		name   string
		shards int
		specs  []CodecSpec
		jobs   int
	}{
		{"seeders/16", 16, seeders, 16},
		{"workzone+seeders", 0, append([]CodecSpec{{Name: "workzone", Width: width}}, seeders...), 8},
	} {
		probe := newInflightProbe()
		res, err := Sweep(path, Opts{Workers: 2, Shards: tc.shards, Codecs: tc.specs, Spawn: probe.wrap(InProcSpawner(nil))})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkParity(t, res, wantResults(t, s, tc.specs, codec.VerifyFull, false))
		if probe.max != 1 || probe.sent != tc.jobs {
			t.Errorf("%s: %d jobs sent, a worker holding up to %d at once; want %d jobs, one at a time", tc.name, probe.sent, probe.max, tc.jobs)
		}
	}
}

// parentDigest is the plan digest of the state-shipping coordinator
// that preceded job plans: the cut index and the sweep options, with no
// job layout.
func parentDigest(idx *trace.BETRIndex, specs []CodecSpec, verify codec.VerifyMode, perLine bool, kernel codec.Kernel) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(idx)
	enc.Encode(specs)
	enc.Encode([]int{int(verify), int(kernel)})
	enc.Encode(perLine)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCheckpointRefusesParentJournal: a journal the state-shipping
// coordinator wrote is refused, never resumed — whether it carries
// boundary records or only results for the very same trace and
// options, which that coordinator cut into the same entry shards.
func TestCheckpointRefusesParentJournal(t *testing.T) {
	const width = 16
	s := mixStream(width, 4000, 73)
	path := writeBETR(t, s)
	_, seeders := splitSpecs(t, AllSpecs(width))
	data, closer, err := trace.MapBytes(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := trace.IndexBETR(data, path, 4)
	closer.Close()
	if err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf(`{"type":"plan","plan_digest":%q,"trace":%q,"total":4000,"shards":4,"codecs":["beach"]}`,
		parentDigest(idx, seeders, codec.VerifyNone, false, codec.KernelAuto), path)
	stats := map[string]bus.Stats{"beach": {Transitions: 1, Cycles: 1}}
	raw, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		record, want string
	}{
		{`{"type":"boundary","shard":1,"states":{"t0":"AQ=="}}`, `unknown record "boundary"`},
		{fmt.Sprintf(`{"type":"done","shard":1,"stats":%s,"digest":%q}`, raw, statsDigest(stats)), "different plan"},
	} {
		ckpt := filepath.Join(t.TempDir(), "sweep.json")
		if err := os.WriteFile(ckpt, []byte(header+"\n"+tc.record+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Sweep(path, Opts{
			Workers: 1, Shards: 4, Codecs: seeders, Verify: codec.VerifyNone,
			Checkpoint: ckpt, Spawn: InProcSpawner(nil),
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("resume over %s: err = %v, want %q", tc.record, err, tc.want)
		}
	}
}

// TestCheckpointRefusesOtherTrace: a plan of whole-trace groups reads
// only the trace header, so its digest binds the view's byte length
// instead of a scanned end cut. A journal written for one trace is
// refused for another with the same header (name, width, entry count)
// and a different length.
func TestCheckpointRefusesOtherTrace(t *testing.T) {
	const width, n = 16, 4000
	path := writeBETR(t, mixStream(width, n, 75))
	other, err := os.ReadFile(writeBETR(t, mixStream(width, n, 76)))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == int64(len(other)) {
		t.Fatalf("traces of %d and %d bytes (%v), want different lengths", st.Size(), len(other), err)
	}
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	opts := Opts{
		Workers: 2, Shards: 8, Codecs: AllSpecs(width), Verify: codec.VerifyNone,
		Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: 1,
	}
	if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
		t.Fatalf("first run: err = %v, want ErrStopped", err)
	}
	if err := os.WriteFile(path, other, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.StopAfter = 0
	if _, err := Sweep(path, opts); err == nil || !strings.Contains(err.Error(), "different plan") {
		t.Fatalf("resume over another trace: err = %v, want plan-digest refusal", err)
	}
}

// TestCheckpointRefusesUnplannedJob: a digest-valid result for a job
// the plan does not have fails the resume with an error naming it,
// instead of indexing past the plan. On one slot only Seeder codecs
// plan more than one job.
func TestCheckpointRefusesUnplannedJob(t *testing.T) {
	const width = 16
	s := mixStream(width, 4000, 74)
	path := writeBETR(t, s)
	_, seeders := splitSpecs(t, AllSpecs(width))
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	opts := Opts{
		Workers: 1, Shards: 4, Codecs: seeders, Verify: codec.VerifyNone,
		Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: 1,
	}
	if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
		t.Fatalf("first run: err = %v, want ErrStopped", err)
	}
	jr, err := openJournal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]bus.Stats{"binary": {Transitions: 1, Cycles: 1}}
	if err := jr.append(journalRec{Type: recDone, Job: 99, Stats: stats, Digest: statsDigest(stats)}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	opts.StopAfter = 0
	if _, err := Sweep(path, opts); err == nil || !strings.Contains(err.Error(), "result for job 99 of a 4-job plan") {
		t.Fatalf("err = %v, want the unplanned job refused", err)
	}
}
