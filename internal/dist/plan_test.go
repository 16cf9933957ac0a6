package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
func isSeeder(t *testing.T, cs CodecSpec) bool {
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

// TestSweepPlans runs the plan rule over a table of requests: every
// plan stays within the job budget, never starts a prefix-dependent
// codec past entry 0, covers every codec's [0, N) exactly once in entry
// order, and prices to RunFast's results with per-line counting off and
// on — without any seed sweep.
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
		entries          int
		wantJobs, groups int
	}{
		{"all/2x8", 2, 8, all, 6000, 8, 2},
		{"all/1x9", 1, 9, all, 6000, 9, 1},
		{"all/3x7", 3, 7, all, 6000, 7, 3},
		{"all/2x1", 2, 1, all, 6000, 1, 1},
		{"all/4x16", 4, 16, all, 6000, 16, 4},
		{"prefix/2x8", 2, 8, prefix, 6000, 2, 2},
		{"seeders/2x8", 2, 8, seeders, 6000, 8, 0},
		{"workzone/4", 4, 0, byName("workzone"), 6000, 1, 1},
		{"binary/2x8", 2, 8, byName("binary"), 6000, 8, 0},
		{"all/oversplit", 2, 16, all, 37, 16, 2},
		{"all/empty", 2, 8, all, 0, 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mixStream(width, tc.entries, 71)
			path := writeBETR(t, s)
			budget := tc.shards
			if budget <= 0 {
				budget = 4 * tc.workers
			}
			jobs, parts, err := planJobs(tc.specs, tc.workers, budget)
			if err != nil {
				t.Fatal(err)
			}
			plan, cleanup, err := planTrace(path, jobs, parts)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			if len(jobs) != tc.wantJobs || len(jobs) > budget {
				t.Errorf("%d jobs, want %d within a budget of %d", len(jobs), tc.wantJobs, budget)
			}
			groups := 0 // jobs that price a prefix-dependent codec
			covered := make([]int64, len(tc.specs))
			for k, jb := range jobs {
				from, to := plan.span(k)
				grouped := false
				for _, i := range jb.codecs {
					if isSeeder(t, tc.specs[i]) {
						continue
					}
					grouped = true
					if jb.lo != 0 || jb.hi != parts {
						t.Errorf("job %d prices prefix-dependent codec %s over cuts [%d, %d) of %d", k, tc.specs[i].Name, jb.lo, jb.hi, parts)
					}
				}
				if grouped {
					groups++
				}
				for _, i := range jb.codecs {
					if from > 0 && !isSeeder(t, tc.specs[i]) {
						t.Errorf("job %d starts at entry %d with prefix-dependent codec %s", k, from, tc.specs[i].Name)
					}
					if covered[i] != from {
						t.Errorf("codec %s: job %d covers [%d, %d), want it to start at %d", tc.specs[i].Name, k, from, to, covered[i])
					}
					covered[i] = to
				}
			}
			for i, cs := range tc.specs {
				if covered[i] != int64(tc.entries) {
					t.Errorf("codec %s covered up to entry %d of %d", cs.Name, covered[i], tc.entries)
				}
			}
			if groups != tc.groups {
				t.Errorf("%d whole-trace groups, want %d", groups, tc.groups)
			}

			obs.Enable()
			defer obs.Disable()
			tr := obs.EnableTracing(obs.TracerConfig{})
			defer obs.DisableTracing()
			before := obs.Default().Snapshot()
			for _, perLine := range []bool{false, true} {
				res, err := Sweep(path, Opts{
					Workers: tc.workers, Shards: tc.shards, Codecs: tc.specs,
					Verify: codec.VerifySampled, PerLine: perLine, Spawn: InProcSpawner(nil),
				})
				if err != nil {
					t.Fatalf("perLine=%v: %v", perLine, err)
				}
				checkParity(t, res, wantResults(t, s, tc.specs, codec.VerifySampled, perLine))
			}
			snap := obs.Default().Snapshot()
			if _, ok := snap.Counters["dist.seed_sweep.entries"]; ok {
				t.Error("dist.seed_sweep.entries counter recorded")
			}
			if got := snap.Diff(before).Counters["dist.plans"]; got != 2 {
				t.Errorf("dist.plans = %d, want 2", got)
			}
			if got := snap.Gauges["dist.plan.shards"]; got != int64(tc.wantJobs) {
				t.Errorf("dist.plan.shards = %d, want the job count %d", got, tc.wantJobs)
			}
			for _, sp := range tr.Spans() {
				if sp.Name == "dist.seed_sweep" {
					t.Fatal("dist.seed_sweep span recorded")
				}
			}
		})
	}
}

// TestPlanJobsBalance pins the benchmark's plan: twelve codecs, two
// slots, a budget of eight. The prefix-dependent codecs split
// longest-job-first into two whole-trace groups, costliest first, and
// the five Seeder codecs are cut into the six remaining jobs.
func TestPlanJobsBalance(t *testing.T) {
	specs := AllSpecs(32)
	jobs, parts, err := planJobs(specs, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	names := func(jb job) string {
		var out []string
		for _, i := range jb.codecs {
			out = append(out, specs[i].Name)
		}
		return strings.Join(out, "+")
	}
	var got []string
	for _, jb := range jobs {
		got = append(got, fmt.Sprintf("%s[%d,%d)", names(jb), jb.lo, jb.hi))
	}
	seeders := "beach+binary+gray+incxor+offset"
	want := []string{
		"adaptive+businvert+dualt0+dualt0bi[0,6)",
		"t0+t0bi+workzone[0,6)",
	}
	for k := 0; k < 6; k++ {
		want = append(want, fmt.Sprintf("%s[%d,%d)", seeders, k, k+1))
	}
	if parts != 6 || !reflect.DeepEqual(got, want) {
		t.Errorf("plan over %d parts:\n got %v\nwant %v", parts, got, want)
	}
	// A codec the cost table does not know weighs the table's median.
	if m := costOf("no-such-codec"); m != 6.2 {
		t.Errorf("median cost = %v, want 6.2", m)
	}
}

// inflightProbe counts, per worker life, the jobs sent minus the
// results received, and keeps the largest count any life reached. It
// holds every result back until some life has window jobs in flight, or
// until five seconds have passed, so whether a window fills does not
// race how fast a worker prices its first job.
type inflightProbe struct {
	window int
	filled chan struct{} // closed once, by fill
	once   sync.Once
	mu     sync.Mutex
	max    int
}

func newInflightProbe(window int) *inflightProbe {
	p := &inflightProbe{window: window, filled: make(chan struct{})}
	time.AfterFunc(5*time.Second, p.fill)
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
		pt.p.max = max(pt.p.max, pt.n)
		full := pt.n >= pt.p.window
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

// TestWindowBoundsInflight: no worker ever holds more jobs than the
// window, and with sixteen jobs on two slots each window fills. Parity
// with RunFast holds at every window.
func TestWindowBoundsInflight(t *testing.T) {
	const width = 32
	s := mixStream(width, 40000, 72)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	want := wantResults(t, s, specs, codec.VerifyNone, false)
	for _, window := range []int{1, 2, 4} {
		probe := newInflightProbe(window)
		res, err := Sweep(path, Opts{
			Workers: 2, Shards: 16, Codecs: specs, Verify: codec.VerifyNone,
			Window: window, Spawn: probe.wrap(InProcSpawner(nil)),
		})
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		checkParity(t, res, want)
		if probe.max != window {
			t.Errorf("window=%d: a worker held up to %d jobs in flight", window, probe.max)
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

// TestCheckpointRefusesUnplannedJob: a digest-valid result for a job
// the plan does not have fails the resume with an error naming it,
// instead of indexing past the plan.
func TestCheckpointRefusesUnplannedJob(t *testing.T) {
	const width = 16
	s := mixStream(width, 4000, 74)
	path := writeBETR(t, s)
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	opts := Opts{
		Workers: 1, Shards: 4, Codecs: AllSpecs(width), Verify: codec.VerifyNone,
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
