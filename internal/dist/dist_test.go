package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/trace"
)

// mixStream mirrors codec's property-test generator: a blend of
// sequential instruction runs, jumps and random data accesses, so
// every registered code (working-zone and adaptive included) exercises
// real state.
func mixStream(width, n int, seed int64) *trace.Stream {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<width - 1
	s := trace.New("mix", width)
	addr := rng.Uint64() & mask
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			addr = (addr + 4) & mask
			s.Append(addr, trace.Instr)
		case 1:
			addr = rng.Uint64() & mask
			s.Append(addr, trace.Instr)
		case 2:
			s.Append(rng.Uint64()&mask, trace.DataRead)
		default:
			s.Append(rng.Uint64()&mask, trace.DataWrite)
		}
	}
	return s
}

// writeBETR materializes s as a BETR file in a temp dir.
func writeBETR(t testing.TB, s *trace.Stream) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.betr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantResults prices s sequentially with RunFast for every spec — the
// reference every sweep must match bit-for-bit.
func wantResults(t *testing.T, s *trace.Stream, specs []CodecSpec, verify codec.VerifyMode, perLine bool) []codec.Result {
	t.Helper()
	out := make([]codec.Result, len(specs))
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			t.Fatal(err)
		}
		r, err := codec.RunFast(c, s, codec.RunOpts{Verify: verify, PerLine: perLine})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func sameResult(got, want codec.Result) bool {
	if got.Codec != want.Codec || got.Transitions != want.Transitions ||
		got.Cycles != want.Cycles || got.MaxPerCycle != want.MaxPerCycle ||
		len(got.PerLine) != len(want.PerLine) {
		return false
	}
	for i := range got.PerLine {
		if got.PerLine[i] != want.PerLine[i] {
			return false
		}
	}
	return true
}

func checkParity(t *testing.T, got, want []codec.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameResult(got[i], want[i]) {
			t.Errorf("codec %s: dist %+v != sequential %+v", want[i].Codec, got[i], want[i])
		}
	}
}

// countingSpawner wraps a Spawner and records every (id, gen) spawn.
type countingSpawner struct {
	inner  Spawner
	mu     sync.Mutex
	spawns []string
}

func (c *countingSpawner) Spawn(id, gen int) (Transport, error) {
	c.mu.Lock()
	c.spawns = append(c.spawns, fmt.Sprintf("%d:%d", id, gen))
	c.mu.Unlock()
	return c.inner.Spawn(id, gen)
}

// TestSweepParityAllCodecs: a multi-worker multi-shard sweep over
// in-process workers matches RunFast exactly for every registered
// codec, with and without per-line counting.
func TestSweepParityAllCodecs(t *testing.T) {
	const width = 32
	s := mixStream(width, 20000, 41)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	for _, perLine := range []bool{false, true} {
		res, err := Sweep(path, Opts{
			Workers: 3,
			Shards:  7,
			Codecs:  specs,
			Verify:  codec.VerifyNone,
			PerLine: perLine,
			Spawn:   InProcSpawner(nil),
		})
		if err != nil {
			t.Fatalf("perLine=%v: %v", perLine, err)
		}
		checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, perLine))
	}
}

// TestSweepVerifyModes: verification settings ride along to the
// workers without disturbing parity.
func TestSweepVerifyModes(t *testing.T) {
	const width = 24
	s := mixStream(width, 8000, 42)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	for _, v := range []codec.VerifyMode{codec.VerifyFull, codec.VerifySampled} {
		res, err := Sweep(path, Opts{
			Workers: 2, Shards: 5, Codecs: specs, Verify: v,
			Spawn: InProcSpawner(nil),
		})
		if err != nil {
			t.Fatalf("verify=%d: %v", v, err)
		}
		checkParity(t, res, wantResults(t, s, specs, v, false))
	}
}

// TestSweepTextTrace: a text trace is converted once and priced
// identically.
func TestSweepTextTrace(t *testing.T) {
	const width = 16
	s := mixStream(width, 6000, 43)
	path := filepath.Join(t.TempDir(), "trace.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	specs := AllSpecs(width)
	res, err := Sweep(path, Opts{
		Workers: 2, Shards: 4, Codecs: specs, Spawn: InProcSpawner(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyFull, false))
}

// TestSweepTinyStreamOverSplit: a 37-entry stream under a budget of
// 16 is priced correctly, by all codecs in one group per worker and by
// the Seeder codecs in sixteen entry shards, most of them empty.
func TestSweepTinyStreamOverSplit(t *testing.T) {
	const width = 16
	s := mixStream(width, 37, 44)
	path := writeBETR(t, s)
	all := AllSpecs(width)
	_, seeders := splitSpecs(t, all)
	for _, specs := range [][]CodecSpec{all, seeders} {
		res, err := Sweep(path, Opts{
			Workers: 2, Shards: 16, Codecs: specs, Spawn: InProcSpawner(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, res, wantResults(t, s, specs, codec.VerifyFull, false))
	}
}

// TestWorkerDeathRetry: a worker that dies mid-sweep costs nothing but
// a respawn — the orphaned shard is retried once and parity holds.
func TestWorkerDeathRetry(t *testing.T) {
	const width = 32
	s := mixStream(width, 12000, 45)
	path := writeBETR(t, s)
	all := AllSpecs(width)
	_, specs := splitSpecs(t, all)
	// Worker 0's first life dies after pricing 1 job; every other life
	// is healthy. One slot makes the death deterministic: the first life
	// is sent the second of 9 shards of the Seeder codecs once it
	// returns the first, and receiving it trips FailAfter. All twelve
	// codecs plan one job on one slot, so the fault cannot fire there;
	// they still price to RunFast's results.
	failFirst := func(id, gen int) WorkerOpts {
		if id == 0 && gen == 0 {
			return WorkerOpts{FailAfter: 1}
		}
		return WorkerOpts{}
	}
	res, err := Sweep(path, Opts{
		Workers: 1, Shards: 9, Codecs: all, Verify: codec.VerifyNone, Spawn: InProcSpawner(failFirst),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, all, codec.VerifyNone, false))
	sp := &countingSpawner{inner: InProcSpawner(failFirst)}
	res, err = Sweep(path, Opts{
		Workers: 1, Shards: 9, Codecs: specs, Verify: codec.VerifyNone, Spawn: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, false))
	sp.mu.Lock()
	defer sp.mu.Unlock()
	found := false
	for _, sp := range sp.spawns {
		if sp == "0:1" {
			found = true
		}
	}
	if !found {
		t.Errorf("worker 0 was never respawned: spawns %v", sp.spawns)
	}
}

// TestWorkerDeathExhaustsRetries: a shard whose worker keeps dying
// fails the sweep after the retry budget, with an error naming the
// worker.
func TestWorkerDeathExhaustsRetries(t *testing.T) {
	const width = 16
	s := mixStream(width, 4000, 46)
	path := writeBETR(t, s)
	// A slot that can never hold a live worker: every spawn is
	// refused, so the first shard burns its retry budget immediately.
	dead := SpawnerFunc(func(id, gen int) (Transport, error) {
		return nil, errors.New("spawn refused")
	})
	_, seeders := splitSpecs(t, AllSpecs(width))
	_, err := Sweep(path, Opts{
		Workers: 1, Shards: 2, Codecs: seeders, Verify: codec.VerifyNone, Spawn: dead,
	})
	if err == nil || !strings.Contains(err.Error(), "died") || !strings.Contains(err.Error(), "spawn refused") {
		t.Fatalf("err = %v, want worker-death failure naming the spawn error", err)
	}
}

// TestCheckpointResume: stop a sweep partway, then resume it from the
// journal — the second run prices only the missing jobs and total
// results are bit-identical to an uninterrupted run. The Seeder codecs
// plan eight entry shards and stop after three; all twelve codecs plan
// one group per worker and stop after one.
func TestCheckpointResume(t *testing.T) {
	const width = 32
	s := mixStream(width, 16000, 47)
	path := writeBETR(t, s)
	all := AllSpecs(width)
	_, seeders := splitSpecs(t, all)
	for _, tc := range []struct {
		name            string
		specs           []CodecSpec
		stopAfter, jobs int
	}{
		{"seeders", seeders, 3, 8},
		{"all", all, 1, 2},
	} {
		ckpt := filepath.Join(t.TempDir(), "sweep.json")
		opts := Opts{
			Workers: 2, Shards: 8, Codecs: tc.specs, Verify: codec.VerifyNone,
			Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: tc.stopAfter,
		}
		_, err := Sweep(path, opts)
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: first run: err = %v, want ErrStopped", tc.name, err)
		}
		// Resume: drop the stop knob, count the jobs actually priced.
		opts.StopAfter = 0
		jobs := &jobCounter{}
		opts.Spawn = jobs.wrap(InProcSpawner(nil))
		res, err := Sweep(path, opts)
		if err != nil {
			t.Fatalf("%s: resume: %v", tc.name, err)
		}
		checkParity(t, res, wantResults(t, s, tc.specs, codec.VerifyNone, false))
		if n := jobs.count(); n >= tc.jobs {
			t.Errorf("%s: resume priced %d of %d jobs; journal recovery saved nothing", tc.name, n, tc.jobs)
		}
	}
}

// jobCounter counts jobs flowing through wrapped transports.
type jobCounter struct {
	mu sync.Mutex
	n  int
}

func (jc *jobCounter) count() int {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	return jc.n
}

func (jc *jobCounter) wrap(inner Spawner) Spawner {
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		t, err := inner.Spawn(id, gen)
		if err != nil {
			return nil, err
		}
		return &countingTransport{Transport: t, jc: jc}, nil
	})
}

type countingTransport struct {
	Transport
	jc *jobCounter
}

func (ct *countingTransport) Send(m msg) error {
	if m.Type == msgJob {
		ct.jc.mu.Lock()
		ct.jc.n++
		ct.jc.mu.Unlock()
	}
	return ct.Transport.Send(m)
}

// TestCheckpointTornTail: a torn trailing line (the crash case) is
// dropped; the job it described is simply re-priced. The Seeder codecs
// plan four entry shards on one worker and stop after two; all twelve
// codecs plan one group per worker on two and stop after one.
func TestCheckpointTornTail(t *testing.T) {
	const width = 16
	s := mixStream(width, 8000, 48)
	path := writeBETR(t, s)
	all := AllSpecs(width)
	_, seeders := splitSpecs(t, all)
	for _, tc := range []struct {
		name               string
		specs              []CodecSpec
		workers, stopAfter int
	}{
		{"seeders", seeders, 1, 2},
		{"all", all, 2, 1},
	} {
		ckpt := filepath.Join(t.TempDir(), "sweep.json")
		opts := Opts{
			Workers: tc.workers, Shards: 4, Codecs: tc.specs, Verify: codec.VerifyNone,
			Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: tc.stopAfter,
		}
		if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: expected stop", tc.name)
		}
		// Tear the tail: append half a record with no newline.
		f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"type":"done","shard":3,"stats":{"bro`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		opts.StopAfter = 0
		res, err := Sweep(path, opts)
		if err != nil {
			t.Fatalf("%s: resume over torn tail: %v", tc.name, err)
		}
		checkParity(t, res, wantResults(t, s, tc.specs, codec.VerifyNone, false))
	}
}

// TestCheckpointStalePlan: resuming with different sweep parameters is
// refused — the checkpoint carries the plan digest. On one slot only
// Seeder codecs plan more than one job, so only they can stop partway.
func TestCheckpointStalePlan(t *testing.T) {
	const width = 16
	s := mixStream(width, 6000, 49)
	path := writeBETR(t, s)
	_, seeders := splitSpecs(t, AllSpecs(width))
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	opts := Opts{
		Workers: 1, Shards: 4, Codecs: seeders, Verify: codec.VerifyNone,
		Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: 1,
	}
	if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
		t.Fatal("expected stop")
	}
	opts.StopAfter = 0
	opts.Shards = 5 // different plan
	_, err := Sweep(path, opts)
	if err == nil || !strings.Contains(err.Error(), "different plan") {
		t.Fatalf("err = %v, want plan-digest refusal", err)
	}
}

// TestSweepRejectsTrainedCodec: Options.Train cannot cross a process
// boundary and must be refused at spec time, not dropped.
func TestSweepRejectsTrainedCodec(t *testing.T) {
	s := mixStream(16, 100, 50)
	if _, err := SpecFor("beach", 16, codec.Options{Train: s}); err == nil {
		t.Fatal("trained codec accepted")
	}
}

// TestSweepBadSpec: a request the sweep cannot price fails with an
// error naming the codec, before any worker spawns. A codec that cannot
// be constructed fails the plan. A codec named twice is refused: job
// results key statistics by codec name, so in one job the second
// spec's statistics would overwrite the first's.
func TestSweepBadSpec(t *testing.T) {
	s := mixStream(16, 4000, 51)
	path := writeBETR(t, s)
	for _, tc := range []struct {
		name  string
		specs []CodecSpec
		want  string
	}{
		{"unknown codec", []CodecSpec{{Name: "no-such-codec", Width: 16}}, "no-such-codec"},
		{"codec twice", []CodecSpec{{Name: "gray", Width: 16, Stride: 4}, {Name: "gray", Width: 16, Stride: 8}}, "codec gray requested twice"},
	} {
		sp := &countingSpawner{inner: InProcSpawner(nil)}
		res, err := Sweep(path, Opts{Workers: 2, Shards: 4, Codecs: tc.specs, Spawn: sp})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, results %+v; want %q", tc.name, err, res, tc.want)
		}
		if len(sp.spawns) != 0 {
			t.Errorf("%s: refused after spawning %v", tc.name, sp.spawns)
		}
	}
}

// TestSweepCorruptTrace: a corrupt BETR body fails the sweep with the
// positioned error a scan of the file gives, whether the coordinator
// scans it (a plan with entry shards) or only the jobs decode it (a plan
// of whole-trace groups, read from the header alone), through
// in-process and exec workers alike. A header declaring more entries
// than the body can hold is refused before any worker spawns. No case
// returns a table.
func TestSweepCorruptTrace(t *testing.T) {
	const width, n, k = 32, 6000, 3000
	s := mixStream(width, n, 59)
	good, err := os.ReadFile(writeBETR(t, s))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := trace.IndexBETR(good, "", n)
	if err != nil {
		t.Fatal(err)
	}
	hdr, off := int(idx.Cuts[0].Off), int(idx.Cuts[k].Off)
	if off+1-hdr < 2*n {
		t.Fatalf("entry %d starts %d bytes into the body; too early to truncate there", k, off-hdr)
	}
	badKind := slices.Clone(good)
	badKind[off] = 9
	all := AllSpecs(width)
	_, seeders := splitSpecs(t, all)
	spawners := map[string]func() Spawner{"inproc": func() Spawner { return InProcSpawner(nil) }}
	if !testing.Short() {
		spawners["exec"] = func() Spawner { return execSelfSpawner(t, nil) }
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		early   bool   // refused at plan time under either plan
		wantHdr string // the header-only plan's refusal
	}{
		{"bad kind", badKind, false, ""},
		{"truncated entry", good[:off+1], false, ""},
		{"short body", good[:int(idx.Cuts[10].Off)], true, fmt.Sprintf("header declares %d entries", n)},
	} {
		path := filepath.Join(t.TempDir(), "corrupt.betr")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, scanErr := trace.IndexBETR(tc.data, path, 4)
		if scanErr == nil {
			t.Fatalf("%s: the scan accepts the corrupt file", tc.name)
		}
		for sname, spawner := range spawners {
			for _, plan := range []struct {
				name   string
				specs  []CodecSpec
				shards bool
			}{
				{"groups", all, false},
				{"shards", seeders, true},
			} {
				name := fmt.Sprintf("%s/%s/%s", tc.name, plan.name, sname)
				sp := &countingSpawner{inner: spawner()}
				res, err := Sweep(path, Opts{Workers: 2, Shards: 8, Codecs: plan.specs, Verify: codec.VerifyNone, Spawn: sp})
				switch {
				case err == nil || res != nil:
					t.Errorf("%s: err = %v, results %+v; want a failed sweep", name, err, res)
				case tc.early && !plan.shards:
					if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.wantHdr) {
						t.Errorf("%s: err = %v, want %q naming %s", name, err, tc.wantHdr, path)
					}
				case err.Error() != scanErr.Error():
					t.Errorf("%s: err = %v, want the scan's %v", name, err, scanErr)
				}
				spawned := len(sp.spawns) > 0
				if (tc.early || plan.shards) && spawned {
					t.Errorf("%s: refused only after spawning %v", name, sp.spawns)
				}
				if !tc.early && !plan.shards && !spawned {
					t.Errorf("%s: failed before any job ran; a groups-only plan decodes no entry in the coordinator", name)
				}
			}
		}
	}
}

// TestHeartbeatTimeoutRedispatch: a worker that wedges (keeps the
// connection open but answers nothing) is detected by the heartbeat
// timeout; its in-flight shards re-dispatch and parity holds.
func TestHeartbeatTimeoutRedispatch(t *testing.T) {
	const width = 32
	s := mixStream(width, 8000, 55)
	path := writeBETR(t, s)
	all := AllSpecs(width)
	_, specs := splitSpecs(t, all)
	var ns NetStats
	// Worker 0's first life stalls after one job: it reads every frame
	// (so job and ping sends never block) but stops replying, even to
	// pings — the wedged-peer failure mode EOF detection cannot see.
	// It is the only worker slot, so no other worker can drain the
	// queue first: its second job (of 8 shards of the Seeder codecs)
	// always lands on the stalled life. All twelve codecs plan one job
	// on one slot, which the fault never reaches; they still price to
	// RunFast's results.
	stallFirst := func(id, gen int) WorkerOpts {
		if id == 0 && gen == 0 {
			return WorkerOpts{StallAfter: 1}
		}
		return WorkerOpts{}
	}
	opts := Opts{
		Workers: 1, Shards: 8, Codecs: all, Verify: codec.VerifyNone,
		Spawn:             InProcSpawner(stallFirst),
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
	}
	res, err := Sweep(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, all, codec.VerifyNone, false))
	opts.Codecs, opts.Spawn, opts.Net = specs, InProcSpawner(stallFirst), &ns
	res, err = Sweep(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, false))
	if n := ns.HeartbeatTimeouts.Load(); n < 1 {
		t.Errorf("heartbeat timeouts = %d, want >= 1", n)
	}
	if n := ns.Redispatches.Load(); n < 1 {
		t.Errorf("redispatches = %d, want >= 1", n)
	}
}

// doctoringSpawner wraps a Spawner so every transport rewrites the
// stats of job on their way back (see editFirstCodec): a faulty worker
// or peer.
func doctoringSpawner(inner Spawner, job int, edit func(map[string]bus.Stats)) Spawner {
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		t, err := inner.Spawn(id, gen)
		if err != nil {
			return nil, err
		}
		return &doctoringTransport{Transport: t, job: job, edit: edit}, nil
	})
}

type doctoringTransport struct {
	Transport
	job  int
	edit func(map[string]bus.Stats)
}

func (dt *doctoringTransport) Recv() (msg, error) {
	m, err := dt.Transport.Recv()
	if err == nil && m.Type == msgResult && m.Result != nil && m.Result.Shard == dt.job {
		dt.edit(m.Result.Stats)
	}
	return m, err
}

// TestSweepRejectsDoctoredCycles: a worker that reports one cycle too
// many for one codec of one job fails the sweep with an error naming
// that job, instead of merging a wrong table.
func TestSweepRejectsDoctoredCycles(t *testing.T) {
	const width = 32
	s := mixStream(width, 6000, 56)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	jobs, _, err := planJobs(specs, 2, 8, codec.RunOpts{Verify: codec.VerifyNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, len(jobs) - 1} {
		res, err := Sweep(path, Opts{
			Workers: 2, Shards: 8, Codecs: specs, Verify: codec.VerifyNone,
			Spawn: doctoringSpawner(InProcSpawner(nil), k, editFirstCodec(func(st *bus.Stats) { st.Cycles++ })),
		})
		want := fmt.Sprintf("dist: job %d codec ", k)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "cycles") {
			t.Errorf("job %d doctored: err = %v, results %+v; want an error naming %q", k, err, res, want)
		}
	}
}

// closingTransport signals closing before it closes the transport it
// wraps.
type closingTransport struct {
	Transport
	closing chan struct{}
	once    *sync.Once
}

func (ct *closingTransport) Close() error {
	ct.once.Do(func() { close(ct.closing) })
	return ct.Transport.Close()
}

// goroutineID returns the calling goroutine's ID from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// inServeWorker reports which of the goroutines ids still run
// ServeWorker.
func inServeWorker(ids []string) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var alive []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		if slices.Contains(ids, id) && strings.Contains(g, "dist.ServeWorker(") {
			alive = append(alive, id)
		}
	}
	return alive
}

// TestInProcCloseWaitsForWorker: Sweep returns only after every
// in-process worker has exited, so none still reads (or holds mapped)
// the trace a caller may rewrite next. The sweep stops at a checkpoint
// after one job while worker 1 is still inside its own job: its Resolve
// hook holds it there until its transport is being closed, and then for
// a while longer. Close must wait that out; returning at once would
// leave worker 1 running ServeWorker when Sweep returns.
func TestInProcCloseWaitsForWorker(t *testing.T) {
	const width = 16
	path := writeBETR(t, mixStream(width, 4000, 77))
	_, seeders := splitSpecs(t, AllSpecs(width))
	var mu sync.Mutex
	var ids []string
	record := func() {
		mu.Lock()
		ids = append(ids, goroutineID())
		mu.Unlock()
	}
	holding := make(chan struct{})  // worker 1 holds a job
	closing := make(chan struct{})  // the coordinator closes worker 1
	released := make(chan struct{}) // the test is done looking
	defer close(released)
	var once sync.Once
	spawn := SpawnerFunc(func(id, gen int) (Transport, error) {
		resolve := func(ref string) (string, error) {
			record()
			<-holding // price only once worker 1 holds its job
			return ref, nil
		}
		if id == 1 {
			resolve = func(ref string) (string, error) {
				record()
				close(holding)
				<-closing
				select {
				case <-released:
				case <-time.After(200 * time.Millisecond):
				}
				return ref, nil
			}
		}
		tr, err := InProcSpawner(func(int, int) WorkerOpts { return WorkerOpts{Resolve: resolve} }).Spawn(id, gen)
		if err != nil || id != 1 {
			return tr, err
		}
		return &closingTransport{Transport: tr, closing: closing, once: &once}, nil
	})
	_, err := Sweep(path, Opts{
		Workers: 2, Shards: 4, Codecs: seeders, Verify: codec.VerifyNone,
		Checkpoint: filepath.Join(t.TempDir(), "sweep.json"), StopAfter: 1, Spawn: spawn,
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 2 {
		t.Fatalf("%d workers took a job, want 2", len(ids))
	}
	if alive := inServeWorker(ids); len(alive) > 0 {
		t.Errorf("Sweep returned while worker goroutines %v still run ServeWorker", alive)
	}
}
