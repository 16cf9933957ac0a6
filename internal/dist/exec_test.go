package dist

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"busenc/internal/codec"
)

// The exec-path tests run real worker subprocesses by re-executing the
// test binary: TestMain checks BUSENC_DIST_WORKER and, when set, turns
// the process into a protocol worker on stdin/stdout instead of a test
// run. BUSENC_DIST_FAILAFTER carries the fault injection across exec.

const (
	workerEnv    = "BUSENC_DIST_WORKER"
	failAfterEnv = "BUSENC_DIST_FAILAFTER"
)

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		fa, _ := strconv.Atoi(os.Getenv(failAfterEnv))
		if err := ServeWorker(os.Stdin, os.Stdout, WorkerOpts{FailAfter: fa}); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// execSelfSpawner spawns this test binary as a worker process.
// failAfterFor, when non-nil, picks the injected fault per (id, gen).
func execSelfSpawner(t *testing.T, failAfterFor func(id, gen int) int) Spawner {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		env := []string{workerEnv + "=1"}
		if failAfterFor != nil {
			if fa := failAfterFor(id, gen); fa > 0 {
				env = append(env, failAfterEnv+"="+strconv.Itoa(fa))
			}
		}
		return ExecSpawner([]string{self}, env).Spawn(id, gen)
	})
}

// TestSweepExecWorkers: parity through real worker processes — the
// full pipeline of descriptor serialization, state marshaling, mmap
// sharing and frame transport.
func TestSweepExecWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	const width = 32
	s := mixStream(width, 20000, 52)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	res, err := Sweep(path, Opts{
		Workers: 3, Shards: 6, Codecs: specs, Verify: codec.VerifyNone,
		Spawn: execSelfSpawner(t, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, false))
}

// TestDistSmoke is the CI smoke scenario (make dist-smoke): a 3-worker
// sweep over a 2^18-entry trace, one worker killed mid-sweep (exec
// fault injection), the coordinator stopped at a checkpoint, then a
// resumed sweep — whose merged results must be bit-identical to
// codec.Run. The faulted request is two prefix-dependent codecs and
// the five Seeder codecs: its two whole-trace groups leave a worker
// idle, so it plans ten entry shards besides. A last sweep of all
// twelve codecs, one group per worker, must match codec.Run for
// every registered codec.
func TestDistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke in -short mode")
	}
	const width = 32
	s := mixStream(width, 1<<18, 53)
	path := writeBETR(t, s)
	all := AllSpecs(width)
	var specs []CodecSpec
	for _, cs := range all {
		if cs.Name == "t0" || cs.Name == "workzone" || isSeeder(t, cs) {
			specs = append(specs, cs)
		}
	}
	ckpt := filepath.Join(t.TempDir(), "sweep.json")

	// Phase 1: worker 1's first life dies after 2 jobs (retry-once
	// path), and the coordinator itself stops after 7 of 12 jobs.
	opts := Opts{
		Workers: 3, Shards: 12, Codecs: specs, Verify: codec.VerifyNone,
		Checkpoint: ckpt, StopAfter: 7,
		Spawn: execSelfSpawner(t, func(id, gen int) int {
			if id == 1 && gen == 0 {
				return 2
			}
			return 0
		}),
	}
	if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
		t.Fatalf("phase 1: err = %v, want ErrStopped", err)
	}

	// Phase 2: resume with healthy workers; only the remaining shards
	// are priced.
	opts.StopAfter = 0
	opts.Spawn = execSelfSpawner(t, nil)
	res, err := Sweep(path, opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	checkParity(t, res, wantResults(t, s, specs, false))

	// Phase 3: every registered codec, no checkpoint.
	opts.Codecs, opts.Checkpoint = all, ""
	res, err = Sweep(path, opts)
	if err != nil {
		t.Fatalf("all codecs: %v", err)
	}
	checkParity(t, res, wantResults(t, s, all, false))
}
