package main

import (
	"path/filepath"
	"strings"
	"testing"

	"busenc/internal/bench"
)

// repoDir holds the committed records.
var repoDir = filepath.Join("..", "..")

// writeDir copies the committed records into a new directory, applying
// edit[name] to the record of that name on the way.
func writeDir(t *testing.T, edit map[string]func(*bench.Record)) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range bench.Names {
		file := "BENCH_" + name + ".json"
		rec, err := bench.Read(filepath.Join(repoDir, file))
		if err != nil {
			t.Fatal(err)
		}
		if f := edit[name]; f != nil {
			f(&rec)
		}
		if err := bench.Write(filepath.Join(dir, file), rec); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runGuard(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCLIPassesOnIdenticalRecords(t *testing.T) {
	dir := writeDir(t, nil)
	code, out, errOut := runGuard(t, "-baseline", dir, "-fresh", dir)
	if code != 0 {
		t.Fatalf("exit %d on identical records; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "benchguard: ok ("+dir+" vs "+dir+", 5 records, 1 checks skipped)") {
		t.Errorf("pass summary missing:\n%s", out)
	}
}

func TestCLIFailsOnSlowdown(t *testing.T) {
	fresh := writeDir(t, map[string]func(*bench.Record){
		"engine": func(r *bench.Record) { r.Metrics["speedup_warm"] /= 2 },
	})
	code, _, errOut := runGuard(t, "-baseline", repoDir, "-fresh", fresh)
	if code != 1 {
		t.Fatalf("exit %d on 2x slowdown, want 1; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "benchguard: 1 violation(s):\n  engine: speedup_warm:") {
		t.Errorf("violation not named:\n%s", errOut)
	}
}

func TestCLIViolationFormatting(t *testing.T) {
	base := writeDir(t, map[string]func(*bench.Record){
		"engine": func(r *bench.Record) { r.Metrics["speedup_warm"] = 20 },
		"stream": func(r *bench.Record) { r.Metrics["alloc_ratio"] = 32 },
	})
	fresh := writeDir(t, map[string]func(*bench.Record){
		"engine": func(r *bench.Record) { r.Metrics["speedup_warm"] = 7.123456 },
		"stream": func(r *bench.Record) { r.Metrics["alloc_ratio"] = 1 },
	})
	code, _, errOut := runGuard(t, "-baseline", base, "-fresh", fresh)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errOut)
	}
	// Every violation line names its record and prints fixed 3-decimal
	// numbers (no %g scientific or truncated forms).
	for _, want := range []string{
		"\n  engine: speedup_warm: dropped more than 25% below the committed record (floor 15.000) (committed 20.000, fresh 7.123)\n",
		"\n  stream: alloc_ratio: dropped more than 50% below the committed record (floor 16.000) (committed 32.000, fresh 1.000)\n",
	} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut)
		}
	}
}

// TestCLICommittedBand: the band is the committed record's, not a
// flag. A 10% drop passes the committed 25% band and fails once the
// record declares a 5% band.
func TestCLICommittedBand(t *testing.T) {
	slight := func(r *bench.Record) { r.Metrics["speedup_warm"] *= 0.9 }
	fresh := writeDir(t, map[string]func(*bench.Record){"engine": slight})
	if code, _, errOut := runGuard(t, "-baseline", repoDir, "-fresh", fresh); code != 0 {
		t.Fatalf("10%% drop failed the committed 25%% band (exit %d):\n%s", code, errOut)
	}
	tight := func(r *bench.Record) { r.Checks[0].Bound = 0.05 }
	base := writeDir(t, map[string]func(*bench.Record){"engine": tight})
	fresh = writeDir(t, map[string]func(*bench.Record){"engine": func(r *bench.Record) { tight(r); slight(r) }})
	if code, _, errOut := runGuard(t, "-baseline", base, "-fresh", fresh); code != 1 || !strings.Contains(errOut, "more than 5%") {
		t.Errorf("10%% drop passed a committed 5%% band (exit %d):\n%s", code, errOut)
	}
}

// TestCLIServeInvariants: a fresh serve record that lost jobs across
// the drain, or lost parity, fails regardless of throughput; a
// cross-machine throughput drop is a loud skip, not a failure.
func TestCLIServeInvariants(t *testing.T) {
	fresh := writeDir(t, map[string]func(*bench.Record){"serve": func(r *bench.Record) {
		r.Metrics["lost_jobs"] = 1
		r.Metrics["parity"] = 0
		r.Metrics["throughput_jps"] *= 2 // faster, and still must fail
	}})
	code, _, errOut := runGuard(t, "-baseline", repoDir, "-fresh", fresh)
	if code != 1 || !strings.Contains(errOut, "serve: lost_jobs") || !strings.Contains(errOut, "serve: parity") {
		t.Errorf("serve invariant violations not named (exit %d):\n%s", code, errOut)
	}

	cross := writeDir(t, map[string]func(*bench.Record){"serve": func(r *bench.Record) {
		r.NumCPU = 2
		r.Metrics["throughput_jps"] = 1
	}})
	code, out, errOut := runGuard(t, "-baseline", repoDir, "-fresh", cross)
	if code != 0 {
		t.Fatalf("exit %d on a cross-machine serve record, want 0; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "benchguard: note: serve: throughput_jps ratio skipped: cross-machine baseline") {
		t.Errorf("serve skip note missing from stdout:\n%s", out)
	}
}

// TestCLISkipNotesOnOneCPUBox: the committed records, measured on a
// 1-CPU box, pass against themselves, and the checks that cannot bind
// there are announced on stdout — the skip is loud, never silent.
func TestCLISkipNotesOnOneCPUBox(t *testing.T) {
	code, out, errOut := runGuard(t, "-baseline", repoDir, "-fresh", repoDir)
	if code != 0 {
		t.Fatalf("committed records fail against themselves (exit %d):\n%s", code, errOut)
	}
	for _, want := range []string{
		"benchguard: note: dist: speedup_dist floor skipped: num_cpu=1",
		"benchguard: ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

func TestCLIUsageErrors(t *testing.T) {
	if code, _, errOut := runGuard(t); code != 2 || !strings.Contains(errOut, "-fresh") {
		t.Errorf("missing -fresh: exit %d, stderr:\n%s", code, errOut)
	}
	for _, gone := range []string{"-bogus", "-tolerance", "-bitslice-floor"} {
		if code, _, _ := runGuard(t, gone, "1", "-fresh", repoDir); code != 2 {
			t.Errorf("flag %s accepted (exit %d)", gone, code)
		}
	}
}

func TestCLIMissingFreshFiles(t *testing.T) {
	code, _, errOut := runGuard(t, "-baseline", repoDir, "-fresh", t.TempDir())
	if code != 1 {
		t.Fatalf("exit %d with empty fresh dir, want 1", code)
	}
	if !strings.Contains(errOut, "5 violation") {
		t.Errorf("want one violation per missing record:\n%s", errOut)
	}
}
