package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/codec"
)

// resign recomputes the digest of every done record of a journal that
// parses, the way whoever writes a record can, and leaves every other
// line as it was. edit, when non-nil, rewrites the stats of the first
// done record first.
func resign(data []byte, edit func(map[string]bus.Stats)) []byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	for i, line := range lines {
		var rec journalRec
		body := bytes.TrimRight(line, "\r\n")
		if json.Unmarshal(body, &rec) != nil || rec.Type != recDone {
			continue
		}
		if edit != nil {
			edit(rec.Stats)
			edit = nil
		}
		rec.Digest = statsDigest(rec.Stats)
		out, err := json.Marshal(rec)
		if err != nil {
			continue
		}
		lines[i] = append(out, line[len(body):]...)
	}
	return bytes.Join(lines, nil)
}

// editFirstCodec applies f to the stats of the first codec, in name
// order, of a job's result.
func editFirstCodec(f func(*bus.Stats)) func(map[string]bus.Stats) {
	return func(stats map[string]bus.Stats) {
		first := ""
		for name := range stats {
			if first == "" || name < first {
				first = name
			}
		}
		if first == "" {
			return
		}
		st := stats[first]
		f(&st)
		stats[first] = st
	}
}

// TestCheckpointRejectsDoctoredRecord: a done record whose statistics
// were rewritten and re-signed with a fresh digest, so the digest check
// passes, fails the resumed sweep with an error naming the job instead
// of merging a wrong table. The Seeder codecs plan four entry shards on
// one worker, so the first run can stop partway.
func TestCheckpointRejectsDoctoredRecord(t *testing.T) {
	const width = 16
	s := mixStream(width, 8000, 57)
	path := writeBETR(t, s)
	_, seeders := splitSpecs(t, AllSpecs(width))
	for _, tc := range []struct {
		name string
		edit func(*bus.Stats)
		want string
	}{
		{"cycles", func(st *bus.Stats) { st.Cycles++ }, "cycles for"},
		{"transitions", func(st *bus.Stats) { st.Transitions++ }, "do not sum to"},
		{"max per cycle", func(st *bus.Stats) { st.MaxPerCycle = 64 }, "in one cycle on"},
		{"negative line", func(st *bus.Stats) { st.PerLine[0], st.PerLine[1] = -1, st.PerLine[1]+st.PerLine[0]+1 }, "negative count"},
	} {
		ckpt := filepath.Join(t.TempDir(), "sweep.json")
		opts := Opts{
			Workers: 1, Shards: 4, Codecs: seeders, Verify: codec.VerifyNone, PerLine: true,
			Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: 2,
		}
		if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: first run: err = %v, want ErrStopped", tc.name, err)
		}
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var job int
		doctored := resign(data, editFirstCodec(tc.edit))
		for _, line := range bytes.Split(doctored, []byte("\n")) {
			var rec journalRec
			if json.Unmarshal(line, &rec) == nil && rec.Type == recDone {
				job = rec.Job
				break
			}
		}
		if err := os.WriteFile(ckpt, doctored, 0o644); err != nil {
			t.Fatal(err)
		}
		opts.StopAfter = 0
		res, err := Sweep(path, opts)
		want := fmt.Sprintf("dist: job %d codec ", job)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume over a re-signed doctored record: err = %v, results %+v; want %q ... %q", tc.name, err, res, want, tc.want)
		}
	}
}

// FuzzCheckpointReplay feeds arbitrary bytes, as the checkpoint of a
// fixed small plan, through journal replay: loadJournal, openCheckpoint
// and mergeStats, with every job the journal does not cover filled from
// an honest sweep. The harness re-signs every done record it can parse,
// so mutated statistics get past the digest and reach the merge. Replay
// must never panic, every accepted job index must lie inside the plan,
// and a merge that succeeds must have accepted only statistics an
// honest job could return: no negative count, no more lines toggling in
// a cycle than the bus has, per-line counts summing to the total, and
// one cycle per entry of the job.
func FuzzCheckpointReplay(f *testing.F) {
	// A small plan keeps journals short, so the fuzzer mutates and
	// minimizes them quickly: t0 whole-trace, binary and gray in two
	// entry shards.
	const width = 8
	s := mixStream(width, 200, 58)
	path := writeBETR(f, s)
	dir := f.TempDir()
	specs := []CodecSpec{{Name: "binary", Width: width}, {Name: "t0", Width: width}, {Name: "gray", Width: width}}
	opts := Opts{Workers: 2, Shards: 3, Codecs: specs, Verify: codec.VerifyNone, PerLine: true, Spawn: InProcSpawner(nil)}

	// A completed sweep's journal is the honest filling and a seed.
	opts.Checkpoint = filepath.Join(dir, "done.json")
	if _, err := Sweep(path, opts); err != nil {
		f.Fatal(err)
	}
	complete, err := os.ReadFile(opts.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}
	honest, err := loadJournal(opts.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}

	jobs, parts, err := planJobs(specs, opts.Workers, opts.Shards, codec.RunOpts{Verify: opts.Verify, PerLine: opts.PerLine, Kernel: opts.Kernel})
	if err != nil {
		f.Fatal(err)
	}
	plan, cleanup, err := planTrace(path, jobs, parts)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(cleanup)
	digest := planDigest(plan, specs, int(opts.Verify), opts.PerLine, int(opts.Kernel))
	if len(honest.done) != len(plan.jobs) || honest.header.PlanDigest != digest {
		f.Fatalf("honest journal: %d of %d jobs, digest %.12s, want %.12s", len(honest.done), len(plan.jobs), honest.header.PlanDigest, digest)
	}

	f.Add(complete)
	f.Add(append(slices.Clone(complete), `{"type":"done","job":1,"stats":{"gra`...))
	f.Add(resign(complete, editFirstCodec(func(st *bus.Stats) { st.Cycles-- })))
	// One fuzz process runs its inputs one at a time, so they can share
	// one checkpoint file.
	ckpt := filepath.Join(dir, "replay.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(ckpt, resign(data, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		prior, jr, err := openCheckpoint(ckpt, digest, plan, specs)
		if err != nil {
			return
		}
		jr.Close()
		stats := make([]map[string]bus.Stats, len(plan.jobs))
		for k := range stats {
			stats[k] = honest.done[k]
		}
		for k, st := range prior.done {
			if k < 0 || k >= len(plan.jobs) {
				t.Fatalf("accepted a record for job %d of a %d-job plan", k, len(plan.jobs))
			}
			stats[k] = st
		}
		if _, err := mergeStats(plan, specs, stats); err != nil {
			return
		}
		for k, jb := range plan.jobs {
			from, to := plan.span(k)
			for _, i := range jb.codecs {
				c, err := specs[i].New()
				if err != nil {
					t.Fatal(err)
				}
				if msg := implausible(stats[k][specs[i].Name], c.BusWidth(), to-from); msg != "" {
					t.Fatalf("job %d codec %s: merged stats that %s: %+v", k, specs[i].Name, msg, stats[k][specs[i].Name])
				}
			}
		}
	})
}

// implausible names what no honest job of n entries on a width-line
// bus could report, or returns "". It sums with big integers, so it
// shares no arithmetic with bus.FromStats.
func implausible(st bus.Stats, width int, n int64) string {
	switch {
	case st.Transitions < 0 || st.Cycles < 0 || st.MaxPerCycle < 0:
		return "carry a negative count"
	case st.MaxPerCycle > width:
		return "toggle more lines in a cycle than the bus has"
	case st.Cycles != n:
		return fmt.Sprintf("carry %d cycles for %d entries", st.Cycles, n)
	case st.PerLine == nil:
		return ""
	case len(st.PerLine) != width:
		return "carry per-line counts for another width"
	}
	sum := new(big.Int)
	for _, v := range st.PerLine {
		if v < 0 {
			return "carry a negative per-line count"
		}
		sum.Add(sum, big.NewInt(v))
	}
	if sum.Cmp(big.NewInt(st.Transitions)) != 0 {
		return "carry per-line counts off the total"
	}
	return ""
}
