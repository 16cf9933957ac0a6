package dist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"busenc/internal/bus"
)

// Checkpoint journal: JSON lines, append-only, fsync'd per record. The
// first line is the plan header; every later line is one job's
// completed result, keyed by job index, with a digest of its
// statistics. A coordinator killed at any byte boundary leaves at worst
// one torn trailing line, which resume discards — every fully written
// record is durable, so resume re-prices only jobs whose result record
// never made it to disk, and the merged totals are bit-identical to an
// uninterrupted sweep. Any other record type is refused, so a journal
// of the state-shipping format, with its boundary records, never
// resumes.

// Journal record types.
const (
	recPlan = "plan"
	recDone = "done"
)

// journalRec is one line of the checkpoint file.
type journalRec struct {
	Type string `json:"type"`
	// recPlan
	PlanDigest string   `json:"plan_digest,omitempty"`
	Trace      string   `json:"trace,omitempty"`
	Total      int64    `json:"total,omitempty"`
	Jobs       int      `json:"jobs,omitempty"`
	Codecs     []string `json:"codecs,omitempty"`
	// recDone: one job's accumulators plus their digest.
	Job    int                  `json:"job,omitempty"`
	Stats  map[string]bus.Stats `json:"stats,omitempty"`
	Digest string               `json:"digest,omitempty"`
}

// journal is an open checkpoint file in append mode.
type journal struct {
	f *os.File
}

// statsDigest is the content address of one job's statistics:
// SHA-256 over the canonical JSON encoding. Resume verifies it before
// trusting a record, so a corrupted journal fails loudly instead of
// merging garbage.
func statsDigest(stats map[string]bus.Stats) string {
	b, err := json.Marshal(stats)
	if err != nil {
		// map[string]bus.Stats always marshals; this is unreachable.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// openJournal opens (creating if needed) the checkpoint for appending.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f}, nil
}

// append writes one record and fsyncs. The write is a single Write
// call ending in '\n', so a crash tears at most the final line.
func (j *journal) append(rec journalRec) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) Close() error { return j.f.Close() }

// journalState is what resume recovers from an existing checkpoint.
type journalState struct {
	header journalRec
	done   map[int]map[string]bus.Stats // job index -> codec -> stats
}

// loadJournal reads an existing checkpoint. A missing file yields an
// empty state (fresh sweep). A torn trailing line — no newline, or
// unparseable JSON — is tolerated and dropped; a torn or digest-
// mismatched line anywhere else is an error, because records before a
// valid record cannot have been torn by a crash.
func loadJournal(path string) (*journalState, error) {
	st := &journalState{done: map[int]map[string]bus.Stats{}}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), maxFrame)
	lineno := 0
	var pending []byte // a line is only committed once the next line proves it wasn't the torn tail
	pendingLine := 0
	commit := func(line []byte, lineno int, last bool) error {
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			if last {
				return nil // torn tail, drop
			}
			return fmt.Errorf("dist: checkpoint %s line %d: %w", path, lineno, err)
		}
		switch rec.Type {
		case recPlan:
			if lineno != 1 {
				return fmt.Errorf("dist: checkpoint %s line %d: duplicate plan header", path, lineno)
			}
			st.header = rec
		case recDone:
			if got := statsDigest(rec.Stats); got != rec.Digest {
				return fmt.Errorf("dist: checkpoint %s line %d: job %d digest mismatch", path, lineno, rec.Job)
			}
			st.done[rec.Job] = rec.Stats
		default:
			return fmt.Errorf("dist: checkpoint %s line %d: unknown record %q", path, lineno, rec.Type)
		}
		return nil
	}
	for sc.Scan() {
		if pending != nil {
			if err := commit(pending, pendingLine, false); err != nil {
				return nil, err
			}
		}
		lineno++
		pending = append(pending[:0], bytes.TrimRight(sc.Bytes(), "\r")...)
		pendingLine = lineno
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dist: checkpoint %s: %w", path, err)
	}
	if pending != nil {
		if err := commit(pending, pendingLine, true); err != nil {
			return nil, err
		}
	}
	if st.header.Type == "" && len(st.done) > 0 {
		return nil, fmt.Errorf("dist: checkpoint %s: records without a plan header", path)
	}
	return st, nil
}
