// Package bench defines the one machine-readable benchmark record the
// repository commits (BENCH_<name>.json at the root, one file per name
// in Names) and the regression guard that holds a fresh record against
// the committed one. cmd/paper and cmd/busencload write the records;
// cmd/benchguard enforces them in CI.
//
// A record is machine identity, a flat map of every number its producer
// measured, and the checks the producer declares on those numbers. The
// guard applies the committed record's checks, so a threshold changes
// only through a reviewed change to a committed file, never through a
// flag. Ratio checks compare machine-relative numbers (speedups, alloc
// ratios), not raw nanoseconds: each record carries its own
// same-machine baseline measurement, so a record committed on one box
// stays meaningful on another with a different clock.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Names lists the committed records in guard order; the record named n
// lives in BENCH_n.json.
var Names = []string{"engine", "stream", "bitslice", "dist", "serve"}

// Kind says how the guard treats a checked metric.
type Kind string

const (
	// Ratio is a same-machine band: the fresh value must be at least
	// committed × (1 − Bound). It is skipped, with a note, when the two
	// records come from different machines.
	Ratio Kind = "ratio"
	// Floor is an absolute minimum: the fresh value must be at least
	// Bound. The ratio inside a record is same-machine by construction,
	// so a floor needs no committed baseline and binds on any machine.
	Floor Kind = "floor"
	// Invariant binds on every machine: the fresh value must equal
	// Bound (parity = 1, lost jobs = 0).
	Invariant Kind = "invariant"
)

// Band is the relative band every speedup ratio is held to: a fresh
// speedup more than 25% below the committed one fails.
const Band = 0.25

// Check is one guarded condition on a metric. A ratio or floor check
// with MinCPU set binds only when the fresh record's machine has at
// least MinCPU CPUs: below that the measured path cannot scale, and
// the check is skipped with a note instead of failing.
type Check struct {
	Metric string  `json:"metric"`
	Kind   Kind    `json:"kind"`
	Bound  float64 `json:"bound"`
	MinCPU int     `json:"min_cpu,omitempty"`
}

// Record is one benchmark record. Metric names are the producer's JSON
// field names, nested fields dotted (tcp.pipelined_ns); booleans are
// 1 or 0 (see Bool). Info holds string context such as the source and
// the codec list, and is never compared.
type Record struct {
	Bench     string             `json:"bench"`
	NumCPU    int                `json:"num_cpu"`
	GoVersion string             `json:"go_version"`
	ChunkLen  int                `json:"chunk_len,omitempty"` // engine batch granularity, where it applies
	Info      map[string]any     `json:"info,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Checks    []Check            `json:"checks"`
}

// New returns a record named bench stamped with this process's machine
// identity.
func New(bench string, chunkLen int) Record {
	return Record{Bench: bench, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), ChunkLen: chunkLen}
}

// Bool is the metric value of a boolean: 1 for true, 0 for false.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Read loads a record. A file with no bench identity or no metrics (a
// record of some older schema, say) is an error.
func Read(path string) (Record, error) {
	var r Record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	if r.Bench == "" || len(r.Metrics) == 0 {
		return r, fmt.Errorf("%s: not a benchmark record (no bench or metrics)", path)
	}
	return r, nil
}

// Write writes a record as indented JSON with a trailing newline, the
// committed-file convention.
func Write(path string, r Record) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
