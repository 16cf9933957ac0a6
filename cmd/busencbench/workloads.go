package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"busenc/internal/arch"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/trace"
	"busenc/internal/workload"
)

// How a workload's timed phase drives the program.
const (
	kindStream = iota // trace.OpenFile + core.EvaluateStreaming, in process
	kindSweep         // dist.Sweep over real busencsweep -worker processes
	kindServe         // HTTP traffic against a spawned busencd
)

// workloadDef is one named workload. The why-sentences live in
// BENCHMARK.json; the generator parameters are in inputs below.
type workloadDef struct {
	name    string
	kind    int
	entries int      // trace length at full size (per base trace for serve)
	codes   []string // codecs priced per iteration or per eval
}

// planeCodes are the codecs with a bit-sliced plane kernel.
var planeCodes = []string{"binary", "gray", "offset", "incxor"}

var workloads = []workloadDef{
	{name: "muxed-stream", kind: kindStream, entries: 1 << 20, codes: codec.Names()},
	{name: "instr-plane", kind: kindStream, entries: 1 << 22, codes: planeCodes},
	{name: "muxed-sweep", kind: kindSweep, entries: 1 << 20, codes: codec.Names()},
	{name: "serve-mixed", kind: kindServe, entries: 1 << 14, codes: codec.Names()},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Sizes. Smoke mode shrinks every trace to smokeEntries so the test
// suite can run every workload in seconds.
const (
	smokeEntries = 1 << 12
	serveBases   = 16 // distinct base traces behind serve-mixed uploads
	smokeBases   = 4
	sweepWorkers = 2
	sweepShards  = 8
	instrTarget  = 0.90 // in-sequence fraction of the instr-plane stream
)

// mipsMux is the multiplexed-bus generator calibrated to the paper's
// MIPS suite averages: instruction in-seq 0.63, data in-seq 0.11, data
// fraction 0.045.
func mipsMux() workload.MuxSpec {
	for _, p := range arch.Profiles() {
		if p.Name == "mips" {
			return workload.MuxSpec{Instr: p.InstrSpec(), Data: p.DataSpec(), DataFrac: p.DataFrac}
		}
	}
	panic("busencbench: arch has no mips profile")
}

// genSeed derives the generator seed of input k from the workload seed,
// so inputs of neighbouring seeds share no random sequence.
func genSeed(seed int64, k int) int64 { return seed<<16 + int64(k) }

// inputs generates the workload's traces from the seed: one trace for
// the pricing workloads, the base traces of the upload mix for
// serve-mixed. The two muxed workloads price the same trace.
func (w *workloadDef) inputs(seed int64, smoke bool) []*trace.Stream {
	n, bases := w.entries, serveBases
	if smoke {
		n, bases = smokeEntries, smokeBases
	}
	switch w.name {
	case "instr-plane":
		spec := workload.InstrSpec{Target: instrTarget, Stride: workload.Stride, Far: mipsMux().Instr.Far}
		return []*trace.Stream{spec.Stream("instr", workload.Width, n, genSeed(seed, 0))}
	case "serve-mixed":
		out := make([]*trace.Stream, bases)
		for k := range out {
			out[k] = mipsMux().Stream(fmt.Sprintf("serve-%d", k), workload.Width, n, genSeed(seed, k))
		}
		return out
	}
	return []*trace.Stream{mipsMux().Stream("muxed", workload.Width, n, genSeed(seed, 0))}
}

// oracle is the paper-faithful expectation for one input trace: its
// entry count and codec.Run's transition count per codec.
type oracle struct {
	Entries     int64            `json:"entries"`
	Transitions map[string]int64 `json:"transitions"`
}

func computeOracle(s *trace.Stream, codes []string) (oracle, error) {
	o := oracle{Entries: int64(s.Len()), Transitions: make(map[string]int64, len(codes))}
	for _, name := range codes {
		c, err := codec.New(name, s.Width, core.DefaultOptions)
		if err != nil {
			return o, err
		}
		res, err := codec.Run(c, s)
		if err != nil {
			return o, err
		}
		o.Transitions[name] = res.Transitions
	}
	return o, nil
}

// corrupt perturbs every expectation, so every checked result fails.
func (o *oracle) corrupt() {
	o.Entries++
	for k := range o.Transitions {
		o.Transitions[k]++
	}
}

// check compares one evaluation's results with the oracle: exactly the
// requested codecs, each with the oracle's transitions over every entry.
func (o oracle) check(results []codec.Result, codes []string) error {
	got := make([]string, len(results))
	for i, r := range results {
		got[i] = r.Codec
		want, ok := o.Transitions[r.Codec]
		if !ok {
			return fmt.Errorf("no oracle for codec %s", r.Codec)
		}
		if r.Transitions != want || r.Cycles != o.Entries {
			return fmt.Errorf("codec %s: %d transitions over %d entries, oracle %d over %d",
				r.Codec, r.Transitions, r.Cycles, want, o.Entries)
		}
	}
	want := append([]string(nil), codes...)
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("results for codecs %v, requested %v", got, want)
	}
	return nil
}

// writeInputs writes each trace as BETR into dir and returns the paths.
func writeInputs(dir string, streams []*trace.Stream) ([]string, error) {
	paths := make([]string, len(streams))
	for i, s := range streams {
		paths[i] = filepath.Join(dir, s.Name+".betr")
		f, err := os.Create(paths[i])
		if err != nil {
			return nil, err
		}
		werr := trace.WriteBinary(f, s)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, werr
		}
	}
	return paths, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
