package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/trace"
)

// Trace evaluation mode (-trace): price codecs over an on-disk trace
// file instead of the generated benchmark suites. The trace is never
// materialized: the streaming fan-out reads it once in pooled chunks
// and evaluates all codecs concurrently under a fixed memory budget.

// paperCodes are the seven codes of the paper's tables, binary first so
// savings are always relative to it.
var paperCodes = []string{"binary", "gray", "t0", "businvert", "t0bi", "dualt0", "dualt0bi"}

// parseCodes expands the -codes flag value.
func parseCodes(codes string) []string {
	switch codes {
	case "", "paper":
		return paperCodes
	case "all":
		return codec.Names()
	}
	var out []string
	for _, c := range strings.Split(codes, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// evalTrace evaluates the named codecs over the trace file and prints a
// comparison table. kernel picks the pricing kernel ("auto", "scalar"
// or "plane").
func evalTrace(path, codes string, chunkLen int, kernel string) error {
	kern, err := codec.ParseKernel(kernel)
	if err != nil {
		return err
	}
	names := parseCodes(codes)
	// Ensure binary leads so savings have a reference.
	if len(names) == 0 || names[0] != "binary" {
		withBin := []string{"binary"}
		for _, n := range names {
			if n != "binary" {
				withBin = append(withBin, n)
			}
		}
		names = withBin
	}

	var pool *trace.ChunkPool
	if chunkLen > 0 {
		pool = trace.NewChunkPool(chunkLen)
	}
	r, closer, err := trace.OpenFile(path, pool)
	if err != nil {
		return err
	}
	defer closer.Close()

	results, err := core.EvaluateStreaming(r, r.Width(), names, core.DefaultOptions,
		core.FanoutConfig{Verify: codec.VerifySampled, Kernel: kern})
	if err != nil {
		return err
	}
	return writeTraceTable(os.Stdout, path, r.Width(), results)
}

// writeTraceTable prints the -trace report: a header line naming the
// trace, then one row per result with its savings against results[0].
func writeTraceTable(w io.Writer, path string, width int, results []codec.Result) error {
	fmt.Fprintf(w, "trace %q (%s): %d references, width %d, streaming evaluation\n",
		results[0].Stream, path, results[0].Cycles, width)
	bin := results[0]
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "code\tbus lines\ttransitions\tper cycle\tsavings")
	for _, res := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.2f%%\n",
			res.Codec, res.BusWidth, res.Transitions, res.AvgPerCycle(), res.SavingsVs(bin)*100)
	}
	return tw.Flush()
}
