// Command benchguard compares freshly generated benchmark records
// against the committed ones and exits non-zero when a check the
// committed record declares is broken. It is the CI
// benchmark-regression gate:
//
//	paper -benchjson .bench-fresh
//	paper -benchdist .bench-fresh/BENCH_dist.json
//	busencload -spawn busencd -benchjson .bench-fresh/BENCH_serve.json
//	benchguard -baseline . -fresh .bench-fresh
//
// The bands, floors and invariants live in the committed records (see
// internal/bench), so the gate has no thresholds of its own. Checks
// that cannot bind on the measuring machine are skipped with a note on
// stdout, never silently.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"busenc/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", ".", "directory holding the committed BENCH_*.json records")
	fresh := fs.String("fresh", "", "directory holding the freshly generated records (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fresh == "" {
		fmt.Fprintln(stderr, "benchguard: -fresh directory is required")
		fs.Usage()
		return 2
	}
	violations, notes := bench.Guard(*baseline, *fresh)
	for _, n := range notes {
		fmt.Fprintf(stdout, "benchguard: note: %s\n", n)
	}
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "benchguard: ok (%s vs %s, %d records, %d checks skipped)\n",
			*fresh, *baseline, len(bench.Names), len(notes))
		return 0
	}
	fmt.Fprintf(stderr, "benchguard: %d violation(s):\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(stderr, "  %s\n", v)
	}
	return 1
}
