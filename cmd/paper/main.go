// Command paper regenerates the tables of Benini et al., "Address Bus
// Encoding Techniques for System-Level Power Optimization" (DATE 1998).
//
// Usage:
//
//	paper                 # print every table (1-9)
//	paper -table 7        # print one table
//	paper -source mips    # drive Tables 2-7 from the MIPS simulator
//	paper -sweep          # with -table 9: print the crossover summary
//	paper -trace prog.bin                # price the codecs over a trace file
//	                                     # in one bounded-memory pass
//	paper -benchjson .                   # write BENCH_{engine,stream,bitslice}.json
//	                                     # into a directory
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"busenc/internal/core"
	"busenc/internal/dist"
	"busenc/internal/obs"
)

// benchEntries is the trace length of the stream, bitslice and dist
// records.
const benchEntries = 1 << 20

func main() {
	tableNum := flag.Int("table", 0, "table to print (1-9; 0 = all)")
	source := flag.String("source", "synthetic", "stream source for Tables 2-7: synthetic | mips")
	hwStream := flag.Int("hwstream", 5000, "reference stream length for Tables 8-9")
	sweep := flag.Bool("sweep", false, "print the off-chip crossover summary with Table 9")
	asJSON := flag.Bool("json", false, "emit JSON instead of aligned text")
	tracePath := flag.String("trace", "", "evaluate the codecs over this trace file (text or binary, auto-detected) instead of the benchmark suites")
	flag.Bool("stream", true, "with -trace: accepted for compatibility; -trace always prices in one bounded-memory streaming pass")
	codes := flag.String("codes", "paper", "with -trace: comma-separated codec list, \"paper\" (the seven paper codes) or \"all\"")
	kernel := flag.String("kernel", "auto", "with -trace: pricing kernel — \"auto\" (the delta codecs of one width and stride — binary, gray, offset, incxor, businvert, beach — price in one delta group, though a lone binary, gray, businvert or beach keeps its batch kernel; two or more T0-family codecs in one in-sequence group; and working-zone counted without writing words) or \"scalar\" (every codec on its batch kernel, writing every word)")
	chunkLen := flag.Int("chunklen", 0, "with -trace: chunk size in entries (0 = default)")
	benchJSON := flag.String("benchjson", "", "benchmark the batched evaluation engine, the streaming pipeline and the per-line delta group against their same-machine baselines, write BENCH_{engine,stream,bitslice}.json into this directory, then exit")
	benchDistJSON := flag.String("benchdist", "", "benchmark the distributed coordinator/worker sweep against a serial decode+price pass and write the record to this path (e.g. BENCH_dist.json), then exit")
	distWorker := flag.Bool("distworker", false, "internal: run as a distributed-sweep protocol worker on stdin/stdout (spawned by -benchdist)")
	metrics := flag.String("metrics", "", "enable run-time observability and dump all metric registries on exit: \"table\", \"json\" or \"spans\" (to stderr, so table/trace output stays clean; \"spans\" prints per-stage span latency attribution)")
	spanTrace := flag.String("spantrace", "", "record pipeline spans and write a Chrome trace-event file (load in Perfetto / chrome://tracing) to this path on exit")
	flag.Parse()

	if *metrics != "" {
		if *metrics != "table" && *metrics != "json" && *metrics != "spans" {
			fmt.Fprintf(os.Stderr, "paper: -metrics must be \"table\", \"json\" or \"spans\", got %q\n", *metrics)
			os.Exit(2)
		}
		obs.Enable()
		if *metrics == "spans" && !obs.TracingEnabled() {
			obs.EnableTracing(obs.TracerConfig{})
		}
		defer dumpMetrics(*metrics)
	}
	if *spanTrace != "" {
		obs.EnableTracing(obs.TracerConfig{})
		defer writeSpanTrace(*spanTrace)
	}

	if *distWorker {
		if err := dist.ServeWorker(os.Stdin, os.Stdout, dist.WorkerOpts{}); err != nil {
			fmt.Fprintln(os.Stderr, "paper worker:", err)
			os.Exit(1)
		}
		return
	}
	if *benchDistJSON != "" {
		if err := benchDist(*benchDistJSON, benchEntries, 3); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	src := core.Source(*source)
	if *benchJSON != "" {
		record := func(name string) string { return filepath.Join(*benchJSON, "BENCH_"+name+".json") }
		err := benchEngine(record("engine"), src, 5)
		if err == nil {
			err = benchStream(record("stream"), benchEntries)
		}
		if err == nil {
			err = benchBitslice(record("bitslice"), benchEntries, 5)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if *tracePath != "" {
		if err := evalTrace(*tracePath, *codes, *chunkLen, *kernel); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*tableNum, src, *hwStream, *sweep, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

// dumpMetrics writes every non-empty registry to stderr in the chosen
// format. Errors are ignored: a metrics dump must never fail the run it
// is observing.
func dumpMetrics(format string) {
	switch format {
	case "json":
		obs.WriteAllJSON(os.Stderr)
	case "spans":
		obs.WriteSpanTable(os.Stderr, obs.Spans())
	default:
		obs.WriteAllTable(os.Stderr)
	}
}

// writeSpanTrace dumps the flight recorder as a Chrome trace-event file.
// A failed dump warns rather than failing the run it observed.
func writeSpanTrace(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper: -spantrace:", err)
		return
	}
	werr := obs.WriteTraceEvents(f, obs.Spans())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "paper: -spantrace:", werr)
	}
}

func run(tableNum int, src core.Source, hwStream int, sweep, asJSON bool) error {
	want := func(n int) bool { return tableNum == 0 || tableNum == n }

	if want(1) {
		rows, err := core.Table1(core.Width, 200000)
		if err != nil {
			return err
		}
		render := core.RenderTable1
		if asJSON {
			render = core.WriteTable1JSON
		}
		if err := render(os.Stdout, rows); err != nil {
			return err
		}
		fmt.Println()
	}

	streamTables := []struct {
		n int
		f func(core.Source) (*core.Table, error)
	}{
		{2, core.Table2}, {3, core.Table3}, {4, core.Table4},
		{5, core.Table5}, {6, core.Table6}, {7, core.Table7},
	}
	for _, st := range streamTables {
		if !want(st.n) {
			continue
		}
		tab, err := st.f(src)
		if err != nil {
			return err
		}
		render := (*core.Table).Render
		if asJSON {
			render = (*core.Table).WriteJSON
		}
		if err := render(tab, os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if want(8) || want(9) {
		ref := core.ReferenceMuxedStream(hwStream)
		if want(8) {
			rows, err := core.Table8(ref, core.OnChipLoads)
			if err != nil {
				return err
			}
			render := core.RenderTable8
			if asJSON {
				render = core.WriteTable8JSON
			}
			if err := render(os.Stdout, rows); err != nil {
				return err
			}
			fmt.Println()
		}
		if want(9) {
			rows, err := core.Table9(ref, core.OffChipLoads)
			if err != nil {
				return err
			}
			render := core.RenderTable9
			if asJSON {
				render = core.WriteTable9JSON
			}
			if err := render(os.Stdout, rows); err != nil {
				return err
			}
			if sweep {
				if load, ok := core.Crossover(rows); ok {
					fmt.Printf("\nCrossover: dual T0_BI global power drops below T0 at %.0f pF\n", load*1e12)
				} else {
					fmt.Println("\nCrossover: not reached within the sweep")
				}
			}
			fmt.Println()
		}
	}
	return nil
}
