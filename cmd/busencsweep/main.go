// Command busencsweep prices bus-encoding codecs over huge traces by
// distributing jobs to a pool of worker processes and/or networked
// busencd peers.
//
// Usage:
//
//	busencsweep -trace huge.betr                       # all codecs, one worker
//	busencsweep -trace huge.betr -workers 8 -shards 64 # real fan-out, at
//	                                                   # most 64 jobs
//	busencsweep -trace huge.betr -checkpoint sweep.json  # resumable: rerun the
//	                                                     # same command after a
//	                                                     # kill to pick up where
//	                                                     # the journal left off
//	busencsweep -trace huge.betr -peers h1:8377,h2:8377  # price on remote
//	                                                     # busencd daemons (mixes
//	                                                     # with -workers > 0)
//	busencsweep -worker                                # internal: protocol
//	                                                   # worker on stdin/stdout
//
// -shards is the job budget. The prefix-dependent codecs (bus-invert,
// the T0 family, working-zone, adaptive) are priced whole-trace, in up
// to one codec group per worker or peer; the codecs that seed from the
// previous entries (binary, gray, offset, incxor, beach) are cut into
// byte-range shards with the rest of the budget only when the groups
// leave a worker or peer idle, over one mmap view (text traces are
// converted to a temporary BETR file once). Otherwise they join the
// groups, and the plan is read from the trace header alone. Local
// workers share the file through the page cache, so nothing is copied.
// Remote peers receive the trace once, content-addressed by SHA-256
// digest — a re-sweep against a peer that already holds the trace ships
// zero bytes. Results are bit-identical to a sequential run for every
// codec, over any mix of local workers and peers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"busenc/internal/codec"
	"busenc/internal/dist"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

func main() {
	worker := flag.Bool("worker", false, "run as a protocol worker on stdin/stdout (internal; spawned by the coordinator)")
	failAfter := flag.Int("failafter", 0, "with -worker: die without replying after pricing this many jobs (fault injection)")
	tracePath := flag.String("trace", "", "trace file to price (text or BETR, auto-detected)")
	workers := flag.Int("workers", 1, "worker processes to spawn (with -peers, 0 means peers only)")
	peers := flag.String("peers", "", "comma-separated busencd peer addresses (host:port) to price on over TCP")
	shards := flag.Int("shards", 0, "job budget: the most jobs to plan (0 = 4 per worker/peer); entry shards only fill workers/peers the whole-trace codec groups leave idle")
	checkpoint := flag.String("checkpoint", "", "journal path for checkpoint/resume; rerunning the same sweep against an existing journal resumes it")
	codes := flag.String("codes", "all", "comma-separated codec list, \"paper\" (the seven paper codes) or \"all\"")
	stride := flag.Uint64("stride", 4, "in-sequence stride S for the stride-aware codes (t0*, dualt0*, gray, incxor); 4 matches the paper's word-addressed MIPS and the other CLIs")
	verify := flag.String("verify", "sampled", "decode verification: \"full\", \"sampled\" or \"none\"")
	perLine := flag.Bool("perline", false, "collect per-line transition counts")
	kernel := flag.String("kernel", "auto", "pricing kernel: \"auto\" (the delta codecs of one width and stride in one delta group, two or more T0-family codecs in one in-sequence group) or \"scalar\" (every codec on its batch kernel, writing every word)")
	killWorker := flag.String("killworker", "", "fault injection: \"id:jobs\" kills worker id's first life after that many jobs (it respawns; the orphaned jobs are retried)")
	stopAfter := flag.Int("stopafter", 0, "fault injection: stop the coordinator after this many job results are journaled (requires -checkpoint to be resumable)")
	asJSON := flag.Bool("json", false, "emit JSON instead of an aligned table")
	metrics := flag.Bool("metrics", false, "enable observability counters and dump them to stderr on exit")
	spantrace := flag.String("spantrace", "", "write the sweep's merged distributed trace (coordinator + every worker/peer lane, clock-aligned) to this file as Chrome trace-event JSON")
	flag.Parse()

	if *worker {
		if err := dist.ServeWorker(os.Stdin, os.Stdout, dist.WorkerOpts{FailAfter: *failAfter}); err != nil {
			fmt.Fprintln(os.Stderr, "busencsweep worker:", err)
			os.Exit(1)
		}
		return
	}
	if *metrics {
		obs.Enable()
		defer func() { obs.Default().Snapshot().WriteTable(os.Stderr) }()
	}
	cfg := sweepConfig{
		trace:      *tracePath,
		workers:    *workers,
		peers:      splitPeers(*peers),
		shards:     *shards,
		checkpoint: *checkpoint,
		codes:      *codes,
		verify:     *verify,
		kernel:     *kernel,
		killWorker: *killWorker,
		stride:     *stride,
		perLine:    *perLine,
		stopAfter:  *stopAfter,
		asJSON:     *asJSON,
		spantrace:  *spantrace,
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "busencsweep:", err)
		os.Exit(1)
	}
}

// splitPeers expands the -peers comma list, dropping blanks.
func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// paperCodes mirrors cmd/paper's default set.
var paperCodes = []string{"binary", "gray", "t0", "businvert", "t0bi", "dualt0", "dualt0bi"}

// sweepConfig is the parsed flag set of one coordinator run.
type sweepConfig struct {
	trace      string
	workers    int
	peers      []string
	shards     int
	checkpoint string
	codes      string
	verify     string
	kernel     string
	killWorker string
	stride     uint64
	perLine    bool
	stopAfter  int
	asJSON     bool
	spantrace  string
}

// run is the coordinator: plan, sweep, print. Factored from main for
// main_test.go.
func run(cfg sweepConfig, out *os.File) error {
	if cfg.trace == "" {
		return fmt.Errorf("-trace is required (or -worker for worker mode)")
	}
	width, err := traceWidth(cfg.trace)
	if err != nil {
		return err
	}
	specs, err := parseSpecs(cfg.codes, width, cfg.stride)
	if err != nil {
		return err
	}
	vm, err := parseVerify(cfg.verify)
	if err != nil {
		return err
	}
	kern, err := codec.ParseKernel(cfg.kernel)
	if err != nil {
		return err
	}
	spawn, err := selfSpawner(cfg.killWorker)
	if err != nil {
		return err
	}
	// -spantrace turns the sweep into a distributed trace: the
	// coordinator records its own spans, jobs carry the minted trace
	// context to every worker and peer, and their span dumps are
	// harvested and clock-aligned into one merged timeline at the end.
	// Harvesting only observes — the results are bit-identical either
	// way.
	var harvest *dist.SpanHarvest
	var tracer *obs.Tracer
	if cfg.spantrace != "" {
		tracer = obs.EnableTracing(obs.TracerConfig{})
		harvest = &dist.SpanHarvest{}
	}
	results, err := dist.Sweep(cfg.trace, dist.Opts{
		Workers:    cfg.workers,
		Peers:      cfg.peers,
		Shards:     cfg.shards,
		Codecs:     specs,
		Verify:     vm,
		PerLine:    cfg.perLine,
		Kernel:     kern,
		Checkpoint: cfg.checkpoint,
		Spawn:      spawn,
		StopAfter:  cfg.stopAfter,
		Harvest:    harvest,
	})
	if err != nil {
		return err
	}
	if harvest != nil {
		if err := writeSpanTrace(cfg.spantrace, harvest, tracer); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "busencsweep: merged trace %s written to %s\n",
			harvest.TraceID(), cfg.spantrace)
	}
	if cfg.asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return printTable(out, results)
}

// writeSpanTrace merges the coordinator's recorded spans with every
// harvested worker/peer dump into one clock-aligned trace-event file.
func writeSpanTrace(path string, h *dist.SpanHarvest, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteMergedTraceEvents(f, h.Merged(tr.Spans(), tr.Epoch()))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// traceWidth reads just the trace header for the bus width.
func traceWidth(path string) (int, error) {
	r, closer, err := trace.OpenFile(path, nil)
	if err != nil {
		return 0, err
	}
	defer closer.Close()
	return r.Width(), nil
}

// parseSpecs expands the -codes flag into wire specs at the given
// width and stride.
func parseSpecs(codes string, width int, stride uint64) ([]dist.CodecSpec, error) {
	var names []string
	switch codes {
	case "", "all":
		specs := dist.AllSpecs(width)
		for i := range specs {
			specs[i].Stride = stride
		}
		return specs, nil
	case "paper":
		names = paperCodes
	default:
		for _, c := range strings.Split(codes, ",") {
			if c = strings.TrimSpace(c); c != "" {
				names = append(names, c)
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("empty codec list %q", codes)
	}
	specs := make([]dist.CodecSpec, len(names))
	for i, n := range names {
		specs[i] = dist.CodecSpec{Name: n, Width: width, Stride: stride}
	}
	return specs, nil
}

func parseVerify(s string) (codec.VerifyMode, error) {
	switch s {
	case "full":
		return codec.VerifyFull, nil
	case "", "sampled":
		return codec.VerifySampled, nil
	case "none":
		return codec.VerifyNone, nil
	}
	return 0, fmt.Errorf("-verify must be \"full\", \"sampled\" or \"none\", got %q", s)
}

// selfSpawner re-executes this binary with -worker. The -killworker
// fault knob ("id:jobs") adds -failafter to the first life of the
// chosen worker; its respawn is healthy.
func selfSpawner(killWorker string) (dist.Spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	killID, killJobs := -1, 0
	if killWorker != "" {
		id, jobs, ok := strings.Cut(killWorker, ":")
		if ok {
			killID, err = strconv.Atoi(id)
			if err == nil {
				killJobs, err = strconv.Atoi(jobs)
			}
		}
		if !ok || err != nil || killJobs <= 0 {
			return nil, fmt.Errorf("-killworker must be \"id:jobs\", got %q", killWorker)
		}
	}
	return dist.SpawnerFunc(func(id, gen int) (dist.Transport, error) {
		argv := []string{self, "-worker"}
		if id == killID && gen == 0 {
			argv = append(argv, "-failafter", strconv.Itoa(killJobs))
		}
		return dist.ExecSpawner(argv, nil).Spawn(id, gen)
	}), nil
}

// printTable renders the results like cmd/paper's trace mode: absolute
// transition counts, transitions per cycle (Result.AvgPerCycle) and
// savings relative to the first codec.
func printTable(out *os.File, results []codec.Result) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "codec\ttransitions\tavg/cycle\tsaved%")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.1f\n", r.Codec, r.Transitions, r.AvgPerCycle(), 100*r.SavingsVs(results[0]))
	}
	return w.Flush()
}
