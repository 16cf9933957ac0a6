// Command tracecheck validates a Chrome trace-event file, such as the
// ones cmd/paper -spantrace and cmd/busencsweep -spantrace write. It
// checks the structural invariants Perfetto / chrome://tracing rely on
// (a non-empty traceEvents array, known phase codes, named events,
// non-negative timestamps and durations) and computes span coverage:
// the fraction of the traced wall-clock window [first span start, last
// span end] covered by the union of all complete ("X") events.
// Coverage is computed overall and per process lane (pid) — a merged
// distributed trace has one lane per participating process, and a peer
// whose spans were lost shows up as a hole in exactly one lane, which a
// whole-file union would paper over. -mincover gates every lane;
// -minprocs asserts the trace actually merged that many processes.
// Both gates are how the CI smoke tests assert the instrumentation
// brackets the pipeline on every peer instead of leaving holes.
//
// Each lane also lists the summed span time of every codec label
// (args.codec) in it and that label's share of the lane's labelled
// time: in a -spantrace of the streaming fan-out, where the time of each
// Pricer, a kernel group or a lone codec, went.
//
//	tracecheck spans.json                        # validate, report coverage
//	tracecheck -mincover 0.95 spans.json         # fail if any lane is below 95%
//	tracecheck -mincover 0.95 -minprocs 3 m.json # also require >= 3 pid lanes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// traceEvent is the subset of the trace-event schema the checker cares
// about. Unknown fields (args, cat, ...) are ignored by design.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args struct {
		Codec string `json:"codec"`
	} `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// laneReport summarizes one process lane (pid) of the trace.
type laneReport struct {
	Pid      int
	Complete int         // ph "X" events in this lane
	WallUs   float64     // lane window in microseconds
	Coverage float64     // union of the lane's X events / lane window
	Codecs   []codecTime // per codec label, most time first
}

// codecTime is one codec label's summed span time in a lane and its
// share of the lane's labelled span time.
type codecTime struct {
	Codec string
	Us    float64
	Share float64
}

// report summarizes a validated file.
type report struct {
	Events   int          // total events
	Complete int          // ph "X" events
	WallUs   float64      // traced window in microseconds (all lanes)
	Coverage float64      // union of X events / wall window, in [0, 1]
	Lanes    []laneReport // per-pid coverage, ascending pid
}

// ival is one [lo, hi] occupancy interval on the timeline.
type ival struct{ lo, hi float64 }

// union computes the total window and the covered fraction of a
// non-empty interval set.
func union(spans []ival) (wallUs, coverage float64) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	lo, hi := spans[0].lo, spans[0].hi
	var covered float64
	curLo, curHi := spans[0].lo, spans[0].hi
	for _, s := range spans[1:] {
		if s.hi > hi {
			hi = s.hi
		}
		if s.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = s.lo, s.hi
			continue
		}
		if s.hi > curHi {
			curHi = s.hi
		}
	}
	covered += curHi - curLo
	wallUs = hi - lo
	if wallUs > 0 {
		return wallUs, covered / wallUs
	}
	// Degenerate zero-length window (instantaneous spans): covered.
	return wallUs, 1
}

// check validates raw trace-event JSON and computes the coverage
// report. It returns the first structural violation as an error.
func check(raw []byte) (report, error) {
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return report{}, fmt.Errorf("not trace-event JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		return report{}, fmt.Errorf("traceEvents is empty")
	}
	var all []ival
	byPid := map[int][]ival{}
	codecUs := map[int]map[string]float64{}
	rep := report{Events: len(tf.TraceEvents)}
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M": // metadata: names processes/threads, carries no time
			continue
		case "X":
		default:
			return report{}, fmt.Errorf("event %d (%q): unsupported phase %q", i, ev.Name, ev.Ph)
		}
		if ev.Name == "" {
			return report{}, fmt.Errorf("event %d: empty name", i)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			return report{}, fmt.Errorf("event %d (%q): negative ts/dur (%g/%g)", i, ev.Name, ev.Ts, ev.Dur)
		}
		if ev.Pid <= 0 || ev.Tid <= 0 {
			return report{}, fmt.Errorf("event %d (%q): missing pid/tid (%d/%d)", i, ev.Name, ev.Pid, ev.Tid)
		}
		rep.Complete++
		all = append(all, ival{ev.Ts, ev.Ts + ev.Dur})
		byPid[ev.Pid] = append(byPid[ev.Pid], ival{ev.Ts, ev.Ts + ev.Dur})
		if c := ev.Args.Codec; c != "" {
			if codecUs[ev.Pid] == nil {
				codecUs[ev.Pid] = map[string]float64{}
			}
			codecUs[ev.Pid][c] += ev.Dur
		}
	}
	if rep.Complete == 0 {
		return report{}, fmt.Errorf("no complete (\"X\") events")
	}
	rep.WallUs, rep.Coverage = union(all)
	pids := make([]int, 0, len(byPid))
	for pid := range byPid {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		lane := laneReport{Pid: pid, Complete: len(byPid[pid])}
		lane.WallUs, lane.Coverage = union(byPid[pid])
		lane.Codecs = codecShares(codecUs[pid])
		rep.Lanes = append(rep.Lanes, lane)
	}
	return rep, nil
}

// codecShares orders a lane's summed span time per codec label, most
// time first (ties by label), with each label's share of their sum.
func codecShares(us map[string]float64) []codecTime {
	var out []codecTime
	var total float64
	for c, t := range us {
		out = append(out, codecTime{Codec: c, Us: t})
		total += t
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Us != out[j].Us {
			return out[i].Us > out[j].Us
		}
		return out[i].Codec < out[j].Codec
	})
	for i := range out {
		if total > 0 {
			out[i].Share = out[i].Us / total
		}
	}
	return out
}

func main() {
	minCover := flag.Float64("mincover", 0, "fail unless every process lane's span coverage of its own window is at least this fraction (0 disables the gate)")
	minProcs := flag.Int("minprocs", 0, "fail unless the trace has at least this many process (pid) lanes (0 disables the gate)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-mincover FRAC] [-minprocs N] <spans.json>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	rep, err := check(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("tracecheck: %s: %d events (%d spans), %d process lanes, %.1f ms wall, %.1f%% covered\n",
		path, rep.Events, rep.Complete, len(rep.Lanes), rep.WallUs/1e3, rep.Coverage*100)
	for _, lane := range rep.Lanes {
		fmt.Printf("tracecheck:   pid %d: %d spans, %.1f ms wall, %.1f%% covered\n",
			lane.Pid, lane.Complete, lane.WallUs/1e3, lane.Coverage*100)
		for _, c := range lane.Codecs {
			fmt.Printf("tracecheck:     codec %s: %.1f ms, %.1f%% of the lane's codec span time\n",
				c.Codec, c.Us/1e3, c.Share*100)
		}
	}
	fail := false
	if *minProcs > 0 && len(rep.Lanes) < *minProcs {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: %d process lanes, need %d\n", path, len(rep.Lanes), *minProcs)
		fail = true
	}
	if *minCover > 0 {
		for _, lane := range rep.Lanes {
			if lane.Coverage < *minCover {
				fmt.Fprintf(os.Stderr, "tracecheck: %s: pid %d coverage %.3f below required %.3f\n",
					path, lane.Pid, lane.Coverage, *minCover)
				fail = true
			}
		}
	}
	if fail {
		os.Exit(1)
	}
}
