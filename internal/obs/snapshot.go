package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Snapshot is a point-in-time copy of a registry's metric values. It is
// plain data: safe to hold, diff, marshal, and compare while the live
// metrics keep moving.
type Snapshot struct {
	Registry   string                       `json:"registry"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the frozen state of one histogram. Buckets holds
// only the non-empty power-of-two buckets.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: Count observations v
// with Lo <= v < Hi (Lo == 0 collects everything below 1).
type BucketCount struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Mean returns the average observed value, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot copies the registry's current values. Metric updates are
// individually atomic but the snapshot as a whole is not a consistent
// cut across metrics — fine for observability, tests should quiesce.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Registry: r.name}
	for name, m := range r.metrics {
		switch {
		case m.counter != nil:
			if s.Counters == nil {
				s.Counters = make(map[string]int64)
			}
			s.Counters[name] = m.counter.Value()
		case m.gauge != nil:
			if s.Gauges == nil {
				s.Gauges = make(map[string]int64)
			}
			s.Gauges[name] = m.gauge.Value()
		case m.hist != nil:
			if s.Histograms == nil {
				s.Histograms = make(map[string]HistogramSnapshot)
			}
			s.Histograms[name] = m.hist.snapshot()
		}
	}
	return s
}

// Snapshot freezes the histogram's current state. It works on any
// *Histogram, including standalone zero-value histograms that were
// never attached to a registry (the serve SLO layer relies on this).
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucketized
// counts, returning the upper edge of the bucket holding the q-th
// observation — a conservative (over-)estimate with power-of-two
// resolution. The top bucket reports the exact observed Max instead of
// its MaxInt64 edge. Empty snapshots return 0.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			if b.Hi == math.MaxInt64 {
				return h.Max
			}
			return b.Hi
		}
	}
	return h.Max
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(1) << (i - 1)
		}
		// The top cell collects every value bucketOf clamps into it; its
		// upper edge is MaxInt64, not 1<<64 (which would wrap negative).
		hi := int64(math.MaxInt64)
		if i < histBuckets-1 {
			hi = int64(1) << i
		}
		s.Buckets = append(s.Buckets, BucketCount{Lo: lo, Hi: hi, Count: c})
	}
	return s
}

// Diff returns s minus prev: counters and histogram counts/sums
// subtract, so the result describes only the interval between the two
// snapshots. Gauges are instantaneous and keep s's value; histogram Max
// likewise remains the since-start maximum. Metrics absent from prev
// pass through unchanged.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{Registry: s.Registry}
	if s.Counters != nil {
		out.Counters = make(map[string]int64, len(s.Counters))
		for name, v := range s.Counters {
			out.Counters[name] = v - prev.Counters[name]
		}
	}
	if s.Gauges != nil {
		out.Gauges = make(map[string]int64, len(s.Gauges))
		for name, v := range s.Gauges {
			out.Gauges[name] = v
		}
	}
	if s.Histograms != nil {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for name, h := range s.Histograms {
			out.Histograms[name] = h.diff(prev.Histograms[name])
		}
	}
	return out
}

func (h HistogramSnapshot) diff(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: h.Count - prev.Count,
		Sum:   h.Sum - prev.Sum,
		Max:   h.Max,
	}
	prevBuckets := make(map[int64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevBuckets[b.Lo] = b.Count
	}
	for _, b := range h.Buckets {
		if c := b.Count - prevBuckets[b.Lo]; c != 0 {
			out.Buckets = append(out.Buckets, BucketCount{Lo: b.Lo, Hi: b.Hi, Count: c})
		}
	}
	return out
}

// Empty reports whether the snapshot carries no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// WriteTable renders the snapshot as an aligned human-readable table.
func (s Snapshot) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "registry %s\n", s.Registry)
	fmt.Fprintln(tw, "kind\tname\tvalue")
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(tw, "counter\t%s\t%d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(tw, "gauge\t%s\t%d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(tw, "histogram\t%s\tcount %d, mean %.0f, max %d\n", name, h.Count, h.Mean(), h.Max)
	}
	return tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SnapshotAll snapshots every registry that has recorded something,
// in registry-creation order.
func SnapshotAll() []Snapshot {
	var out []Snapshot
	for _, r := range Registries() {
		if s := r.Snapshot(); !s.Empty() {
			out = append(out, s)
		}
	}
	return out
}

// WriteAllTable renders every non-empty registry as tables.
func WriteAllTable(w io.Writer) error {
	snaps := SnapshotAll()
	if len(snaps) == 0 {
		_, err := fmt.Fprintln(w, "no metrics recorded")
		return err
	}
	for i, s := range snaps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := s.WriteTable(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteAllJSON renders every non-empty registry as a JSON array of
// snapshots.
func WriteAllJSON(w io.Writer) error {
	snaps := SnapshotAll()
	if snaps == nil {
		snaps = []Snapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}
