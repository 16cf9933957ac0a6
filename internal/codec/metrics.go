package codec

import "busenc/internal/obs"

// Observability hooks for the evaluation engines (see internal/obs).
// Counting happens per evaluation, not per entry: RunFast and RunStream
// accumulate in locals through the batch kernels and publish totals
// once per stream, so the enabled cost is a few registry lookups per
// evaluation and the disabled cost is one branch.

// RecordRun publishes one completed evaluation of a codec into the
// gated default registry: entries encoded through the codec's batch
// kernel and bus transitions counted for them. Pricer.Result and
// Collect call it once per codec, so every driver publishes its runs,
// a grouped plane codec included. A no-op while metrics are disabled.
func RecordRun(name string, entries, transitions int64) {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("codec.runs." + name).Inc()
	obs.GetCounter("codec.entries_encoded." + name).Add(entries)
	obs.GetCounter("codec.transitions." + name).Add(transitions)
}

// RecordParallel publishes one completed RunParallel invocation: the
// shard count it actually used (after clamping) and, for sweep codecs,
// the entries re-encoded by the sequential state-only seeding sweep.
// A no-op while metrics are disabled.
func RecordParallel(name string, shards int, sweepEntries int64) {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("codec.parallel.runs." + name).Inc()
	obs.GetGauge("codec.parallel.shards").Set(int64(shards))
	if sweepEntries > 0 {
		obs.GetCounter("codec.parallel.sweep_entries").Add(sweepEntries)
	}
}

// RecordShard publishes one shard worker's wall time into the per-shard
// wait histogram; the reduction waits for the slowest bucket.
func RecordShard(ns int64) {
	obs.GetHistogram("codec.parallel.shard_ns").Observe(ns)
}

// parallelTimed reports whether shard workers should pay for per-shard
// timing — only while metrics are enabled.
func parallelTimed() bool { return obs.Enabled() }
