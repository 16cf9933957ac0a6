package codec

import "busenc/internal/obs"

// Observability hooks for the evaluation engines (see internal/obs).
// Counting happens per evaluation, not per entry: every Pricer driver
// accumulates in locals through the batch kernels and publishes totals
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
