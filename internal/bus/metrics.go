package bus

import "busenc/internal/obs"

// Observability hooks for the bit-sliced counting kernels (see
// internal/obs). The handles live in the gated default registry: while
// metrics are disabled every handle is nil and the instrumented sites
// cost one predictable branch. Counters are bumped once per kernel
// call, never per block or per word — the plane loops must stay free of
// atomics.
//
// Instrumented sites:
//
//   - bus.bitslice.calls / bus.bitslice.entries — bit-sliced
//     accumulation passes and the entries they priced (the codec plane
//     runners via RecordBitsliced).
type busMetrics struct {
	bitsliceCalls   *obs.Counter // bus.bitslice.calls
	bitsliceEntries *obs.Counter // bus.bitslice.entries
}

var metricsBinding = obs.NewBinding(func() *busMetrics {
	return &busMetrics{
		bitsliceCalls:   obs.GetCounter("bus.bitslice.calls"),
		bitsliceEntries: obs.GetCounter("bus.bitslice.entries"),
	}
})

// RecordBitsliced counts one bit-sliced pricing pass over n entries.
// Exported so the codec plane runners (which call AccumulatePlanes
// block-by-block) can account a whole pass with a single bump.
func RecordBitsliced(n int64) {
	m := metricsBinding.Get()
	m.bitsliceCalls.Inc()
	m.bitsliceEntries.Add(n)
}
