package core

import "busenc/internal/obs"

// Observability hooks for the streaming fan-out (see internal/obs). The
// handles live in the gated default registry; EvaluateStreaming fetches
// the bundle once per evaluation and the workers time their channel
// waits only when the histograms are live, so the disabled path adds
// one branch per chunk.
//
// Instrumented sites (all in streaming.go):
//
//   - producer: per-broadcast stall time (blocked handing a block to
//     the slowest worker's bounded channel), blocks broadcast;
//   - workers: per-receive wait time (blocked on an empty channel) and
//     drain events (blocks discarded after the worker failed
//     verification, while keeping the channel flowing);
//   - gauges: configured fan-out depth and worker count (one worker
//     per codec.Pricer) of the most recent evaluation.
type fanoutMetrics struct {
	sendWaitNs   *obs.Histogram // core.fanout.send_wait_ns
	workerWaitNs *obs.Histogram // core.fanout.worker_wait_ns
	broadcasts   *obs.Counter   // core.fanout.blocks_broadcast
	drainEvents  *obs.Counter   // core.fanout.drain_events
	depth        *obs.Gauge     // core.fanout.depth
	workers      *obs.Gauge     // core.fanout.workers
}

var fanoutBinding = obs.NewBinding(func() *fanoutMetrics {
	return &fanoutMetrics{
		sendWaitNs:   obs.GetHistogram("core.fanout.send_wait_ns"),
		workerWaitNs: obs.GetHistogram("core.fanout.worker_wait_ns"),
		broadcasts:   obs.GetCounter("core.fanout.blocks_broadcast"),
		drainEvents:  obs.GetCounter("core.fanout.drain_events"),
		depth:        obs.GetGauge("core.fanout.depth"),
		workers:      obs.GetGauge("core.fanout.workers"),
	}
})
