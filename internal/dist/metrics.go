package dist

import "busenc/internal/obs"

// Observability for the distributed sweep, in the same gated style as
// codec's: counters live in the default registry, cost one branch when
// metrics are disabled, and cover the lifecycle events the tests and
// the flight recorder care about — spawns, deaths, retries, journal
// activity — not per-entry work (the workers count that themselves).

// RecordPlan publishes one completed plan: its entry count and its job
// count (dist.plan.shards).
func RecordPlan(entries int64, jobs int) {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.plans").Inc()
	obs.GetGauge("dist.plan.shards").Set(int64(jobs))
	obs.GetGauge("dist.plan.entries").Set(entries)
}

// RecordResume publishes how many jobs a resumed sweep recovered from
// the checkpoint instead of re-pricing.
func RecordResume(jobs int) {
	if !obs.Enabled() || jobs == 0 {
		return
	}
	obs.GetCounter("dist.resume.shards_recovered").Add(int64(jobs))
}

// RecordWorkerSpawn counts one worker (re)spawn.
func RecordWorkerSpawn() {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.worker.spawns").Inc()
}

// RecordWorkerDeath counts one worker death observed by the
// coordinator (EOF or protocol failure with work possibly in flight).
func RecordWorkerDeath() {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.worker.deaths").Inc()
}

// RecordShardRetry counts one job re-dispatched after its worker died.
func RecordShardRetry() {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.shard.retries").Inc()
}

// RecordShardDone counts one job result accepted by the coordinator.
func RecordShardDone() {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.shard.done").Inc()
}

// RecordHeartbeat counts one ping/pong round trip.
func RecordHeartbeat() {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.heartbeats").Inc()
}

// dist.net.* counters cover the TCP peer transport: frame/byte volume
// at the framing layer, trace shipping and digest dedup at the store
// layer, and the supervision events (redispatch, heartbeat timeout)
// that make networked sweeps loss-free. They surface alongside every
// other counter in /metrics?format=prometheus and cmd/paper -metrics.

func recordNetSend(bytes int) {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.net.frames_sent").Inc()
	obs.GetCounter("dist.net.bytes_sent").Add(int64(bytes))
}

func recordNetRecv(bytes int) {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.net.frames_recv").Inc()
	obs.GetCounter("dist.net.bytes_recv").Add(int64(bytes))
}

// recordRedispatch counts one job re-queued after its worker died or
// timed out (a subset of dist.shard.retries scoped to the dispatcher).
func recordRedispatch() {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.net.redispatches").Inc()
}

// recordHeartbeatTimeout counts one worker declared dead for silence.
func recordHeartbeatTimeout() {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.net.heartbeat_timeouts").Inc()
}

// recordTraceShip counts one trace upload to a peer.
func recordTraceShip(bytes int) {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.net.trace_ship_bytes").Add(int64(bytes))
}

// recordTraceDedup counts one peer that already held the digest.
func recordTraceDedup() {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.net.trace_dedup_hits").Inc()
}

// recordClockSample publishes one RTT-midpoint clock-offset sample:
// the latest offset as a gauge (the number added to a worker's clock
// to reach the coordinator's) and the round trip it rode on into a
// histogram, so /metrics shows both the alignment and its error bound.
func recordClockSample(offsetNs, rttNs int64) {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.net.clock_samples").Inc()
	obs.GetGauge("dist.net.clock_offset_ns").Set(offsetNs)
	obs.GetHistogram("dist.net.clock_rtt_ns").Observe(rttNs)
}

// recordSpanHarvest counts one span dump collected from a worker or
// peer at sweep end, and the spans it carried.
func recordSpanHarvest(spans int) {
	if !obs.Enabled() {
		return
	}
	obs.GetCounter("dist.net.span_dumps").Inc()
	obs.GetCounter("dist.net.spans_harvested").Add(int64(spans))
}
