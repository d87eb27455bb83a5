package main

import (
	"time"

	metricsreg "repro/internal/metrics"
)

// fillLayers derives the per-layer metrics a traced window yields from its
// spans and from registry deltas between two snapshots. Every per-layer
// name is present afterwards; layers the workload bypasses read 0.
// Workload-specific ratios and counts are set by the workload itself.
func fillLayers(r *result, tr *tracer, a, b metricsreg.Snapshot, w *window, ops int64) {
	for _, m := range perLayer {
		if _, ok := r.layer[m.name]; !ok {
			r.layer[m.name] = 0
		}
	}
	w.fill(r, ops)
	if tr == nil {
		return
	}
	st := tr.stats()
	spanLayer(r, st, "rtmp.send", "rtmp.send_us", us, 0.5, 0.99)
	r.layer["rtmp.push_us_p50"] = us(histP50(a, b, "rtmp_push_latency_seconds"))
	r.layer["rtmp.frames_in"] = counterDelta(a, b, "rtmp_frames_in_total")
	r.layer["rtmp.frames_out"] = counterDelta(a, b, "rtmp_frames_out_total")
	r.layer["rtmp.evictions"] = counterDelta(a, b, "rtmp_slow_evictions_total")

	spanLayer(r, st, "origin.ingest", "origin.ingest_us", us, 0.5, 0.99)
	r.layer["origin.chunks_sealed"] = counterDelta(a, b, "cdn_origin_chunks_total")

	journalLayer(r, tr, st, w.wall, ops,
		counterDelta(a, b, "journal_appends_total"), counterDelta(a, b, "journal_batches_total"))

	spanLayer(r, st, "edge.upstream_list", "edge.upstream_list_us", us, 0.5)
	spanLayer(r, st, "edge.upstream_chunk", "edge.upstream_chunk_us", us, 0.5)
	r.layer["edge.sheds"] = counterDelta(a, b, "cdn_sheds_total")
	r.layer["edge.stale_serves"] = counterDelta(a, b, "cdn_stale_serves_total")

	spanLayer(r, st, "hls.list", "hls.list_us", us, 0.5, 0.99)
	spanLayer(r, st, "hls.chunk", "hls.chunk_us", us, 0.5, 0.99)

	spanLayer(r, st, "control.join", "control.join_us", us, 0.5, 0.99)
	spanLayer(r, st, "control.resolve", "control.resolve_us", us, 0.5)
	spanLayer(r, st, "control.start", "control.start_us", us, 0.5)
	spanLayer(r, st, "control.end", "control.end_us", us, 0.5)

	spanLayer(r, st, "pubsub.publish", "pubsub.publish_us", us, 0.5, 0.99)
	r.layer["pubsub.publishes"] = counterDelta(a, b, "pubsub_publishes_total")
}

// lateness records how late an open-loop generator started each op.
func (r *result) setLateness(late []time.Duration) {
	r.layer["gen.late_p99_ms"] = ms(pct(late, 0.99))
}

// nilSnap stands in for registry snapshots where a workload has no
// platform registry.
var nilSnap metricsreg.Snapshot
