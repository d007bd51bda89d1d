package main

// metricDef names one reported number, as BENCHMARK.json carries it.
// README.md says which end-to-end metric each per-layer metric should
// move, on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Src is T (traced replica: self time = span minus child spans) or S
	// (counter scraped from /v1/stats or counted by the harness).
	Src string
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 8

// endToEnd are the numbers a user of the daemon sees. Every workload
// reports every one of them: where a workload's timed window does not
// exercise a metric, the quiesced epilogue (probe, cursor walk,
// restart) measures it in the state the window left behind.
//
// Each bound is the larger of the issue's figure (10% or 15%) and 1.5×
// the largest run-to-run spread measured on the builder's 2-vCPU guest
// (README, "Measured spread"), capped at the contract's 25%. On that
// box every metric reaches the cap on some workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_obs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "daemon_cpu_us_per_obs", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "daemon_rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "detect_latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "detect_latency_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "query_page_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "query_page_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are single-layer numbers, named after this repo's packages.
var perLayer = []metricDef{
	{Name: "wireclient.encode_ns_per_obs", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "frame.decode_ns_per_obs", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "frame.decode_allocs_per_batch", Unit: "count", Better: "lower", Src: "T"},
	{Name: "frame.entity_ns_per_obs", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "wal.append_ingest_ns_per_obs", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "wal.append_emit_ns_per_inst", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "wal.append_allocs_per_rec", Unit: "count", Better: "lower", Src: "T"},
	{Name: "wal.bytes_per_obs", Unit: "B", Better: "lower", Src: "T"},
	{Name: "wal.syncs", Unit: "count", Better: "lower", Src: "S"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower", Src: "S"},
	{Name: "wal.compacted_segments", Unit: "count", Better: "higher", Src: "S"},
	{Name: "wal.replayed_per_s", Unit: "1/s", Better: "higher", Src: "S"},
	{Name: "engine.ingest_self_ns_per_obs", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "engine.ingest_allocs_per_obs", Unit: "count", Better: "lower", Src: "T"},
	{Name: "engine.ingest_bytes_per_obs", Unit: "B", Better: "lower", Src: "T"},
	{Name: "detect.bindings_probed_per_obs", Unit: "count", Better: "lower", Src: "S"},
	{Name: "detect.bindings_pruned_per_obs", Unit: "count", Better: "higher", Src: "S"},
	{Name: "detect.emitted_per_obs", Unit: "count", Better: "lower", Src: "S"},
	{Name: "detect.truncations", Unit: "count", Better: "lower", Src: "S"},
	{Name: "db.log_batch_ns_per_inst", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "db.log_batch_allocs_per_inst", Unit: "count", Better: "lower", Src: "T"},
	{Name: "db.evicted", Unit: "count", Better: "lower", Src: "S"},
	{Name: "db.stale_index_entries", Unit: "count", Better: "lower", Src: "S"},
	{Name: "db.chunks", Unit: "count", Better: "lower", Src: "S"},
	{Name: "db.read_locks_per_page", Unit: "count", Better: "lower", Src: "S"},
	{Name: "db.scanned_per_returned", Unit: "count", Better: "lower", Src: "S"},
	{Name: "db.query_hot_ns_per_page", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "db.query_cold_ns_per_page", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "db.query_region_ns_per_page", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "segment.segments", Unit: "count", Better: "lower", Src: "S"},
	{Name: "segment.spilled_per_s", Unit: "1/s", Better: "higher", Src: "S"},
	{Name: "segment.blocks_read", Unit: "count", Better: "lower", Src: "S"},
	{Name: "segment.blocks_pruned_share", Unit: "ratio", Better: "higher", Src: "S"},
	{Name: "sub.publish_ns_per_inst", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "sub.delivered", Unit: "count", Better: "higher", Src: "S"},
	{Name: "sub.dropped", Unit: "count", Better: "lower", Src: "S"},
	{Name: "emit.encode_json_ns_per_inst", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "http.page_encode_ns_per_page", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "query.hot_p50_us", Unit: "us", Better: "lower", Src: "S"},
	{Name: "query.cold_p50_us", Unit: "us", Better: "lower", Src: "S"},
	{Name: "query.region_p50_us", Unit: "us", Better: "lower", Src: "S"},
	{Name: "tail.detect_latency_p99_us", Unit: "us", Better: "lower", Src: "S"},
	{Name: "tail.detect_latency_p999_us", Unit: "us", Better: "lower", Src: "S"},
	{Name: "tail.query_page_p999_us", Unit: "us", Better: "lower", Src: "S"},
	{Name: "wire.bytes_per_obs", Unit: "B", Better: "lower", Src: "S"},
	{Name: "wire.slowdowns", Unit: "count", Better: "lower", Src: "S"},
	{Name: "gen.late_max_ms", Unit: "ms", Better: "lower", Src: "S"},
	{Name: "pipeline.traced_ns_per_obs", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "pipeline.closure_ratio", Unit: "ratio", Better: "higher", Src: "T"},
	{Name: "pipeline.outside_ns_per_obs", Unit: "ns", Better: "lower", Src: "T"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Src: "T"},
}
