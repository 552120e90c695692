package main

// metricDef names one reported metric. The end-to-end and per-layer
// lists here are the ones BENCHMARK.json declares; a test keeps the two
// in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics the untraced run's result object carries,
// ones every workload exercises and that repeat closely enough across
// runs to gate on. tableOnly are printed in the run's table but left
// out: the p99s move by up to half their median from run to run on a
// shared 2-vCPU host, branch_* and read_* are exercised by one workload,
// and p_block and failed_frac are zero in every correct run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"connect_p50_us", "us", "lower"},
	{"disconnect_p50_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var tableOnly = []metricDef{
	{"connect_p99_us", "us", "lower"},
	{"disconnect_p99_us", "us", "lower"},
	{"branch_p50_us", "us", "lower"},
	{"branch_p99_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"p_block", "ratio", "lower"},
	{"failed_frac", "ratio", "lower"},
}

// perLayer are the metrics every traced run reports. Counts of events
// that did not happen (blocks, retries, sync timeouts) read 0, and a
// workload without a WAL reports the durable and cluster layers from the
// ladder's semisync rung.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fabric.add_us", "us", "lower"},
		{"fabric.add_p99_us", "us", "lower"},
		{"fabric.branch_us", "us", "lower"},
		{"fabric.release_us", "us", "lower"},
		{"fabric.middles_used_per_add", "middles/add", "lower"},
		{"fabric.calls", "count", "higher"},
		{"fabric.blocked", "count", "lower"},
		{"http.handler_us", "us", "lower"},
		{"http.handler_self_us", "us", "lower"},
		{"http.respond_us", "us", "lower"},
		{"switchd.admission_wait_us", "us", "lower"},
		{"switchd.lock_wait_us", "us", "lower"},
		{"obs.status_us", "us", "lower"},
		{"obs.scrape_us", "us", "lower"},
		{"obs.scrape_bytes", "B", "lower"},
		{"durable.wal_append_us", "us", "lower"},
		{"durable.records_per_fsync", "records/fsync", "higher"},
		{"durable.bytes_per_record", "B/record", "lower"},
		{"durable.recovery_records", "records", "lower"},
		{"cluster.commit_wait_us", "us", "lower"},
		{"cluster.sync_timeouts", "count", "lower"},
		{"cluster.standby_lag_records", "records", "lower"},
		{"traffic.gen_self_frac", "ratio", "lower"},
		{"client.rtt_self_us", "us", "lower"},
		{"client.retries", "count", "lower"},
		{"trace_overhead_frac", "ratio", "lower"},
	}
	for _, rung := range ladderRungs {
		defs = append(defs,
			metricDef{"ladder." + rung + ".ns_per_op", "ns/op", "lower"},
			metricDef{"ladder." + rung + ".allocs_per_op", "allocs/op", "lower"},
			metricDef{"ladder." + rung + ".bytes_per_op", "B/op", "lower"},
		)
	}
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick builds the result's metric map from values for exactly defs;
// a def with no value reports 0.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
