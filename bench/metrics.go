package main

import (
	"repro/internal/apps"
	"repro/internal/sim"
)

// metricSpec declares one metric. BENCHMARK.json repeats this table; the
// package test fails if the two disagree. bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricSpec struct {
	name   string
	unit   string // "sim_us" is virtual microseconds: the simulated machine's clock, not the host's
	better string
	bound  float64
}

// metricValue is one measured metric.
type metricValue struct {
	name  string
	unit  string
	value float64
}

// End-to-end metrics. An op is one RPC round trip (null_*), one client
// request arrival (kv_*), or one application run (apps_quick).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_ns_per_event", "ns", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"alloc_bytes_per_op", "B", "lower", 0.08},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"sim_lat_p50_us", "sim_us", "lower", 0.20},
	{"sim_lat_p99_us", "sim_us", "lower", 0.25},
	{"sim_goodput_per_ms", "1/sim_ms", "higher", 0.15},
	{"sim_ok_frac", "ratio", "higher", 0.02},
	{"sim_threads_per_op", "count", "lower", 0.12},
	{"oam_success_pct", "%", "higher", 0.12},
}

func us(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues reduces a measurement to the end-to-end metrics, in
// table order. Every host-time figure comes from the fast decile of
// per-rep wall time.
func endToEndValues(m *measured) []metricValue {
	s := &m.first
	ops := float64(s.ops)
	wall := quantile(m.walls, 0.10)
	lat := make([]float64, len(m.lat))
	for i, d := range m.lat {
		lat[i] = us(d)
	}
	success := 100.0 // the repo's convention when a run dispatches no OAM
	if s.n.oams > 0 {
		success = 100 * float64(s.n.oamOK) / float64(s.n.oams)
	}
	v := []float64{
		quantile(m.builds, 0.10) / 1e9,
		ratio(ops, wall/1e9),
		ratio(wall, float64(s.n.events)),
		ratio(float64(m.mallocs), float64(m.ops)),
		ratio(float64(m.bytes), float64(m.ops)),
		float64(peakRSSBytes()) / (1 << 20),
		quantile(lat, 0.50),
		quantile(lat, 0.99),
		ratio(float64(s.ok), float64(s.simSpan)/float64(sim.Millisecond)),
		ratio(float64(s.ok), ops),
		ratio(float64(s.n.created), ops),
		success,
	}
	out := make([]metricValue, len(endToEnd))
	for i, spec := range endToEnd {
		out[i] = metricValue{spec.name, spec.unit, v[i]}
	}
	return out
}

// perLayer lists the per-layer metrics; layer = module name. Host
// numbers are fast-decile ns at GOMAXPROCS=1 from the ladder; counts
// come from each layer's public Stats() on the workload's reps.
var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"sim.ns_per_handoff", "ns", "lower", 0},
		{"sim.ns_per_inline_event", "ns", "lower", 0},
		{"sim.ns_per_timer", "ns", "lower", 0},
		{"sim.ns_per_spawn", "ns", "lower", 0},
		{"sim.self_ns", "ns", "lower", 0},
		{"sim.events_per_op", "count", "lower", 0},
		{"sim.handoffs_per_op", "count", "lower", 0},
		{"sim.charged_us_per_op", "sim_us", "lower", 0},
		{"sim.shard2_conservative_ratio", "ratio", "lower", 0},
		{"sim.shard2_optimistic_ratio", "ratio", "lower", 0},
		{"sim.shard2_windows", "count", "lower", 0},
		{"sim.shard2_barrier_ns", "ns", "lower", 0},

		{"cm5.ns_per_roundtrip", "ns", "lower", 0},
		{"cm5.self_ns", "ns", "lower", 0},
		{"cm5.allocs_per_packet", "count", "lower", 0},
		{"cm5.packets_per_op", "count", "lower", 0},
		{"cm5.full_rejects", "count", "lower", 0},
		{"cm5.max_queue", "count", "lower", 0},

		{"threads.ns_per_roundtrip", "ns", "lower", 0},
		{"threads.self_ns", "ns", "lower", 0},
		{"threads.ns_per_create_exit", "ns", "lower", 0},
		{"threads.ns_per_yield", "ns", "lower", 0},
		{"threads.created_per_op", "count", "lower", 0},
		{"threads.switch_halves_per_op", "count", "lower", 0},
		{"threads.live_stack_pct", "%", "higher", 0},

		{"am.ns_per_roundtrip", "ns", "lower", 0},
		{"am.self_ns", "ns", "lower", 0},
		{"am.sim_rtt_us", "sim_us", "lower", 0},
		{"am.sim_rtt_busy_us", "sim_us", "lower", 0},
		{"am.handlers_per_op", "count", "lower", 0},
		{"am.drain_spins", "count", "lower", 0},

		{"oam.ns_per_commit", "ns", "lower", 0},
		{"oam.ns_per_promote", "ns", "lower", 0},
		{"oam.self_ns", "ns", "lower", 0},
		{"oam.promoted_per_op", "count", "lower", 0},
		{"oam.aborts.lock-busy", "count", "lower", 0},
		{"oam.aborts.too-long", "count", "lower", 0},
		{"oam.compat_admitted", "count", "higher", 0},
		{"oam.compat_queued", "count", "lower", 0},
		{"oam.budget_raised", "count", "lower", 0},
		{"oam.budget_lowered", "count", "lower", 0},

		{"rpc.ns_per_call_orpc", "ns", "lower", 0},
		{"rpc.ns_per_call_trpc", "ns", "lower", 0},
		{"rpc.self_ns", "ns", "lower", 0},
		{"rpc.wire_ns_per_kb", "ns", "lower", 0},
		{"rpc.retries_per_op", "count", "lower", 0},
		{"rpc.timeouts_per_op", "count", "lower", 0},
		{"rpc.giveups_per_op", "count", "lower", 0},
		{"rpc.stale_replies", "count", "lower", 0},
		{"rpc.table1_err_pct", "%", "lower", 0},

		{"reliable.ns_per_call_added", "ns", "lower", 0},
		{"reliable.retransmits_per_op", "count", "lower", 0},
		{"reliable.dups_suppressed_per_op", "count", "lower", 0},
		{"reliable.acks_per_op", "count", "lower", 0},
		{"reliable.gave_up", "count", "lower", 0},

		{"kv.sheds_per_op", "count", "lower", 0},
		{"kv.shed_giveups", "count", "lower", 0},
		{"kv.timeout_giveups", "count", "lower", 0},
		{"kv.drops", "count", "lower", 0},
		{"kv.dedup_hits", "count", "lower", 0},
		{"kv.check_ms", "ms", "lower", 0},

		{"obs.ns_per_call_added", "ns", "lower", 0},

		{"bench.reps", "count", "higher", 0},
		{"bench.rep_ms_p50", "ms", "lower", 0},
		{"bench.rep_ms_p90", "ms", "lower", 0},
		{"bench.rep_spread_pct", "%", "lower", 0},
		{"bench.cold_first_rep_s", "s", "lower", 0},
		{"bench.trace_overhead_pct", "%", "lower", 0},
		{"bench.failed_frac", "ratio", "lower", 0},
	}
	for _, app := range []string{"triangle", "tsp", "sor", "water"} {
		for _, sys := range apps.Systems {
			cell := "apps." + app + "_" + sys.String()
			l = append(l, metricSpec{cell + "_sim_ms", "sim_ms", "lower", 0}, metricSpec{cell + "_host_ms", "ms", "lower", 0})
		}
	}
	return l
}()
