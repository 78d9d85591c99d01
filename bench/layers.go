package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
)

// extras are the per-layer measurements a traced run takes beside the
// workload's own reps.
type extras struct {
	ladder       *ladderResult
	shardRatio   [2]float64 // Shards:2 rep wall / sequential rep wall: conservative, optimistic
	shardWindows uint64
	shardBarrier time.Duration
}

const shardedReps = 4

// measureSharded repeats a kv workload's rep on two shards. At one P the
// two shard runners are serialized, so the ratio to the sequential rep
// is the kernel's windowing overhead, not a speed-up.
func (x *extras) measureSharded(w *kvWorkload, m *measured, tr *tracer) {
	seq := quantile(append(append([]float64(nil), m.walls...), m.traced...), 0.10)
	for mode, optimistic := range []bool{false, true} {
		var walls []float64
		for i := 0; i < shardedReps; i++ {
			runtime.GC()
			s := w.sharded(optimistic)
			tr.span(fmt.Sprintf("sharded rep (optimistic=%v)", optimistic), s.start, s.wall(), 0)
			walls = append(walls, float64(s.wall()))
			if !optimistic {
				x.shardWindows, x.shardBarrier = s.shardWindows, s.shardBarrier
			}
		}
		x.shardRatio[mode] = ratio(quantile(walls, 0.10), seq)
	}
}

// noiseReport is the sample-size and spread report printed beside every
// host number.
func noiseReport(m *measured) []metricValue {
	walls := append(append([]float64(nil), m.walls...), m.traced...)
	p10, p50, p90 := quantile(walls, 0.10), quantile(walls, 0.50), quantile(walls, 0.90)
	return []metricValue{
		{"bench.reps", "count", float64(m.reps)},
		{"bench.rep_ms_p50", "ms", p50 / 1e6},
		{"bench.rep_ms_p90", "ms", p90 / 1e6},
		{"bench.rep_spread_pct", "%", 100 * ratio(p50-p10, p10)},
		{"bench.cold_first_rep_s", "s", m.coldRep.Seconds()},
		{"bench.failed_frac", "ratio", ratio(float64(m.failed), float64(m.reps))},
	}
}

// paperTable1 is the paper's Table 1 (us), idle then busy server.
var paperTable1 = map[string][2]float64{"ORPC": {14, 14}, "TRPC": {21, 74}}

// readTable1 reads exp.Table1, the repo's own reproduction (64 trips per
// cell): the AM row's round trips in virtual us, and the mean relative
// distance of the four RPC figures from the paper's.
func readTable1() (amIdle, amBusy, errPct float64) {
	for _, row := range exp.Table1() {
		got := [2]float64{us(row.NoThread), us(row.Busy)}
		paper, ok := paperTable1[row.System]
		if !ok {
			amIdle, amBusy = got[0], got[1]
			continue
		}
		for i, want := range paper {
			errPct += 100 * math.Abs(got[i]-want) / want / 4
		}
	}
	return amIdle, amBusy, errPct
}

// perLayerValues reduces a traced measurement to the per-layer metrics,
// in table order. Counts are per op of the workload's first timed rep.
func perLayerValues(m *measured, x *extras) []metricValue {
	n, l := &m.first.n, x.ladder
	ops := float64(m.first.ops)
	per := func(c uint64) float64 { return ratio(float64(c), ops) }
	amIdle, amBusy, table1Err := readTable1()
	v := map[string]float64{
		"sim.ns_per_handoff":            l.ns["sim.handoff"],
		"sim.ns_per_inline_event":       l.ns["sim.inline"],
		"sim.ns_per_timer":              l.ns["sim.timer"],
		"sim.ns_per_spawn":              l.ns["sim.spawn"],
		"sim.self_ns":                   l.self("sim"),
		"sim.events_per_op":             per(n.events),
		"sim.handoffs_per_op":           per(n.handoffs),
		"sim.charged_us_per_op":         ratio(us(n.charged), ops),
		"sim.shard2_conservative_ratio": x.shardRatio[0],
		"sim.shard2_optimistic_ratio":   x.shardRatio[1],
		"sim.shard2_windows":            float64(x.shardWindows),
		"sim.shard2_barrier_ns":         float64(x.shardBarrier),

		"cm5.ns_per_roundtrip":  l.ns["cm5"],
		"cm5.self_ns":           l.self("cm5"),
		"cm5.allocs_per_packet": l.mallocs["cm5"] / 2,
		"cm5.packets_per_op":    per(n.packets),
		"cm5.full_rejects":      float64(n.fullRejects),
		"cm5.max_queue":         float64(n.maxQueue),

		"threads.ns_per_roundtrip":     l.ns["threads"],
		"threads.self_ns":              l.self("threads"),
		"threads.ns_per_create_exit":   l.ns["threads.create_exit"],
		"threads.ns_per_yield":         l.ns["threads.yield"],
		"threads.created_per_op":       per(n.created),
		"threads.switch_halves_per_op": per(n.switchHalves),
		"threads.live_stack_pct":       100, // the repo's convention when no thread started
		"am.ns_per_roundtrip":          l.ns["am"],
		"am.self_ns":                   l.self("am"),
		"am.sim_rtt_us":                amIdle,
		"am.sim_rtt_busy_us":           amBusy,
		"am.handlers_per_op":           per(n.handlers),
		"am.drain_spins":               float64(n.drainSpins),

		"oam.ns_per_commit":     l.ns["oam"],
		"oam.ns_per_promote":    l.ns["oam.promote"],
		"oam.self_ns":           l.self("oam"),
		"oam.promoted_per_op":   per(n.promoted),
		"oam.aborts.lock-busy":  float64(n.lockBusy),
		"oam.aborts.too-long":   float64(n.tooLong),
		"oam.compat_admitted":   float64(n.compatAdmitted),
		"oam.compat_queued":     float64(n.compatQueued),
		"oam.budget_raised":     float64(n.budgetUp),
		"oam.budget_lowered":    float64(n.budgetDown),
		"rpc.ns_per_call_orpc":  l.ns["rpc"],
		"rpc.ns_per_call_trpc":  l.ns["rpc.trpc"],
		"rpc.self_ns":           l.self("rpc"),
		"rpc.wire_ns_per_kb":    l.ns["rpc.wire"],
		"rpc.retries_per_op":    per(n.retries),
		"rpc.timeouts_per_op":   per(n.timeouts),
		"rpc.giveups_per_op":    per(n.giveups),
		"rpc.stale_replies":     float64(n.stale),
		"rpc.table1_err_pct":    table1Err,
		"obs.ns_per_call_added": l.ns["obs"] - l.ns["rpc"],

		"reliable.ns_per_call_added":      l.ns["reliable"] - l.ns["rpc"],
		"reliable.retransmits_per_op":     per(n.retransmits),
		"reliable.dups_suppressed_per_op": per(n.dupsSuppressed),
		"reliable.acks_per_op":            per(n.acks),
		"reliable.gave_up":                float64(n.relGaveUp),

		"kv.sheds_per_op":    per(n.sheds),
		"kv.shed_giveups":    float64(n.shedGiveups),
		"kv.timeout_giveups": float64(n.timeoutGiveups),
		"kv.drops":           float64(n.drops),
		"kv.dedup_hits":      float64(n.dedupHits),
		"kv.check_ms":        quantile(m.checks, 0.50) / 1e6,

		"bench.trace_overhead_pct": 100 * (ratio(quantile(m.traced, 0.10), quantile(m.walls, 0.10)) - 1),
	}
	if n.starts > 0 {
		v["threads.live_stack_pct"] = 100 * float64(n.liveStarts) / float64(n.starts)
	}
	for _, nv := range noiseReport(m) {
		v[nv.name] = nv.value
	}
	for i, c := range m.first.cells {
		cell := "apps." + c.app + "_" + c.sys.String()
		v[cell+"_sim_ms"] = float64(c.simTime) / float64(sim.Millisecond)
		v[cell+"_host_ms"] = quantile(m.cellHost[i], 0.10) / 1e6
	}
	out := make([]metricValue, len(perLayer))
	for i, spec := range perLayer {
		out[i] = metricValue{spec.name, spec.unit, v[spec.name]}
		delete(v, spec.name)
	}
	for name := range v {
		panic("bench: metric " + name + " is not declared in perLayer")
	}
	return out
}
