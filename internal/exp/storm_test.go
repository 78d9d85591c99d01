package exp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// kernelStorm is the two-node small-packet storm behind the kernel
// allocation budgets: node 0 streams small Active Messages, node 1 polls
// them in. warmup packets fill the event/packet pools; allocations are
// then counted over the next packets, so the figure is the steady-state
// per-packet cost, not one-time slab fills. With c non-nil a live metrics
// sink is attached to every layer (nil is the shipped default: probes
// stay nil and the hot path never branches into the collector).
func kernelStorm(tb testing.TB, warmup, packets int, c *obs.Collector) (allocsPerPacket, nsPerEvent float64) {
	tb.Helper()
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	if c != nil {
		c.Attach(u, nil)
	}
	received := 0
	h := u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { received++ })
	var m0, m1 runtime.MemStats
	total := warmup + packets
	start := time.Now()
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < warmup; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			// Steady state: pools are warm, every send/deliver/poll from
			// here on should recycle rather than allocate.
			runtime.ReadMemStats(&m0)
			for i := 0; i < packets; i++ {
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
			}
			runtime.ReadMemStats(&m1)
			return
		}
		for received < total {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
		}
	})
	wall := time.Since(start)
	if err != nil {
		tb.Fatalf("kernel storm deadlocked: %v", err)
	}
	if received != total {
		tb.Fatalf("kernel storm lost packets: %d of %d", received, total)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(packets),
		float64(wall.Nanoseconds()) / float64(eng.Events())
}

// TestKernelStormDisabledZeroAllocs re-states the kernel allocation
// budget above every layer's probe hooks: with no collector attached the
// probes are nil, the hot path never branches into obs, and the
// steady-state window must not allocate.
func TestKernelStormDisabledZeroAllocs(t *testing.T) {
	allocs, _ := kernelStorm(t, 2_000, 10_000, nil)
	if allocs >= 0.01 {
		t.Fatalf("uninstrumented hot path allocates %.4f objects/packet, want 0", allocs)
	}
}

// TestKernelStormObserved is the instrumentation-on counterpart: the live
// metrics sink sees every packet and handler run (so its cost is the cost
// of real work, not of a detached collector), the observed counters agree
// with the storm's own accounting, and the sink stays within its
// per-packet allocation budget.
func TestKernelStormObserved(t *testing.T) {
	warmup, packets := 1_000, 5_000
	c := obs.New(obs.Options{Metrics: true})
	allocs, nsPerEvent := kernelStorm(t, warmup, packets, c)
	reg := c.Registry()
	if reg == nil {
		t.Fatal("observed storm has no metrics registry")
	}
	total := uint64(warmup + packets)
	for _, name := range []string{"cm5/packets_sent", "cm5/packets_delivered", "am/handlers_run"} {
		if got := reg.CounterTotal(name); got != total {
			t.Errorf("%s = %d, want %d", name, got, total)
		}
	}
	if allocs >= 0.05 {
		t.Errorf("live metrics sink allocates %.4f objects/packet, budget 0.05", allocs)
	}
	t.Logf("observed storm: %.0f ns/event, %.3f allocs/packet", nsPerEvent, allocs)
}

// ringPass is what one ring-storm pass leaves behind: the virtual results
// every engine configuration must agree on, and the engine's own host-time
// counters.
type ringPass struct {
	events  uint64
	charged sim.Duration
	ov      sim.WindowOverhead
	opt     sim.OptStats
}

// dispatchLossNs is the part of the parallel spans' wall time that no
// shard spent in its kernel: handshake latency, straggler imbalance and
// runtime scheduling, which the barrier time alone hides.
func (p ringPass) dispatchLossNs(shards int) int64 {
	if loss := p.ov.WindowWallNs - p.ov.ShardBusyNs/int64(shards); loss > 0 {
		return loss
	}
	return 0
}

// ringStorm runs the nodes-wide ring storm once — every node streams
// small messages to its right neighbour while polling its own arrivals —
// at the given shard count (1 = the sequential kernel) and span width.
func ringStorm(tb testing.TB, nodes, packets, shards int, mode sim.ShardMode) ringPass {
	tb.Helper()
	eng := sim.NewShardedConfig(1, sim.ShardConfig{Shards: shards, Mode: mode})
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())
	received := make([]int, nodes)
	h := u.Register("ring", func(c threads.Ctx, pkt *cm5.Packet) { received[pkt.Dst]++ })
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		dst := (node + 1) % nodes
		for i := 0; i < packets; i++ {
			ep.Send(c, dst, h, [4]uint64{uint64(i)}, nil)
			if i%8 == 7 {
				c.P.Charge(sim.Micros(2))
				ep.PollAll(c)
			}
		}
		for received[node] < packets {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
		}
	})
	if err != nil {
		tb.Fatalf("ring storm (shards=%d, optimistic=%v) deadlocked: %v", shards, mode == sim.Optimistic, err)
	}
	return ringPass{eng.Events(), eng.Charged(), eng.WindowOverhead(), eng.OptStats()}
}

// requireSameAsSequential fails the test or benchmark when a sharded pass
// did not reproduce the sequential pass's virtual results: that is the
// sharded kernels' core contract, and a host-time number taken from a
// diverged run measures a different workload.
func requireSameAsSequential(tb testing.TB, name string, got, seq ringPass) {
	tb.Helper()
	if got.events != seq.events || got.charged != seq.charged {
		tb.Fatalf("%s ring storm diverged from sequential: events %d vs %d, charged %v vs %v",
			name, got.events, seq.events, got.charged, seq.charged)
	}
}

// TestOptimisticBenchPass: the ring storm the benchmark below times runs
// at both span widths, matches the sequential pass bit for bit, and keeps
// its schedule: the span counts are deterministic, and the two constants
// are what the lockstep window coordinator (since deleted) and the span
// coordinator committed for this storm. A change to span cutting that
// turns either width into a different schedule fails here. Host time is
// never asserted — that is BenchmarkRingStorm's job, read by CI.
func TestOptimisticBenchPass(t *testing.T) {
	const nodes, packets, shards = 4, 400, 2
	const wantWindows, wantSpans = 700, 23
	seq := ringStorm(t, nodes, packets, 1, sim.Conservative)
	cons := ringStorm(t, nodes, packets, shards, sim.Conservative)
	opt := ringStorm(t, nodes, packets, shards, sim.Optimistic)
	requireSameAsSequential(t, "conservative", cons, seq)
	requireSameAsSequential(t, "optimistic", opt, seq)
	if cons.ov.Windows != wantWindows {
		t.Errorf("conservative pass committed %d windows, want %d", cons.ov.Windows, wantWindows)
	}
	if opt.opt.Spans != wantSpans {
		t.Errorf("optimistic pass committed %d spans, want %d", opt.opt.Spans, wantSpans)
	}
	if cons.opt.SpecEvents != 0 || cons.opt.Reopens != 0 {
		t.Errorf("conservative pass speculated: %+v", cons.opt)
	}
	if opt.opt.SpecEvents == 0 {
		t.Errorf("optimistic pass executed no speculative events: %+v", opt)
	}
	for name, p := range map[string]ringPass{"conservative": cons, "optimistic": opt} {
		if p.ov.WindowWallNs <= 0 || p.ov.ShardBusyNs <= 0 {
			t.Errorf("%s window overhead breakdown not populated: %+v", name, p.ov)
		}
	}
}

// BenchmarkRingStorm times the 8-node ring storm on the sequential kernel
// and at 2 shards at each span width, with the engine's own account of
// where a sharded pass's host time went: spans (reported as windows at
// the lockstep width), coordinator barrier time, dispatch loss and shard
// blocks. It is the input to the
// one-parallel-kernel question (ROADMAP item 3); on a host with fewer than
// 2 CPUs the sharded rows time-slice one core and only measure scheduling
// overhead. Counters are those of the last pass.
func BenchmarkRingStorm(b *testing.B) {
	const nodes, packets, shards = 8, 5_000, 2
	seq := ringStorm(b, nodes, packets, 1, sim.Conservative)
	for _, cfg := range []struct {
		name   string
		shards int
		mode   sim.ShardMode
	}{
		{"sequential", 1, sim.Conservative},
		{"conservative", shards, sim.Conservative},
		{"optimistic", shards, sim.Optimistic},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var p ringPass
			for i := 0; i < b.N; i++ {
				p = ringStorm(b, nodes, packets, cfg.shards, cfg.mode)
				requireSameAsSequential(b, cfg.name, p, seq)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.events), "ns/event")
			if cfg.mode == sim.Optimistic {
				b.ReportMetric(float64(p.opt.Spans), "spans")
			} else {
				b.ReportMetric(float64(p.ov.Windows), "windows")
			}
			b.ReportMetric(float64(p.ov.BarrierNs), "barrier_ns")
			b.ReportMetric(float64(p.dispatchLossNs(cfg.shards)), "dispatch_loss_ns")
			b.ReportMetric(float64(p.opt.Stalls), "stalls")
		})
	}
}

// kernelCounts is what a run cost the simulation (events, charged: exact
// and engine-independent) and the host (handoffs: dispatches that crossed
// coroutines; switches: the next and yield calls that took).
type kernelCounts struct {
	events, handoffs, switches uint64
	charged                    sim.Duration
}

func countsOf(eng *sim.Engine) kernelCounts {
	return kernelCounts{eng.Events(), eng.Handoffs(), eng.Switches(), eng.Charged()}
}

// nullLoopCounts is nullRPC's loop — Table 1's null call against an idle
// or a poll-and-yield server — with the engine read around the calls.
func nullLoopCounts(t *testing.T, mode rpc.Mode, busyServer bool, trips int) kernelCounts {
	t.Helper()
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: mode})
	inc := rt.Define("inc", func(e *oam.Env, caller int, arg []byte) []byte { return nil })
	stop := false
	done := rt.DefineAsync("done", func(e *oam.Env, caller int, arg []byte) []byte {
		stop = true
		return nil
	})
	var before, after kernelCounts
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			for ep := u.Endpoint(1); busyServer && !stop; {
				ep.Poll(c)
				c.S.Yield(c)
			}
			return
		}
		inc.Call(c, 1, nil) // the first call also starts the server's scheduler
		before = countsOf(eng)
		for i := 0; i < trips; i++ {
			inc.Call(c, 1, nil)
		}
		after = countsOf(eng)
		done.CallAsync(c, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	return kernelCounts{after.events - before.events, after.handoffs - before.handoffs, after.switches - before.switches, after.charged - before.charged}
}

// TestHandoffBudget locks the switch count of the message path in the way
// the allocation budgets lock its garbage: per null call and for two kv
// cells, Events and Charged are the simulation's and equal the constants
// read off the kernel that queued every charge and switched to a process
// between a packet's ejection and its handler dispatch; Handoffs may not
// exceed what is left when a process is switched to only for what needs its
// stack — a handler, a thread's own code — and not to charge again or to look
// around and park (sim.Continuation), nor Switches what a handoff costs when
// the holder of the kernel calls the next process itself. A change that
// brings back a switch per message, per wakeup or per ack, or the hop home,
// fails here, not only in the benchmark.
func TestHandoffBudget(t *testing.T) {
	const trips = 1000
	for _, tc := range []struct {
		name string
		mode rpc.Mode
		busy bool
		// events and charged exact; handoffs and switches ceilings: per call
		// 2 below PR 20's on the busy rows (8, 10) and 1 on idle TRPC, whose
		// one unwind a call keeps its switches at 4
		want kernelCounts
	}{
		{"null ORPC, idle server", rpc.ORPC, false, kernelCounts{12 * trips, 2 * trips, 2 * trips, trips * sim.Micros(9)}},
		{"null ORPC, busy server", rpc.ORPC, true, kernelCounts{32 * trips, 6 * trips, 6 * trips, trips * sim.Micros(18.5)}},
		{"null TRPC, idle server", rpc.TRPC, false, kernelCounts{15 * trips, 3 * trips, 4 * trips, trips * sim.Micros(16)}},
		{"null TRPC, busy server", rpc.TRPC, true, kernelCounts{38 * trips, 8 * trips, 8 * trips, trips * sim.Micros(78.4)}},
	} {
		got := nullLoopCounts(t, tc.mode, tc.busy, trips)
		if got.events != tc.want.events || got.charged != tc.want.charged {
			t.Errorf("%s: %d events, %v charged; the simulation is %d and %v", tc.name, got.events, got.charged, tc.want.events, tc.want.charged)
		}
		if got.handoffs > tc.want.handoffs || got.switches > tc.want.switches {
			t.Errorf("%s: %d handoffs, %d switches over %d calls, budget %d and %d", tc.name, got.handoffs, got.switches, trips, tc.want.handoffs, tc.want.switches)
		}
	}

	// The quick grid's steady ORPC cell at half the knee, then the
	// benchmark's kv_steady (2869 arrivals: 15.0 handoffs and 20.5 switches
	// an operation, from 24.86 and 36.24); whole runs, Shutdown's kills
	// included. PR 20's kernel read 6893 and 9122 on the first.
	quick := kv.Config{System: apps.ORPC, Seed: 17, Servers: 4, Clients: 32, Duration: sim.Micros(8000), RateX: 0.5}
	steady := kv.Config{System: apps.ORPC, Seed: 17, Servers: 4, Clients: 48, Duration: sim.Micros(24000), RateX: 1}
	for _, tc := range []struct {
		name string
		cfg  kv.Config
		want kernelCounts
	}{
		{"kv quick cell", quick, kernelCounts{12196, 3500, 4400, sim.Micros(20335.8)}},
		{"kv_steady", steady, kernelCounts{106849, 43035, 58814, sim.Micros(191682.2)}},
	} {
		var eng *sim.Engine
		tc.cfg.Observe = func(u *am.Universe, _ *rpc.Runtime) { eng = u.Machine().Engine() }
		if _, _, err := kv.Run(tc.cfg); err != nil {
			t.Fatal(err)
		}
		got := countsOf(eng)
		if got.events != tc.want.events || got.charged != tc.want.charged {
			t.Errorf("%s: %d events, %v charged; the simulation is %d and %v", tc.name, got.events, got.charged, tc.want.events, tc.want.charged)
		}
		if got.handoffs > tc.want.handoffs || got.switches > tc.want.switches {
			t.Errorf("%s: %d handoffs, %d switches, budget %d and %d", tc.name, got.handoffs, got.switches, tc.want.handoffs, tc.want.switches)
		}
	}
}
