package cm5

import (
	"testing"

	"repro/internal/sim"
)

// trafficRun injects k spaced packets 0->1 under plan and returns the
// machine, trace hash, and delivered count.
func trafficRun(t *testing.T, seed int64, jitter sim.Duration, plan *FaultPlan, k int) (*Machine, uint64, int) {
	t.Helper()
	eng := sim.New(seed)
	ht := sim.NewHashTracer()
	eng.SetSink(ht)
	cost := DefaultCostModel()
	cost.WireJitter = jitter
	m := NewMachine(eng, 2, cost)
	defer eng.Shutdown()
	m.SetFaultPlan(plan)
	senderDone := false
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			for !m.Node(0).TryInject(p, &Packet{Src: 0, Dst: 1, Kind: Small, W0: uint64(i)}) {
				p.Charge(sim.Micros(1))
			}
			p.Charge(sim.Micros(10))
		}
		senderDone = true
	})
	received := 0
	eng.Spawn("receiver", func(p *sim.Proc) {
		for p.Now() < sim.Time(sim.Second) {
			if m.Node(1).PollPacket(p) != nil {
				received++
			}
			p.Charge(sim.Micros(5))
			if senderDone && m.Node(1).Pending() == 0 && m.Node(1).nic.reserved == 0 {
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return m, ht.Sum(), received
}

// TestZeroFaultPlanBitIdentical: installing an all-zero plan must leave
// the trace bit-identical to no plan at all, including with wire jitter
// active — the fault RNG is separate from the engine RNG, so the jitter
// draw stream is untouched.
func TestZeroFaultPlanBitIdentical(t *testing.T) {
	_, h0, r0 := trafficRun(t, 5, sim.Micros(15), nil, 30)
	m, h1, r1 := trafficRun(t, 5, sim.Micros(15), &FaultPlan{Seed: 999}, 30)
	if h0 != h1 || r0 != r1 {
		t.Fatalf("zero plan perturbed the run: hash %x/%x received %d/%d", h0, h1, r0, r1)
	}
	if fs := m.FaultStats(); fs != (FaultStats{}) {
		t.Fatalf("zero plan injected faults: %+v", fs)
	}
}

// TestDropLosesPackets: with 30% loss, received + dropped == sent.
func TestDropLosesPackets(t *testing.T) {
	m, _, received := trafficRun(t, 7, 0, &FaultPlan{Seed: 3, DropProb: 0.3}, 100)
	fs := m.FaultStats()
	if fs.Dropped == 0 {
		t.Fatal("no drops at 30% loss")
	}
	if received+int(fs.Dropped) != 100 {
		t.Fatalf("received %d + dropped %d != sent 100", received, fs.Dropped)
	}
	if nf := m.NodeFaults(0); nf.Dropped != fs.Dropped {
		t.Fatalf("per-node attribution: %+v vs %+v", nf, fs)
	}
	if st := m.Stats(); st.SmallSent != 100 {
		t.Fatalf("lost packets must still count as sent: %d", st.SmallSent)
	}
}

// TestDuplicationDeliversExtras: duplicated packets arrive more than once.
func TestDuplicationDeliversExtras(t *testing.T) {
	m, _, received := trafficRun(t, 11, 0, &FaultPlan{Seed: 4, DupProb: 0.4}, 100)
	fs := m.FaultStats()
	if fs.Duplicated == 0 {
		t.Fatal("no duplicates at 40%")
	}
	if received != 100+int(fs.Duplicated) {
		t.Fatalf("received %d, want %d + %d dups", received, 100, fs.Duplicated)
	}
}

// TestLinkOverrideAndPartition: a link override forces total loss, and a
// partition window drops only inside its interval.
func TestLinkOverrideAndPartition(t *testing.T) {
	m, _, received := trafficRun(t, 13, 0, &FaultPlan{
		Seed:  1,
		Links: []LinkFault{{Src: 0, Dst: 1, DropProb: 1.0}},
	}, 20)
	if received != 0 {
		t.Fatalf("full-loss link delivered %d", received)
	}
	if fs := m.FaultStats(); fs.Dropped != 20 {
		t.Fatalf("dropped %d of 20", fs.Dropped)
	}

	// Partition covering roughly the first half of the send window.
	m2, _, received2 := trafficRun(t, 13, 0, &FaultPlan{
		Seed:       1,
		Partitions: []Partition{{Src: -1, Dst: 1, From: 0, To: sim.Time(100 * sim.Microsecond)}},
	}, 20)
	fs2 := m2.FaultStats()
	if fs2.PartitionDrops == 0 || received2 == 0 {
		t.Fatalf("partition all-or-nothing: drops=%d received=%d", fs2.PartitionDrops, received2)
	}
	if received2+int(fs2.PartitionDrops) != 20 {
		t.Fatalf("received %d + partition drops %d != 20", received2, fs2.PartitionDrops)
	}
}

// TestCrashBlackholesTraffic: after the crash instant, packets to the dead
// node vanish (and Crashed reports it); in-flight packets are discarded at
// delivery time and their reservations released.
func TestCrashBlackholesTraffic(t *testing.T) {
	eng := sim.New(2)
	m := NewMachine(eng, 2, DefaultCostModel())
	defer eng.Shutdown()
	m.SetFaultPlan(&FaultPlan{
		Seed:    1,
		Crashes: []Crash{{Node: 1, At: sim.Time(20 * sim.Microsecond)}},
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		if m.Crashed(1) {
			t.Error("crashed before schedule")
		}
		// One packet in flight across the crash instant: injected at ~19us,
		// delivered at ~21.3us > crash time.
		p.Charge(sim.Micros(19) - m.Cost().PacketSendOverhead)
		if !m.Node(0).TryInject(p, &Packet{Src: 0, Dst: 1, Kind: Small}) {
			t.Error("inject failed")
		}
		p.Charge(sim.Micros(30))
		if !m.Crashed(1) || !m.Node(1).Crashed() {
			t.Error("crash did not fire")
		}
		// Post-crash sends "succeed" but are blackholed.
		if !m.Node(0).TryInject(p, &Packet{Src: 0, Dst: 1, Kind: Small}) {
			t.Error("blackholed send must report success")
		}
		p.Charge(sim.Micros(20))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fs := m.FaultStats()
	if fs.Crashes != 1 || fs.LateDrops != 1 || fs.Blackholed != 1 {
		t.Fatalf("stats %+v, want 1 crash, 1 late drop, 1 blackhole", fs)
	}
	if m.Node(1).Pending() != 0 || m.Node(1).nic.reserved > 0 {
		t.Fatalf("dead node holds packets: pending=%d reserved=%d", m.Node(1).Pending(), m.Node(1).nic.reserved)
	}
	if nf := m.NodeFaults(1); nf.Blackholed != 2 {
		t.Fatalf("blackholes attributed to the crashed node: %+v", nf)
	}
}

// TestSlowWindowDelays: deliveries inside a slow window arrive later.
func TestSlowWindowDelays(t *testing.T) {
	arrival := func(plan *FaultPlan) sim.Time {
		eng := sim.New(6)
		m := NewMachine(eng, 2, DefaultCostModel())
		defer eng.Shutdown()
		m.SetFaultPlan(plan)
		var at sim.Time
		eng.Spawn("sender", func(p *sim.Proc) {
			m.Node(0).TryInject(p, &Packet{Src: 0, Dst: 1, Kind: Small})
		})
		eng.Spawn("receiver", func(p *sim.Proc) {
			for at == 0 && p.Now() < sim.Time(sim.Millisecond) {
				if m.Node(1).PollPacket(p) != nil {
					at = p.Now()
				}
				p.Charge(sim.Micros(1))
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	base := arrival(nil)
	slowed := arrival(&FaultPlan{
		Seed: 1,
		Slow: []SlowWindow{{Node: 1, From: 0, To: sim.Time(sim.Millisecond), Extra: sim.Micros(40)}},
	})
	if slowed.Sub(base) < sim.Micros(35) {
		t.Fatalf("slow window added %v, want ~40us", slowed.Sub(base))
	}
}

// TestFaultTraceHashStable: same plan, same seed — identical fault trace
// and counters; different fault seed — different trace.
func TestFaultTraceHashStable(t *testing.T) {
	plan := &FaultPlan{Seed: 8, DropProb: 0.2, DupProb: 0.1}
	m1, _, _ := trafficRun(t, 9, 0, plan, 60)
	m2, _, _ := trafficRun(t, 9, 0, plan, 60)
	if m1.FaultTraceHash() != m2.FaultTraceHash() {
		t.Fatalf("fault hash diverged: %x vs %x", m1.FaultTraceHash(), m2.FaultTraceHash())
	}
	if s1, s2 := m1.FaultStats(), m2.FaultStats(); s1 != s2 {
		t.Fatalf("fault counters diverged: %+v vs %+v", s1, s2)
	}
	other := &FaultPlan{Seed: 1234, DropProb: 0.2, DupProb: 0.1}
	m3, _, _ := trafficRun(t, 9, 0, other, 60)
	if m3.FaultTraceHash() == m1.FaultTraceHash() {
		t.Fatalf("different fault seed produced identical fault trace")
	}
}
