package cm5

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// lazyChaosResult is everything observable about one chaos run that the
// lazy/eager and shard-count comparisons assert on.
type lazyChaosResult struct {
	traceHash uint64
	faultHash uint64
	received  [2]int
	fs        FaultStats
	nfCrash   NodeFaultStats
}

// lazyChaosRun drives two traffic pairs on a 64-node machine whose fault
// plan also targets nodes the traffic never touches: node 40 crashes and
// node 50 sits behind a partition, and in the lazy run neither is ever
// materialized. With pretouch, every node is eagerly materialized before
// the run — the pre-lazy behavior the lazy path must be indistinguishable
// from.
func lazyChaosRun(t *testing.T, shards int, pretouch bool) lazyChaosResult {
	t.Helper()
	eng := sim.NewSharded(17, shards)
	tr := sim.NewCanonicalTracer()
	eng.SetSink(tr)
	cost := DefaultCostModel()
	cost.WireJitter = sim.Micros(3)
	m := NewMachine(eng, 64, cost)
	defer eng.Shutdown()
	m.SetFaultPlan(&FaultPlan{
		Seed:     5,
		DropProb: 0.15,
		Crashes: []Crash{
			{Node: 40, At: sim.Time(10 * sim.Microsecond)}, // never materialized in the lazy run
			{Node: 1, At: sim.Time(250 * sim.Microsecond)}, // receiver crashes under load
		},
		Partitions: []Partition{
			{Src: 2, Dst: 50, From: 0, To: sim.Time(sim.Millisecond)}, // dst never materialized
			{Src: 0, Dst: 1, From: sim.Time(100 * sim.Microsecond), To: sim.Time(180 * sim.Microsecond)},
		},
	})
	if pretouch {
		for i := 0; i < m.N(); i++ {
			m.Node(i)
		}
	}
	res := &lazyChaosResult{}
	deadline := sim.Time(sim.Millisecond)
	// Pair 1 crosses shards at every tested shard count > 1
	// (shardIndex(35) != shardIndex(2) for 2 and 4 shards of 64 nodes).
	pairs := [2][2]int{{0, 1}, {2, 35}}
	const k = 40
	for pi, pr := range pairs {
		pi, src, dst := pi, pr[0], pr[1]
		sn, rn := m.Node(src), m.Node(dst)
		sn.Shard().Spawn(fmt.Sprintf("send/%d", pi), func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				for !sn.TryInject(p, &Packet{Src: src, Dst: dst, Kind: Small, W0: uint64(i)}) {
					p.Charge(sim.Micros(1))
				}
				p.Charge(sim.Micros(10))
			}
		})
		rn.Shard().Spawn(fmt.Sprintf("recv/%d", pi), func(p *sim.Proc) {
			for p.Now() < deadline {
				if rn.PollPacket(p) != nil {
					res.received[pi]++
				}
				p.Charge(sim.Micros(5))
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !pretouch {
		for _, i := range []int{40, 50} {
			if m.nodes[i] != nil {
				t.Fatalf("shards=%d: fault plan materialized untargeted node %d", shards, i)
			}
		}
	}
	res.traceHash = tr.Hash()
	res.faultHash = m.FaultTraceHash()
	res.fs = m.FaultStats()
	res.nfCrash = m.NodeFaults(40)
	if !m.Crashed(40) || !m.Crashed(1) {
		t.Fatalf("shards=%d: crash schedule did not fire", shards)
	}
	if nf := m.NodeFaults(50); nf != (NodeFaultStats{}) {
		t.Fatalf("shards=%d: partitioned-but-idle node accrued faults: %+v", shards, nf)
	}
	return *res
}

// TestLazyMaterializationChaosEquivalence: a fault plan that crashes and
// partitions nodes the traffic never touches must behave identically
// whether nodes materialize lazily on first touch or were all built
// eagerly up front — same event trace, same fault record, same delivery
// counts — at 1, 2, and 4 shards, and identically across shard counts.
func TestLazyMaterializationChaosEquivalence(t *testing.T) {
	var ref lazyChaosResult
	for si, shards := range []int{1, 2, 4} {
		lazy := lazyChaosRun(t, shards, false)
		eager := lazyChaosRun(t, shards, true)
		if lazy != eager {
			t.Fatalf("shards=%d: lazy %+v != eager %+v", shards, lazy, eager)
		}
		if si == 0 {
			ref = lazy
			if lazy.received[0] == 0 || lazy.received[1] == 0 {
				t.Fatalf("no traffic delivered: %+v", lazy)
			}
			if lazy.fs.Crashes != 2 || lazy.fs.Dropped == 0 {
				t.Fatalf("chaos did not bite: %+v", lazy.fs)
			}
		} else if lazy != ref {
			t.Fatalf("shards=%d diverged from sequential: %+v vs %+v", shards, lazy, ref)
		}
	}
}
