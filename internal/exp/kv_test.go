package exp

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/sim"
)

// TestKVQuickGrid runs the quick service grid end to end: every cell
// already passes kv.CheckInvariants inside KV, so this asserts the
// grid-level facts — real traffic in every cell, a latency distribution
// behind every quantile, and AM rows that never promoted.
func TestKVQuickGrid(t *testing.T) {
	rows, err := KV(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty grid")
	}
	// Open-loop arrivals are a pure function of (seed, client, shape):
	// every system in a scenario/rate group must see the same offered
	// load, or the comparison is between different workloads.
	arrivals := map[string]uint64{}
	sawLossy := false
	for _, r := range rows {
		gk := fmt.Sprintf("%s@%g", r.Scenario, r.RateX)
		if want, seen := arrivals[gk]; seen && r.Arrivals != want {
			t.Fatalf("%s/%v: %d arrivals, other systems in the group saw %d — the load is not open-loop",
				r.Scenario, r.System, r.Arrivals, want)
		}
		arrivals[gk] = r.Arrivals
		if r.Arrivals == 0 || r.OK == 0 {
			t.Fatalf("%s/%v: no traffic (%d arrivals, %d ok)", r.Scenario, r.System, r.Arrivals, r.OK)
		}
		if r.P999 == 0 {
			t.Fatalf("%s/%v: empty latency histogram", r.Scenario, r.System)
		}
		if r.P50 > r.P99 || r.P99 > r.P999 {
			t.Fatalf("%s/%v: quantiles not monotone: %v %v %v", r.Scenario, r.System, r.P50, r.P99, r.P999)
		}
		if r.System == apps.AM && r.Promoted != 0 {
			t.Fatalf("%s/AM: promoted %d times; the AM rows must have no abort points", r.Scenario, r.Promoted)
		}
		if r.Scenario == "lossy" {
			sawLossy = true
			if r.FaultHash == 0 {
				t.Fatalf("lossy/%v: zero fault hash under 1%% drop", r.System)
			}
		}
	}
	if !sawLossy {
		t.Fatal("quick grid lost its lossy scenario")
	}
}

// TestKVShardInvariance re-runs one steady cell at shard counts 1 and 2
// and requires bit-identical books and hashes.
func TestKVShardInvariance(t *testing.T) {
	run := func(shards int, optimistic bool) KVRow {
		ro := apps.RunOptions{Shards: shards, Optimistic: optimistic}
		row, err := kvCell(ro, "inv", apps.ORPC, 2, kvShape(nil), 24, sim.Micros(8000))
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	base := run(1, false)
	for _, m := range []struct {
		shards     int
		optimistic bool
	}{{2, false}, {2, true}} {
		got := run(m.shards, m.optimistic)
		if got != base {
			t.Fatalf("shards=%d optimistic=%v diverged:\n got %+v\nwant %+v",
				m.shards, m.optimistic, got, base)
		}
	}
}

// KVSaturation is the saturation-knee sweep: ORPC and TRPC goodput over
// an offered-load sweep, the knee where TRPC stops keeping up, ORPC's p999
// at 70% of that knee, and the goodput ratio at the top of the sweep. All
// virtual quantities — deterministic on any host; Valid only gates whether
// the knee landed inside the sweep.
type KVSaturation struct {
	Multipliers  []float64
	OfferedPerMs []float64
	OrpcGoodput  []float64
	TrpcGoodput  []float64
	// KneeRateX is the first multiplier where TRPC goodput fell below
	// 95% of the offered load; 0 when the sweep never saturated it.
	KneeRateX float64
	// P999At70PctKneeUs is ORPC's p999 (microseconds) at 70% of the knee
	// load — the SLO headroom claim: latency holds below the knee.
	P999At70PctKneeUs float64
	// GoodputRatioAtMax is ORPC goodput / TRPC goodput at the top
	// multiplier: how much service the optimistic path keeps delivering
	// after thread-per-call has collapsed.
	GoodputRatioAtMax float64
	Valid             bool
}

// KVSaturationBench sweeps ORPC and TRPC through the saturation knee.
func KVSaturationBench(scale Scale) (KVSaturation, error) {
	clients, dur := 48, sim.Duration(sim.Micros(12000))
	mults := []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3}
	if scale.Quick {
		clients, dur = 32, sim.Duration(sim.Micros(8000))
		mults = []float64{0.25, 0.75, 1.5, 3}
	}
	sat := KVSaturation{Multipliers: mults}
	sat.OfferedPerMs = make([]float64, len(mults))
	sat.OrpcGoodput = make([]float64, len(mults))
	sat.TrpcGoodput = make([]float64, len(mults))
	type point struct{ offered, orpc, trpc float64 }
	pts := make([]point, len(mults))
	err := scale.forEach(len(mults), func(i int) error {
		ro, err := kvCell(scale.Run, "sat", apps.ORPC, mults[i], kvShape(nil), clients, dur)
		if err != nil {
			return err
		}
		rt, err := kvCell(scale.Run, "sat", apps.TRPC, mults[i], kvShape(nil), clients, dur)
		if err != nil {
			return err
		}
		pts[i] = point{ro.Offered, ro.Goodput, rt.Goodput}
		return nil
	})
	if err != nil {
		return sat, err
	}
	for i, p := range pts {
		sat.OfferedPerMs[i] = p.offered
		sat.OrpcGoodput[i] = p.orpc
		sat.TrpcGoodput[i] = p.trpc
	}
	for i, p := range pts {
		if p.trpc < 0.95*p.offered {
			sat.KneeRateX = mults[i]
			break
		}
	}
	if sat.KneeRateX > 0 {
		row, err := kvCell(scale.Run, "sat-p999", apps.ORPC, 0.7*sat.KneeRateX, kvShape(nil), clients, dur)
		if err != nil {
			return sat, err
		}
		sat.P999At70PctKneeUs = float64(row.P999) / float64(sim.Microsecond)
	}
	last := len(pts) - 1
	if pts[last].trpc > 0 {
		sat.GoodputRatioAtMax = pts[last].orpc / pts[last].trpc
	}
	sat.Valid = sat.KneeRateX > 0 && sat.GoodputRatioAtMax > 0
	return sat, nil
}

// TestKVSaturationQuick is the service-level claim: the quick sweep finds
// the TRPC knee, ORPC delivers strictly more goodput past it (the
// handler-budget shed happens before thread creation), and ORPC's p999
// below the knee is measured. All virtual time, so deterministic.
func TestKVSaturationQuick(t *testing.T) {
	sat, err := KVSaturationBench(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sat.Valid {
		t.Fatalf("quick sweep found no knee: %+v", sat)
	}
	if sat.GoodputRatioAtMax <= 1 {
		t.Fatalf("ORPC goodput did not beat TRPC beyond the knee: ratio %.3f", sat.GoodputRatioAtMax)
	}
	if sat.P999At70PctKneeUs <= 0 {
		t.Fatalf("no p999 below the knee: %+v", sat)
	}
}

// TestKVMultiactiveQuick checks the multiactive sweep on the quick
// cell: everything it reports is virtual time, so the assertions are
// deterministic on any host.
func TestKVMultiactiveQuick(t *testing.T) {
	m, err := KVMultiactiveBench(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.SpeedupAtMax < 1.3 {
		t.Fatalf("multiactive goodput speedup %.2fx < 1.3x: %+v", m.SpeedupAtMax, m)
	}
	if m.P999RatioAtMax >= 1 {
		t.Fatalf("multiactive did not shorten the tail: p999 ratio %.2f", m.P999RatioAtMax)
	}
	for i, cores := range m.Cores {
		if cores > 1 {
			if m.CompatAdmitted[i] == 0 {
				t.Fatalf("cores=%d admitted no compatible handlers", cores)
			}
			if m.OccupancyFrac[i] <= 0 || m.OccupancyFrac[i] > 1 {
				t.Fatalf("cores=%d occupancy %.3f outside (0, 1]", cores, m.OccupancyFrac[i])
			}
		} else if m.OccupancyFrac[i] != 0 || m.CompatAdmitted[i] != 0 {
			t.Fatalf("single-active cell reported multiactive activity: %+v", m)
		}
		if m.GoodputPerMs[i] < m.GoodputPerMs[0] {
			t.Fatalf("goodput fell below single-active at cores=%d: %+v", cores, m)
		}
	}
}

// TestKVMultiactiveShardInvariance re-runs the 2-core cell at shard
// counts 1 and 2 (and 2-optimistic) and requires bit-identical books —
// the multiactive extension of TestKVShardInvariance.
func TestKVMultiactiveShardInvariance(t *testing.T) {
	run := func(shards int, optimistic bool) KVRow {
		ro := apps.RunOptions{Shards: shards, Optimistic: optimistic}
		row, err := kvCell(ro, "inv", apps.ORPC, 2, kvShape(func(c *kv.Config) {
			c.Cores = 2
			c.ZipfS = 1.1
		}), 24, sim.Micros(8000))
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	base := run(1, false)
	if base.OK == 0 {
		t.Fatal("no traffic in the multiactive invariance cell")
	}
	for _, m := range []struct {
		shards     int
		optimistic bool
	}{{2, false}, {2, true}} {
		got := run(m.shards, m.optimistic)
		if got != base {
			t.Fatalf("shards=%d optimistic=%v diverged:\n got %+v\nwant %+v",
				m.shards, m.optimistic, got, base)
		}
	}
}
