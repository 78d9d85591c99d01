package exp

import (
	"reflect"
	"testing"
)

// TestOptimisticEquivalenceApps: the application equivalence matrix with
// commit spans 32 lookaheads wide instead of one (see checkAppCells).
func TestOptimisticEquivalenceApps(t *testing.T) {
	t.Parallel()
	checkAppCells(t, true)
	checkScaleExperiments(t, true)
}

// TestOptimisticEquivalenceChaos: the full quick chaos sweep — loss,
// duplication, a mid-run crash, and a permanent partition — produces
// byte-identical rows (including the fault-trace hashes) under optimistic
// sharding at every shard count. Spans are cut at fault-plan edges (see
// cm5.Machine.NextBound), so speculation crosses slow windows and
// partitions without perturbing a single fault decision.
func TestOptimisticEquivalenceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep three times")
	}
	t.Parallel()
	var seq []ChaosRow
	for _, s := range shardCounts {
		rows, err := Chaos(shardedScale(s, s > 1))
		if err != nil {
			t.Fatalf("optimistic chaos sweep (shards=%d): %v", s, err)
		}
		for i, r := range rows {
			if !r.OK {
				t.Errorf("optimistic chaos row %d (shards=%d): wrong answer", i, s)
			}
		}
		if s == 1 {
			seq = rows
			continue
		}
		if !reflect.DeepEqual(rows, seq) {
			for i := range rows {
				if rows[i] != seq[i] {
					t.Errorf("optimistic chaos row %d at shards=%d differs from sequential:\n got %+v\nwant %+v",
						i, s, rows[i], seq[i])
				}
			}
		}
	}
}

// TestOptimisticEquivalenceSched: the control-plane chaos grid — event
// record and fault-trace hashes included — is byte-identical under
// optimistic sharding.
func TestOptimisticEquivalenceSched(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sched sweep three times")
	}
	var seq []SchedRow
	for _, s := range shardCounts {
		rows, err := Sched(shardedScale(s, s > 1))
		if err != nil {
			t.Fatalf("optimistic sched sweep (shards=%d): %v", s, err)
		}
		if s == 1 {
			seq = rows
			continue
		}
		if !reflect.DeepEqual(rows, seq) {
			for i := range rows {
				if rows[i] != seq[i] {
					t.Errorf("optimistic sched row %d at shards=%d differs from sequential:\n got %+v\nwant %+v",
						i, s, rows[i], seq[i])
				}
			}
		}
	}
}
