package exp

import (
	"testing"
)

// chaosGoldenHashes are the fault-trace hashes of the quick-scale chaos
// sweep's TSP rows (the rows with a fault layer), re-recorded when the
// reliable transport gained deterministic per-flight retransmit jitter
// (which re-times every retransmission and therefore every fault draw
// after the first loss; the loss-free first row kept its hash). The
// fault trace hashes every drop/dup/crash decision with its virtual
// timestamp, so any change to event order or timing anywhere in the
// stack shows up here — and it must not change with the shard count.
var chaosGoldenHashes = []uint64{
	0x8897616b4b673a9a, 0xd05698c1d7c62142, 0x7c8ba98cca79ecb6,
	0xa577830017906ed9, 0xe78471d0703bc228, 0x7184db0e1d4f68e5,
	0xd1c74fa3fc353738,
	// The permanently-partitioned-slave row (the MaxAttempts-exhausted
	// coverage).
	0x493f473009935687,
	// The flapping-partition row (the heal-and-rejoin coverage).
	0x0c788126713b5bd6,
}

// TestChaosPartitionRow checks the MaxAttempts-exhausted coverage: the
// sweep's final row cuts one slave off completely, and the run ends with
// abandoned messages and call timeouts instead of a hang — with the
// answer still exact, computed by the remaining slaves.
func TestChaosPartitionRow(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep simulates several lossy runs")
	}
	rows, err := Chaos(Scale{Quick: true})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	var part *ChaosRow
	for i := range rows {
		if rows[i].Partitioned == 1 {
			part = &rows[i]
		}
	}
	if part == nil {
		t.Fatalf("sweep has no partition row")
	}
	if !part.OK {
		t.Errorf("partition row answer wrong: %+v", part)
	}
	if part.GaveUp == 0 {
		t.Errorf("no messages exhausted MaxAttempts: %+v", part)
	}
	if part.Timeouts == 0 {
		t.Errorf("partitioned slave's calls never timed out: %+v", part)
	}
	if part.Dropped == 0 {
		t.Errorf("partition dropped nothing: %+v", part)
	}
}

// TestChaosFlapRow checks the healing-partition coverage: the slave is cut
// off for a window and comes back; the run recovers rather than merely
// degrading — stranded work is re-issued and the answer stays exact.
func TestChaosFlapRow(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep simulates several lossy runs")
	}
	rows, err := Chaos(Scale{Quick: true})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	last := rows[len(rows)-1]
	if last.Flapped != 1 {
		t.Fatalf("last row is not the flap row: %+v", last)
	}
	if !last.OK {
		t.Errorf("flap row answer wrong: %+v", last)
	}
	if last.Dropped == 0 {
		t.Errorf("flap window dropped nothing: %+v", last)
	}
	if last.Retransmits == 0 {
		t.Errorf("nothing was retransmitted across the heal: %+v", last)
	}
}

// TestChaosFaultHashGolden pins the quick chaos sweep's fault traces
// against the seed kernel: the host-scheduling rewrite must not move a
// single fault decision in virtual time.
func TestChaosFaultHashGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep simulates several lossy runs")
	}
	rows, err := Chaos(Scale{Quick: true, Workers: 1})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	var got []uint64
	for _, r := range rows {
		if r.FaultHash != 0 {
			got = append(got, r.FaultHash)
		}
	}
	t.Logf("fault hashes: %#x", got)
	if len(got) != len(chaosGoldenHashes) {
		t.Fatalf("fault-layer row count = %d, want %d", len(got), len(chaosGoldenHashes))
	}
	for i, h := range got {
		if h != chaosGoldenHashes[i] {
			t.Errorf("row %d: fault-trace hash %#x, want golden %#x", i, h, chaosGoldenHashes[i])
		}
	}
}
