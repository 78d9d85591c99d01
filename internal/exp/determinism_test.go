package exp

import (
	"bytes"
	"fmt"
	"testing"
)

// renderSuite runs a representative slice of the harness (regular cells,
// a chaos sweep, and micro measurements) and renders every table to one
// buffer. Virtual results must not depend on the worker count.
func renderSuite(t *testing.T, workers int) (string, []ChaosRow) {
	t.Helper()
	s := Scale{Quick: true, MaxP: 8, Workers: workers}
	var buf bytes.Buffer

	tab, _, err := Fig1Triangle(s)
	if err != nil {
		t.Fatalf("fig1 (workers=%d): %v", workers, err)
	}
	tab.Print(&buf)

	tab, _, err = Fig2TSP(s)
	if err != nil {
		t.Fatalf("fig2 (workers=%d): %v", workers, err)
	}
	tab.Print(&buf)

	tab, err = Table3(s)
	if err != nil {
		t.Fatalf("table3 (workers=%d): %v", workers, err)
	}
	tab.Print(&buf)

	Table1Table().Print(&buf)

	tab, err = ChaosTable(s)
	if err != nil {
		t.Fatalf("chaos (workers=%d): %v", workers, err)
	}
	tab.Print(&buf)

	rows, err := Chaos(s)
	if err != nil {
		t.Fatalf("chaos rows (workers=%d): %v", workers, err)
	}
	return buf.String(), rows
}

// TestParallelHarnessDeterminism is the regression test for the parallel
// harness: running the same experiments with 1 worker and with 4 must
// produce byte-identical tables and identical fault-trace hashes. Run
// under -race this also exercises the worker pool for data races.
func TestParallelHarnessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run suite comparison")
	}
	t.Parallel()
	seqOut, seqRows := renderSuite(t, 1)
	parOut, parRows := renderSuite(t, 4)
	if seqOut != parOut {
		t.Errorf("sequential and parallel table output differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seqOut, parOut)
	}
	if len(seqRows) != len(parRows) {
		t.Fatalf("chaos row count differs: %d vs %d", len(seqRows), len(parRows))
	}
	for i := range seqRows {
		if seqRows[i].FaultHash != parRows[i].FaultHash {
			t.Errorf("chaos row %d (%s drop=%.1f crashes=%d): fault-trace hash %#x (workers=1) != %#x (workers=4)",
				i, seqRows[i].App, seqRows[i].DropPct, seqRows[i].Crashes,
				seqRows[i].FaultHash, parRows[i].FaultHash)
		}
		if seqRows[i] != parRows[i] {
			t.Errorf("chaos row %d differs between worker counts:\n  seq: %+v\n  par: %+v", i, seqRows[i], parRows[i])
		}
	}
}

// TestForEachOrderAndErrors pins the harness contract: every index runs
// exactly once, and the reported error is the lowest-index failure no
// matter the scheduling.
func TestForEachOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		ran := make([]int, 100)
		err := Scale{Workers: workers}.forEach(100, func(i int) error {
			ran[i]++
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return errAt(i)
			}
			return nil
		})
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
		if err != errAt(3) {
			t.Fatalf("workers=%d: want lowest-index error %v, got %v", workers, errAt(3), err)
		}
	}
}

type errAt int

func (e errAt) Error() string { return fmt.Sprintf("cell %d failed", int(e)) }
