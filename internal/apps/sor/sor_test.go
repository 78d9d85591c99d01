package sor

import (
	"testing"

	"repro/internal/apps"
)

func (g *grid) at(r, c int) float64 { return g.v[r*g.cols+c] }

// cfgSmall is a fast test configuration.
var cfgSmall = Config{Rows: 34, Cols: 16, Iters: 20, Eps: 1e-9, Seed: 5}

func TestSolveSeqDeterministic(t *testing.T) {
	a := SolveSeq(cfgSmall)
	b := SolveSeq(cfgSmall)
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	if a.Iters != cfgSmall.Iters {
		t.Fatalf("converged too early: %d iters", a.Iters)
	}
	if a.Time <= 0 {
		t.Fatal("non-positive sequential time")
	}
}

func TestHeatFlowsDownward(t *testing.T) {
	// After some iterations the second row must have warmed above zero
	// (heat diffuses from the fixed top row) — a physical sanity check.
	cfg := cfgSmall
	cur := newGrid(cfg.Rows, cfg.Cols)
	next := newGrid(cfg.Rows, cfg.Cols)
	initBoundary(cur)
	initBoundary(next)
	for it := 0; it < 10; it++ {
		for r := 1; r < cfg.Rows-1; r++ {
			relaxRow(cur.row(r-1), cur.row(r), cur.row(r+1), next.row(r))
		}
		cur, next = next, cur
	}
	if cur.at(1, cfg.Cols/2) <= 0 {
		t.Fatal("no heat diffused into the grid")
	}
	if cur.at(1, cfg.Cols/2) <= cur.at(5, cfg.Cols/2) {
		t.Fatal("temperature not monotone away from the hot boundary")
	}
}

// TestParallelMatchesSequentialBitwise: all three systems at several node
// counts must reproduce the sequential grid exactly.
func TestParallelMatchesSequentialBitwise(t *testing.T) {
	want := SolveSeq(cfgSmall).Checksum
	for _, sys := range apps.Systems {
		for _, n := range []int{1, 2, 5, 8} {
			res, err := Run(sys, n, cfgSmall)
			if err != nil {
				t.Fatalf("%v/%d: %v", sys, n, err)
			}
			if res.Answer != want {
				t.Errorf("%v/%d: checksum %x, want %x", sys, n, res.Answer, want)
			}
		}
	}
}

// TestNoAborts: the paper reports that no ORPC aborts in SOR at any size.
func TestNoAborts(t *testing.T) {
	res, err := Run(apps.ORPC, 4, cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	if res.OAMs == 0 {
		t.Fatal("no OAMs recorded")
	}
	if res.SuccessPercent() != 100 {
		t.Fatalf("success = %.2f%%, want 100%%", res.SuccessPercent())
	}
}

// TestBulkMessages: boundary rows must travel on the bulk path (the
// paper's 640-byte messages; here Cols*8 bytes).
func TestBulkMessages(t *testing.T) {
	res, err := Run(apps.ORPC, 2, cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	// Two neighbors exchange 2 rows per iteration.
	if res.BulkSent < uint64(cfgSmall.Iters) {
		t.Fatalf("BulkSent = %d, want >= %d", res.BulkSent, cfgSmall.Iters)
	}
}

// TestORPCFasterThanTRPCAndAMFastest: the Figure 3 ordering at modest
// scale: AM <= ORPC <= TRPC in runtime.
func TestOrdering(t *testing.T) {
	var times [3]int64
	for i, sys := range apps.Systems {
		res, err := Run(sys, 8, cfgSmall)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = int64(res.Elapsed)
	}
	if !(times[0] <= times[1] && times[1] <= times[2]) {
		t.Fatalf("runtime order AM=%d ORPC=%d TRPC=%d, want AM <= ORPC <= TRPC",
			times[0], times[1], times[2])
	}
}

// TestSenderSpecifiedMatchesAM: the paper's suggested sender-specified
// destination RPC must produce the right grid and perform essentially
// identically to the hand-coded AM version (section 4.2.3).
func TestSenderSpecifiedMatchesAM(t *testing.T) {
	want := SolveSeq(cfgSmall).Checksum
	ssd, err := RunSenderSpecified(8, cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	if ssd.Answer != want {
		t.Fatalf("ssd checksum %x, want %x", ssd.Answer, want)
	}
	amres, err := Run(apps.AM, 8, cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	// Within a few percent at this miniature problem size (the residual
	// gap is the fixed per-message stub and lock cost, which vanishes at
	// the paper's grid size where the test below in the harness shows
	// sub-1% differences).
	ratio := float64(ssd.Elapsed) / float64(amres.Elapsed)
	if ratio > 1.05 {
		t.Fatalf("sender-specified ORPC %.4fx of AM, want within 5%%", ratio)
	}
	orpc, err := Run(apps.ORPC, 8, cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	if ssd.Elapsed >= orpc.Elapsed {
		t.Fatalf("sender-specified (%v) not faster than buffered ORPC (%v)",
			ssd.Elapsed, orpc.Elapsed)
	}
}

func TestPartitionCovers(t *testing.T) {
	for _, n := range []int{1, 3, 7, 32} {
		covered := 0
		prevHi := 1
		for i := 0; i < n; i++ {
			lo, hi := partition(100, n, i)
			if lo != prevHi {
				t.Fatalf("gap at node %d: lo=%d prevHi=%d", i, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != 98 || prevHi != 99 {
			t.Fatalf("n=%d: covered %d rows, final hi %d", n, covered, prevHi)
		}
	}
}

func TestSORDeterminism(t *testing.T) {
	a, err := Run(apps.ORPC, 3, cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(apps.ORPC, 3, cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Answer != b.Answer {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
