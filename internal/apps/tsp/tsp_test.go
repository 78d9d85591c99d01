package tsp

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/apps"
)

// cfg9 is the fast test instance.
var cfg9 = Config{Cities: 9, Seed: 12}

func TestProblemSymmetric(t *testing.T) {
	p := NewProblem(12, 1)
	for i := 0; i < p.N; i++ {
		if p.Dist[i][i] != 0 {
			t.Fatalf("self distance %d nonzero", i)
		}
		for j := 0; j < p.N; j++ {
			if p.Dist[i][j] != p.Dist[j][i] {
				t.Fatalf("asymmetric distance %d-%d", i, j)
			}
		}
	}
}

func TestNeighborOrderSorted(t *testing.T) {
	p := NewProblem(12, 1)
	for i := 0; i < p.N; i++ {
		if len(p.NearOrder[i]) != p.N-1 {
			t.Fatalf("city %d neighbor list wrong length", i)
		}
		for k := 1; k < len(p.NearOrder[i]); k++ {
			a, b := p.NearOrder[i][k-1], p.NearOrder[i][k]
			if p.Dist[i][a] > p.Dist[i][b] {
				t.Fatalf("city %d neighbors out of order", i)
			}
		}
	}
}

func TestJobsCount(t *testing.T) {
	p := NewProblem(12, 1)
	jobs := p.Jobs()
	if len(jobs) != 7920 {
		t.Fatalf("12-city jobs = %d, want 7920 (the paper's count)", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if len(j) != JobDepth || j[0] != 0 {
			t.Fatalf("malformed job %v", j)
		}
		if seen[string(j)] {
			t.Fatalf("duplicate job %v", j)
		}
		seen[string(j)] = true
	}
}

// TestSolveSeqOptimal compares branch and bound against brute force on a
// small instance.
func TestSolveSeqOptimal(t *testing.T) {
	p := NewProblem(8, 3)
	got := p.SolveSeq().Best

	// Brute force over all permutations of cities 1..7.
	perm := []uint8{1, 2, 3, 4, 5, 6, 7}
	best := int64(math.MaxInt64)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			route := append([]uint8{0}, perm...)
			if l := p.RouteLen(route) + p.Dist[perm[len(perm)-1]][0]; l < best {
				best = l
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if got != best {
		t.Fatalf("B&B best = %d, brute force = %d", got, best)
	}
}

func TestParallelFindsOptimum(t *testing.T) {
	want := uint64(NewProblem(cfg9.Cities, cfg9.Seed).SolveSeq().Best)
	for _, sys := range apps.Systems {
		for _, slaves := range []int{1, 3} {
			res, err := Run(sys, slaves, cfg9)
			if err != nil {
				t.Fatalf("%v/%d: %v", sys, slaves, err)
			}
			if res.Answer != want {
				t.Errorf("%v/%d slaves: best = %d, want %d", sys, slaves, res.Answer, want)
			}
		}
	}
}

// TestORPCMostlySucceeds: at low slave counts the paper reports ~100%
// success.
func TestORPCMostlySucceeds(t *testing.T) {
	res, err := Run(apps.ORPC, 2, cfg9)
	if err != nil {
		t.Fatal(err)
	}
	if res.OAMs == 0 {
		t.Fatal("no OAMs")
	}
	if p := res.SuccessPercent(); p < 95 {
		t.Fatalf("success = %.1f%%, want >= 95%% at 2 slaves", p)
	}
}

func TestTSPDeterminism(t *testing.T) {
	a, err := Run(apps.ORPC, 2, cfg9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(apps.ORPC, 2, cfg9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.OAMs != b.OAMs || a.Answer != b.Answer {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestExpandVisitHook(t *testing.T) {
	p := NewProblem(9, 4)
	var hookVisits uint64
	best, visits := p.Expand(p.Jobs()[0], math.MaxInt64, func(n int) int64 {
		hookVisits += uint64(n)
		return math.MaxInt64
	})
	if best == math.MaxInt64 {
		t.Fatal("no tour found")
	}
	if hookVisits != visits {
		t.Fatalf("hook saw %d visits, Expand reports %d", hookVisits, visits)
	}
}

// TestSearchAllocBudget: the job list is cut from one array — its jobs lie
// end to end, and appending to one copies it instead of running into the
// next — and expanding a job, visit hook included, allocates nothing: the
// search state is a fixed-size value on the caller's stack.
func TestSearchAllocBudget(t *testing.T) {
	p := NewProblem(9, 4)
	jobs := p.Jobs()
	for i := 1; i < len(jobs); i++ {
		if unsafe.Add(unsafe.Pointer(&jobs[i-1][0]), JobDepth) != unsafe.Pointer(&jobs[i][0]) {
			t.Fatalf("job %d does not follow job %d in one array", i, i-1)
		}
	}
	if grown := append(jobs[0], 9); &grown[0] == &jobs[0][0] || jobs[1][0] != 0 {
		t.Fatal("appending to a job wrote into its neighbour")
	}
	if got := testing.AllocsPerRun(10, func() { p.Jobs() }); got > 4 {
		t.Errorf("Jobs allocates %v objects, want <= 4 (list, array, used, the walk's closure)", got)
	}
	best, polled := int64(math.MaxInt64), 0
	got := testing.AllocsPerRun(10, func() {
		for _, j := range jobs[:64] {
			best, _ = p.Expand(j, best, func(n int) int64 { polled += n; return best })
		}
	})
	if got != 0 || polled == 0 {
		t.Errorf("expanding 64 jobs allocates %v objects (hook saw %d visits), want 0", got, polled)
	}
}

// TestNeedsASlave: a machine with no slave is refused up front, by both
// runners — the master alone would generate jobs nobody asks for and
// report "no tour" as the answer.
func TestNeedsASlave(t *testing.T) {
	const want = "tsp: need at least one slave, got 0"
	if _, err := Run(apps.ORPC, 0, Config{Cities: 8, Seed: 1}); err == nil || err.Error() != want {
		t.Errorf("Run with 0 slaves: error %v, want %q", err, want)
	}
	if _, _, err := RunChaos(0, ChaosConfig{Cities: 8, Seed: 1}); err == nil || err.Error() != want {
		t.Errorf("RunChaos with 0 slaves: error %v, want %q", err, want)
	}
}
