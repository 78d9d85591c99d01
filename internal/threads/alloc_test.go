package threads

import (
	"runtime"
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
)

// perOp runs op warm times to fill the pools (events, processes, ready
// queue), then n more times between two MemStats readings, all on one
// bootstrapped thread, and returns heap objects allocated per op.
func perOp(t *testing.T, warm, n int, op func(c Ctx, i int)) float64 {
	t.Helper()
	eng := sim.New(1)
	defer eng.Shutdown()
	m := cm5.NewMachine(eng, 1, cm5.DefaultCostModel())
	s := NewScheduler(m.Node(0))
	var m0, m1 runtime.MemStats
	s.Bootstrap("main", func(c Ctx) {
		for i := 0; i < warm; i++ {
			op(c, i)
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			op(c, i)
		}
		runtime.ReadMemStats(&m1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if m1.Mallocs == 0 {
		t.Fatal("main thread never finished")
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// TestSleepZeroAllocs: a timer sleep is the thread descriptor scheduled as
// its own wake action — no flag, no method value, no event garbage.
func TestSleepZeroAllocs(t *testing.T) {
	got := perOp(t, 1_000, 10_000, func(c Ctx, _ int) { c.S.Sleep(c, sim.Micros(3)) })
	if got >= 0.01 {
		t.Fatalf("Sleep allocates %.4f objects, want 0", got)
	}
}

// TestThreadLifeAllocBudget: create, start and exit cost the descriptor
// (not pooled: Join on a finished thread is legal) and whatever closure
// the caller passes as the body — no name string, no start closure, no
// blocked-set entry.
func TestThreadLifeAllocBudget(t *testing.T) {
	ran := 0
	got := perOp(t, 1_000, 10_000, func(c Ctx, i int) {
		c.S.CreateNamed(c, Name{Prefix: "t/", A: i, B: i, Pair: true}, true, func(Ctx) { ran += i })
		c.S.Sleep(c, sim.Micros(1)) // the new thread starts, runs and exits
	})
	if ran == 0 {
		t.Fatal("created threads never ran")
	}
	if got > 2.01 {
		t.Fatalf("thread create/start/exit allocates %.3f objects, want <= 2 (descriptor + body closure)", got)
	}
}
