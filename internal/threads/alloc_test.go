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

// TestThreadLifeAllocBudget: create, start and exit cost whatever closure
// the caller passes as the body and nothing else — the descriptor comes off
// the scheduler's free list, and there is no name string, no start closure,
// no blocked-set entry. A body bound beforehand makes the whole life free.
func TestThreadLifeAllocBudget(t *testing.T) {
	ran := 0
	bound := func(Ctx) { ran++ }
	for _, tc := range []struct {
		name   string
		body   func(i int) func(Ctx)
		budget float64
	}{
		{"closure per thread", func(i int) func(Ctx) { return func(Ctx) { ran += i } }, 1.01},
		{"body bound once", func(int) func(Ctx) { return bound }, 0.01},
	} {
		ran = 0
		got := perOp(t, 1_000, 10_000, func(c Ctx, i int) {
			c.S.CreateNamed(c, Name{Prefix: "t/", A: i, B: i, Pair: true}, true, tc.body(i))
			c.S.Sleep(c, sim.Micros(1)) // the new thread starts, runs and exits
		})
		if ran == 0 {
			t.Fatalf("%s: created threads never ran", tc.name)
		}
		if got > tc.budget {
			t.Errorf("%s: thread create/start/exit allocates %.3f objects, want <= %.2f", tc.name, got, tc.budget)
		}
	}
}

// TestCollectiveZeroAllocs: a thread waits on the control network as itself
// and a round's record, slices, waiter table and release action recycle, so
// once warm a barrier, a reduction and a split-phase OR cost the heap
// nothing — on the sequential engine and with the nodes on two shards.
func TestCollectiveZeroAllocs(t *testing.T) {
	const nodes, warm, rounds = 8, 100, 1_000
	for _, shards := range []int{1, 2} {
		eng := sim.NewSharded(1, shards)
		m := cm5.NewMachine(eng, nodes, cm5.DefaultCostModel())
		round := func(c Ctx, i int) {
			c.S.Barrier(c)
			if got := c.S.Reduce(c, float64(i), cm5.ReduceSum); got != float64(nodes*i) {
				t.Errorf("shards=%d: round %d reduced to %v", shards, i, got)
			}
			c.S.OREnter(i%2 == 0 && c.Node().ID() == 3)
			if got := c.S.ORWait(c); got != (i%2 == 0) {
				t.Errorf("shards=%d: round %d ORed to %v", shards, i, got)
			}
		}
		var m0, m1 runtime.MemStats
		for n := 0; n < nodes; n++ {
			NewScheduler(m.Node(n)).Bootstrap("main", func(c Ctx) {
				for i := 0; i < warm; i++ {
					round(c, i)
				}
				if c.Node().ID() == 0 {
					runtime.ReadMemStats(&m0)
				}
				for i := 0; i < rounds; i++ {
					round(c, i)
				}
				if c.Node().ID() == 0 {
					runtime.ReadMemStats(&m1)
				}
			})
		}
		err := eng.Run()
		eng.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		if got := float64(m1.Mallocs-m0.Mallocs) / (3 * rounds * nodes); got >= 0.01 {
			t.Errorf("shards=%d: a collective wait allocates %.4f objects, want 0", shards, got)
		}
	}
}
