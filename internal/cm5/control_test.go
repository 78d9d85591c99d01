package cm5

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestBarrierSynchronizes(t *testing.T) {
	eng, m := testMachine(t, 4)
	cost := m.Cost()
	arrive := make([]sim.Time, 4)
	release := make([]sim.Time, 4)
	for i := 0; i < 4; i++ {
		i := i
		eng.Spawn("node", func(p *sim.Proc) {
			p.Charge(sim.Micros(float64(10 * i))) // staggered arrival
			arrive[i] = p.Now()
			m.Node(i).Barrier(p)
			release[i] = p.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := arrive[3].Add(cost.BarrierLatency)
	for i := 0; i < 4; i++ {
		if release[i] != want {
			t.Fatalf("node %d released at %v, want %v", i, release[i], want)
		}
	}
}

func TestBarrierMultipleRounds(t *testing.T) {
	eng, m := testMachine(t, 3)
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("node", func(p *sim.Proc) {
			for r := 0; r < 5; r++ {
				p.Charge(sim.Micros(float64(1 + i)))
				m.Node(i).Barrier(p)
				counts[i]++
				// After each barrier all nodes must have completed the
				// same number of rounds.
				for j := 0; j < 3; j++ {
					if counts[j] < counts[i]-1 || counts[j] > counts[i]+1 {
						t.Errorf("round skew: counts=%v", counts)
					}
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("node %d completed %d rounds, want 5", i, c)
		}
	}
}

func TestGlobalORSplitPhase(t *testing.T) {
	eng, m := testMachine(t, 4)
	results := make([]bool, 4)
	overlapped := make([]bool, 4)
	for i := 0; i < 4; i++ {
		i := i
		eng.Spawn("node", func(p *sim.Proc) {
			m.Node(i).OREnter(i == 2) // only node 2 contributes true
			// Split phase: computation may overlap the combine.
			p.Charge(sim.Micros(1))
			overlapped[i] = true
			results[i] = m.Node(i).ORWait(p)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !results[i] {
			t.Fatalf("node %d OR result false, want true", i)
		}
		if !overlapped[i] {
			t.Fatalf("node %d did not overlap", i)
		}
	}
}

func TestGlobalORAllFalse(t *testing.T) {
	eng, m := testMachine(t, 3)
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("node", func(p *sim.Proc) {
			m.Node(i).OREnter(false)
			if m.Node(i).ORWait(p) {
				t.Errorf("node %d: OR of all-false = true", i)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		want float64
	}{
		{ReduceSum, 0 + 1 + 2 + 3},
		{ReduceMax, 3},
		{ReduceMin, 0},
	}
	for _, tc := range cases {
		eng, m := testMachine(t, 4)
		got := make([]float64, 4)
		for i := 0; i < 4; i++ {
			i := i
			eng.Spawn("node", func(p *sim.Proc) {
				got[i] = m.Node(i).Reduce(p, float64(i), tc.op)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if got[i] != tc.want {
				t.Fatalf("op %v node %d: got %v, want %v", tc.op, i, got[i], tc.want)
			}
		}
	}
}

func TestDoubleEnterPanics(t *testing.T) {
	eng, m := testMachine(t, 2)
	eng.Spawn("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on double OREnter")
			}
		}()
		m.Node(0).OREnter(true)
		m.Node(0).OREnter(true)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitWithoutEnterPanics(t *testing.T) {
	eng, m := testMachine(t, 2)
	eng.Spawn("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on ORWait without OREnter")
			}
		}()
		m.Node(0).ORWait(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestControlDeterminism(t *testing.T) {
	run := func() sim.Time {
		eng := sim.New(5)
		rng := rand.New(rand.NewSource(5))
		m := NewMachine(eng, 8, DefaultCostModel())
		defer eng.Shutdown()
		for i := 0; i < 8; i++ {
			i := i
			eng.Spawn("node", func(p *sim.Proc) {
				for r := 0; r < 10; r++ {
					p.Charge(sim.Duration(rng.Intn(100)) * sim.Microsecond)
					m.Node(i).Barrier(p)
					m.Node(i).Reduce(p, float64(i), ReduceSum)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic control network: %v vs %v", a, b)
	}
}
