package cm5

import (
	"testing"

	"repro/internal/sim"
)

// waitFunc adapts a test callback to CtlWaiter.
type waitFunc func(or bool, red float64)

func (f waitFunc) Released(or bool, red float64) { f(or, red) }

// TestBarrierAsyncAPI: the callback fires at release; a late waiter gets
// ready=true immediately.
func TestBarrierAsyncAPI(t *testing.T) {
	eng, m := testMachine(t, 2)
	fired := false
	eng.Spawn("a", func(p *sim.Proc) {
		m.Node(0).BarrierEnter()
		if m.Node(0).BarrierWaitAsync(waitFunc(func(bool, float64) { fired = true })) {
			t.Error("barrier released before all entered")
		}
		p.Park()
	})
	var lateReady bool
	eng.Spawn("b", func(p *sim.Proc) {
		p.Charge(sim.Micros(10))
		m.Node(1).BarrierEnter()
		// Wait past the release, then consume the wait late.
		p.Charge(sim.Micros(100))
		lateReady = m.Node(1).BarrierWaitAsync(waitFunc(func(bool, float64) {
			t.Error("late waiter callback fired")
		}))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("release callback never fired")
	}
	if !lateReady {
		t.Fatal("late waiter did not see ready")
	}
	eng.Shutdown()
}

// TestReduceAsyncAPI covers both the callback and the immediate path.
func TestReduceAsyncAPI(t *testing.T) {
	eng, m := testMachine(t, 2)
	var got0, got1 float64
	eng.Spawn("a", func(p *sim.Proc) {
		m.Node(0).ReduceEnter(3, ReduceSum)
		if ready, _ := m.Node(0).ReduceWaitAsync(waitFunc(func(_ bool, v float64) { got0 = v })); ready {
			t.Error("reduce ready before all entered")
		}
		p.Park()
	})
	eng.Spawn("b", func(p *sim.Proc) {
		p.Charge(sim.Micros(5))
		m.Node(1).ReduceEnter(4, ReduceSum)
		p.Charge(sim.Micros(100))
		ready, v := m.Node(1).ReduceWaitAsync(waitFunc(func(bool, float64) {}))
		if !ready {
			t.Error("late reduce waiter not ready")
		}
		got1 = v
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got0 != 7 || got1 != 7 {
		t.Fatalf("reduce results = %v/%v, want 7", got0, got1)
	}
	eng.Shutdown()
}

// TestORWaitAsyncAPI mirrors the OR semantics.
func TestORWaitAsyncAPI(t *testing.T) {
	eng, m := testMachine(t, 2)
	var cbVal bool
	eng.Spawn("a", func(p *sim.Proc) {
		m.Node(0).OREnter(false)
		if ready, _ := m.Node(0).ORWaitAsync(waitFunc(func(v bool, _ float64) { cbVal = v })); ready {
			t.Error("or ready early")
		}
		p.Park()
	})
	eng.Spawn("b", func(p *sim.Proc) {
		p.Charge(sim.Micros(5))
		m.Node(1).OREnter(true)
		p.Charge(sim.Micros(100))
		ready, v := m.Node(1).ORWaitAsync(waitFunc(func(bool, float64) {}))
		if !ready || !v {
			t.Errorf("late or waiter: ready=%v v=%v", ready, v)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !cbVal {
		t.Fatal("or callback value wrong")
	}
	eng.Shutdown()
}

func TestPacketStringAndSize(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, Kind: Bulk, Handler: 3, Payload: []byte{1, 2, 3}}
	if len(p.Payload) != 3 {
		t.Fatal("size")
	}
	if p.String() != "bulk 1->2 h=3 len=3" {
		t.Fatalf("string = %q", p.String())
	}
	if Small.String() != "small" || PacketKind(9).String() == "" {
		t.Fatal("kind strings")
	}
}

func TestNodeAccessors(t *testing.T) {
	eng, m := testMachine(t, 2)
	if m.Engine() == nil {
		t.Fatal("engine accessor")
	}
	n := m.Node(1)
	if n.ID() != 1 || n.Machine() != m {
		t.Fatal("node accessors")
	}
	eng.Spawn("s", func(p *sim.Proc) {
		m.Node(0).TryInject(p, &Packet{Src: 0, Dst: 1, Kind: Small})
		if n.nic.reserved == 0 {
			t.Error("no in-flight reservation after inject")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.nic.reserved > 0 {
		t.Fatal("reservation not cleared after delivery")
	}
}
