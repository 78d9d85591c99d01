package am

import (
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestAtomicHandlerNeedsNoProcess: a message for an atomic handler reaching
// a sleeping scheduler is ejected, charged for and handled by the kernel
// loop — the node's idle process is never switched to — at the instants, and
// for the charges, of an ordinary handler, which does cost the switch.
func TestAtomicHandlerNeedsNoProcess(t *testing.T) {
	type reading struct {
		at       sim.Time
		handoffs uint64
		events   uint64
		charged  sim.Duration
	}
	send := func(atomic bool) reading {
		u := universe(t, 2, nil)
		eng := u.Machine().Engine()
		var sent uint64
		var got reading
		register := u.Register
		if atomic {
			register = u.RegisterAtomic
		}
		h := register("note", func(c threads.Ctx, pkt *cm5.Packet) {
			if !c.IsHandler() || c.Node().ID() != 1 || pkt.W0 != 7 {
				t.Errorf("handler context %+v, packet %+v", c, pkt)
			}
			got = reading{at: c.P.Now(), handoffs: eng.Handoffs() - sent}
		})
		if _, err := u.SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				c.P.Charge(sim.Micros(20)) // node 1's main is long gone: its scheduler sleeps
				u.Endpoint(0).Send(c, 1, h, [4]uint64{7}, nil)
				sent = eng.Handoffs()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if st := u.Stats(); st.HandlersRun != 1 || u.Machine().Node(1).Pending() != 0 {
			t.Errorf("atomic=%v: %d handlers run, %d packets left", atomic, st.HandlersRun, u.Machine().Node(1).Pending())
		}
		got.events, got.charged = eng.Events(), eng.Charged()
		return got
	}
	plain, atomic := send(false), send(true)
	if plain.handoffs != 1 || atomic.handoffs != 0 {
		t.Errorf("handoffs from the send to the handler: %d plain, %d atomic; want 1 and 0", plain.handoffs, atomic.handoffs)
	}
	plain.handoffs, atomic.handoffs = 0, 0
	if cost := cm5.DefaultCostModel(); plain != atomic || plain.at != sim.Time(sim.Micros(20)+cost.PacketSendOverhead+cost.WireLatency+cost.PacketRecvOverhead+cost.HandlerDispatch) {
		t.Errorf("the simulation differs: plain %+v, atomic %+v", plain, atomic)
	}
}

// TestAtomicHandlerMayNotCharge: the rule enforces itself. An atomic handler
// that charges is refused by the kernel, naming the process it stood in for,
// and the panic ends Run on the caller's goroutine.
func TestAtomicHandlerMayNotCharge(t *testing.T) {
	u := universe(t, 2, nil)
	h := u.RegisterAtomic("greedy", func(c threads.Ctx, pkt *cm5.Packet) { c.P.Charge(sim.Micros(1)) })
	defer func() {
		if r, want := recover(), `sim: Charge called on "idle/1" which is not the running process`; r != want {
			t.Errorf("recovered %v, want %q", r, want)
		}
	}()
	u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			c.P.Charge(sim.Micros(20))
			u.Endpoint(0).Send(c, 1, h, [4]uint64{}, nil)
		}
	})
	t.Error("SPMD returned: the charge went through")
}
