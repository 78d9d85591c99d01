package reliable

import (
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// receiveRun sends msgs messages from node 0 to node 1, whose main returns
// at once, so that its scheduler sleeps and takes each one in the kernel
// loop. If compute is set, node 0 then computes that long without polling
// and polls until every message is acknowledged; otherwise its main
// returns and its sleeping scheduler takes the acks. Node 2 computes in
// 0.5 us steps for the first 200 us: while a charge of node 1's is under
// way it runs, so every charge node 1 takes on its stack costs a handoff
// back. The inner handler is registered atomic if atomic is set. It returns
// the order node 1 delivered the messages in, the handoffs of the whole
// run, and the processes the deliveries ran on. A non-nil sink observes the
// run.
func receiveRun(t *testing.T, atomic bool, msgs, nicCap int, compute sim.Duration, fault *cm5.FaultPlan, sink sim.Sink) (order []uint64, handoffs uint64, ranOn []*sim.Proc, u *am.Universe, tr *Transport) {
	eng := sim.New(5)
	t.Cleanup(eng.Shutdown)
	if sink != nil {
		eng.SetSink(sink)
	}
	cost := cm5.DefaultCostModel()
	cost.NICQueueCap = nicCap
	u = am.NewUniverse(eng, 3, cost)
	if fault != nil {
		u.Machine().SetFaultPlan(fault)
	}
	tr = Attach(u, Options{})
	register := u.Register
	if atomic {
		register = u.RegisterAtomic
	}
	h := register("deliver", func(c threads.Ctx, pkt *cm5.Packet) {
		order = append(order, pkt.W0)
		ranOn = append(ranOn, c.P)
	})
	if _, err := u.SPMD(func(c threads.Ctx, node int) {
		switch node {
		case 1:
			return
		case 2:
			for c.P.Now() < sim.Time(sim.Micros(200)) {
				c.P.Charge(sim.Micros(0.5))
			}
			return
		}
		ep := u.Endpoint(0)
		c.P.Charge(sim.Micros(20)) // node 1's main is long gone: its scheduler sleeps
		for i := 0; i < msgs; i++ {
			ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
		}
		if compute == 0 {
			return
		}
		c.P.Charge(compute) // not polling: acks queue up
		ol := &tr.nodes[0].peers.At(tr.nodes[0].sh, 1).out
		ep.PollUntil(c, func() bool { return ol.pending.n == 0 })
	}); err != nil {
		t.Fatal(err)
	}
	return order, eng.Handoffs(), ranOn, u, tr
}

// TestReceiveInKernelLoop: a data packet reaching a sleeping scheduler is
// accepted, acknowledged and charged for in the kernel loop, which switches
// to the node's idle process once, for the inner handler: two handoffs,
// there and back to node 2, and two more for the sender's injection. A
// duplicate is acknowledged there and never switched to. (Handled on the
// stack, a delivery cost four, the acknowledgment's charge a second round
// trip, and so did a duplicate.) An acknowledgment that the full NIC of a
// sender that is not polling refuses goes back to the stack, which drains
// and retries it and then delivers, in order. An atomic inner handler is
// delivered in the kernel loop too: neither a first copy nor its duplicate
// is switched to, only the sender's injection's two handoffs are left, and
// a refused ack still drains on the stack first.
func TestReceiveInKernelLoop(t *testing.T) {
	_, quiet, _, _, _ := receiveRun(t, false, 0, 64, 0, nil, nil)
	idle := func(u *am.Universe) *sim.Proc { return u.Scheduler(1).Idle() }
	for _, atomic := range []bool{false, true} {
		want := uint64(4)
		if atomic {
			want = 2
		}
		order, handoffs, ranOn, u, _ := receiveRun(t, atomic, 1, 64, 0, nil, nil)
		if len(order) != 1 || ranOn[0] != idle(u) || handoffs-quiet != want {
			t.Errorf("atomic %v, first copy: delivered %v, on the idle process: %v, %d handoffs more than no message; want [0], true, %d",
				atomic, order, len(ranOn) == 1 && ranOn[0] == idle(u), handoffs-quiet, want)
		}

		order, handoffs, _, u, tr := receiveRun(t, atomic, 1, 64, 0, &cm5.FaultPlan{Seed: 1, DupProb: 1}, nil)
		if st := tr.Stats(); len(order) != 1 || st.DupsSuppressed != 1 || st.AcksSent != 2 || handoffs-quiet != want {
			t.Errorf("atomic %v, duplicated: delivered %v, %d duplicates suppressed of %d acks sent, %d handoffs more than no message; want [0], 1, 2, %d",
				atomic, order, st.DupsSuppressed, st.AcksSent, handoffs-quiet, want)
		}
		if fs := u.Machine().FaultStats(); fs.Duplicated == 0 {
			t.Fatal("the network duplicated nothing: the test lost its subject")
		}

		var refused ackRefusals
		order, _, ranOn, u, tr = receiveRun(t, atomic, 2, 1, sim.Micros(100), nil, &refused)
		if st := tr.Stats(); len(order) != 2 || order[0] != 0 || order[1] != 1 || st.Delivered != 2 || st.AcksReceived != 2 {
			t.Errorf("atomic %v, refused ack: delivered %v, stats %+v; want [0 1], both delivered and acknowledged", atomic, order, st)
		}
		if refused == 0 {
			t.Fatal("no ack was refused: the test lost its subject")
		}
		if len(ranOn) != 2 || ranOn[0] != idle(u) || ranOn[1] != idle(u) {
			t.Errorf("atomic %v, refused ack: a delivery did not run on node 1's idle process", atomic)
		}
	}
}

// ackRefusals counts node 1's refused injections, which are acks.
type ackRefusals int

func (n *ackRefusals) Observe(r sim.Record) {
	if r.Layer == sim.LayerCM5 && r.Kind == cm5.RecBackpressure && r.Node == 1 {
		*n++
	}
}
