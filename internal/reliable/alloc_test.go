package reliable

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestPerfectLinkZeroAllocs is the transport's allocation budget: on a
// link that loses nothing, a message's whole reliable life — sequence
// number, pending entry, armed and cancelled retransmit timer, receive
// window, ack, retire — allocates nothing once the pending-message pool
// and the pending ring have reached the link's flight size.
func TestPerfectLinkZeroAllocs(t *testing.T) {
	const warm, msgs = 2_000, 10_000
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	tr := Attach(u, Options{})
	received := 0
	h := u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { received++ })
	var m0, m1 runtime.MemStats
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < warm+msgs; i++ {
				if i == warm {
					runtime.ReadMemStats(&m0)
				}
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
				for tr.nodes[0].peers.At(tr.nodes[0].sh, 1).out.pending.n > 0 {
					c.P.Charge(sim.Micros(2))
					ep.PollAll(c) // take the ack
				}
			}
			runtime.ReadMemStats(&m1)
			return
		}
		for received < warm+msgs {
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Retransmits != 0 || st.Delivered != warm+msgs || st.StaleAcks != 0 {
		t.Fatalf("the link was not perfect: %+v", st)
	}
	if got := float64(m1.Mallocs-m0.Mallocs) / msgs; got >= 0.01 {
		t.Fatalf("reliable send + ack allocates %.4f objects/message, want 0", got)
	}
}

// TestLossyLinkAllocBudget is the same budget on a link that drops 10 %
// and duplicates 5 % of its packets: a retransmit, a suppressed
// duplicate and the fault that caused it allocate nothing once warm.
// Bytes, not objects, are bounded: a fault record that grows a slice
// allocates rarely but many bytes at a time, so it reads well under one
// object per message and tens of bytes per message.
func TestLossyLinkAllocBudget(t *testing.T) {
	const warm, msgs = 2_000, 10_000
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 3, DropProb: 0.10, DupProb: 0.05})
	tr := Attach(u, Options{})
	received := 0
	h := u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { received++ })
	pending := func() uint64 { return tr.nodes[0].peers.At(tr.nodes[0].sh, 1).out.pending.n }
	var m0, m1 runtime.MemStats
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 0 {
			for i := 0; i < warm+msgs; i++ {
				if i == warm {
					runtime.ReadMemStats(&m0)
				}
				ep.Send(c, 1, h, [4]uint64{uint64(i)}, nil)
				for pending() > 0 {
					c.P.Charge(sim.Micros(2))
					ep.PollAll(c)
					c.S.Yield(c) // the retransmit daemon needs the CPU
				}
			}
			runtime.ReadMemStats(&m1)
			return
		}
		for received < warm+msgs || pending() > 0 { // re-ack a retransmit whose ack was lost
			c.P.Charge(sim.Micros(2))
			ep.PollAll(c)
			c.S.Yield(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Retransmits == 0 || st.DupsSuppressed == 0 || st.Delivered != warm+msgs || st.GaveUp != 0 {
		t.Fatalf("the link did not lose and duplicate as planned: %+v", st)
	}
	if got := float64(m1.TotalAlloc-m0.TotalAlloc) / msgs; got >= 1 {
		t.Fatalf("a reliable message on a lossy link allocates %.1f bytes, want < 1", got)
	}
}

// TestSmallRoundTripZeroAllocs: a request and its reply, each carrying a
// cm5.MaxPayload-byte payload, make a reliable round trip that allocates
// nothing once warm: the payload is copied into each packet, and into the
// pending message that keeps it for retransmission.
func TestSmallRoundTripZeroAllocs(t *testing.T) {
	const warm, trips = 2_000, 10_000
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	tr := Attach(u, Options{})
	var back uint64
	backH := u.Register("back", func(c threads.Ctx, pkt *cm5.Packet) {
		back = binary.LittleEndian.Uint64(pkt.Payload[8:])
	})
	echoH := u.Register("echo", func(c threads.Ctx, pkt *cm5.Packet) {
		u.Endpoint(1).Send(c, 0, backH, [4]uint64{}, pkt.Payload)
	})
	payload := make([]byte, cm5.MaxPayload)
	var m0, m1 runtime.MemStats
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			return // echoes from its idle loop
		}
		ep := u.Endpoint(0)
		for i := uint64(1); i <= warm+trips; i++ {
			if i == warm {
				runtime.ReadMemStats(&m0)
			}
			binary.LittleEndian.PutUint64(payload[8:], i)
			ep.Send(c, 1, echoH, [4]uint64{}, payload)
			ep.PollUntil(c, func() bool { return back == i })
		}
		runtime.ReadMemStats(&m1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Retransmits != 0 || st.Delivered != 2*(warm+trips) {
		t.Fatalf("the link was not perfect: %+v", st)
	}
	if got := float64(m1.Mallocs-m0.Mallocs) / trips; got >= 0.01 {
		t.Fatalf("a small reliable round trip allocates %.4f objects, want 0", got)
	}
}
