package reliable

import (
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
				for tr.nodes[0].peers.At(1).out.pending.n > 0 {
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
