package cm5

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/sim"
)

// injectOp is an injection asked by the kernel at the end of a chain's
// charge; ok records whether the network took the packet.
type injectOp struct {
	n   *Node
	pkt *Packet
	ok  bool
}

func (o *injectOp) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	busy, in, ok := o.n.Inject(o.pkt, nil)
	if o.ok = ok; !ok {
		return sim.NextRun, 0
	}
	p.Pass(in)
	return sim.NextCharge, busy
}

// injectProgram runs a 3-node program in which nodes 0 and 1 inject
// packets, small and bulk, into node 2, which computes before it polls; a
// refused sender burns a poll and tries again. With kernel set each
// packet's first attempt is asked by the kernel inside a chain
// (ChargeThen, Inject when the charge elapses); otherwise the process
// charges on its stack and calls TryInject, which drives Inject through
// ChargeThen.
func injectProgram(t *testing.T, nicCap int, kernel bool) (trace []byte, summary string) {
	var buf bytes.Buffer
	eng := sim.New(1)
	t.Cleanup(eng.Shutdown)
	eng.SetSink(sim.NewWriterTracer(&buf))
	cost := DefaultCostModel()
	cost.NICQueueCap = nicCap
	m := NewMachine(eng, 3, cost)
	const rounds = 4
	for src := 0; src < 2; src++ {
		n := m.Node(src)
		eng.Spawn(fmt.Sprintf("sender%d", src), func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				pkt := &Packet{Src: src, Dst: 2, Kind: Small, W0: uint64(i)}
				if i%2 == 1 {
					pkt.Kind, pkt.Payload = Bulk, make([]byte, 48)
				}
				d, sent := sim.Micros(0.7*float64(src+i)), false
				if kernel {
					op := &injectOp{n: n, pkt: pkt}
					p.ChargeThen(d, op)
					sent = op.ok
				} else {
					p.Charge(d)
					sent = n.TryInject(p, pkt)
				}
				for !sent {
					p.Charge(cost.PollEmpty)
					sent = n.TryInject(p, pkt)
				}
			}
		})
	}
	eng.Spawn("receiver", func(p *sim.Proc) {
		p.Charge(sim.Micros(30)) // computing, not polling
		for got := 0; got < 2*rounds; {
			if m.Node(2).PollPacket(p) != nil {
				p.Charge(sim.Micros(2))
				got++
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return buf.Bytes(), fmt.Sprintf("trace %#x events %d charged %v %+v", h.Sum64(), eng.Events(), eng.Charged(), m.Stats())
}

// TestInjectKernelOrStack holds the one injection to the one relation left
// between its callers: asked by the kernel inside a chain, or driven from
// the stack (TryInject), it leaves the same trace bytes, Events, Charged
// and Stats — the pinned ones. On the small NICs attempts are
// refused, so a refusal counted twice, or one not counted, shows.
func TestInjectKernelOrStack(t *testing.T) {
	for _, tc := range []struct {
		nicCap int
		want   string
	}{
		{128, "trace 0xe79eca43d702353c events 172 charged 309.04µs {SmallSent:4 BulkSent:4 BytesSent:192 FullRejects:0 MaxQueueSeen:2}"},
		{2, "trace 0x72d6fdbbed36351e events 416 charged 406.64µs {SmallSent:4 BulkSent:4 BytesSent:192 FullRejects:163 MaxQueueSeen:2}"},
		{1, "trace 0xc645de991e79da00 events 917 charged 607.04µs {SmallSent:4 BulkSent:4 BytesSent:192 FullRejects:416 MaxQueueSeen:1}"},
	} {
		kTrace, kernel := injectProgram(t, tc.nicCap, true)
		sTrace, stack := injectProgram(t, tc.nicCap, false)
		if !bytes.Equal(kTrace, sTrace) {
			t.Errorf("cap %d: the kernel's and the stack's traces differ", tc.nicCap)
		}
		if kernel != stack || stack != tc.want {
			t.Errorf("cap %d:\n kernel %s\n stack  %s\n want   %s", tc.nicCap, kernel, stack, tc.want)
		}
	}
}
