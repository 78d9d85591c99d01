package reliable

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// framedOp is a reliable send asked by the kernel at the end of a chain's
// charge.
type framedOp struct {
	ep  *am.Endpoint
	dst int
	h   am.HandlerID
	w0  uint64
}

func (o *framedOp) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	return o.ep.SendThen(p, o.ep.Packet(o.dst, o.h, false, [4]uint64{o.w0}, nil), nil)
}

// framedProgram runs a 3-node program over a lossy reliable channel: nodes
// 0 and 1 send requests to node 2, which computes before it polls and
// answers each from its handler; the senders poll for the answers. With
// kernel set each request is sent by the kernel inside a chain (Drive with
// a charge, SendThen when it elapses); otherwise the process charges on its
// stack and calls Send. Dropped packets are retransmitted from the timers
// the first transmissions armed, so a send that skips its launch shows.
func framedProgram(t *testing.T, nicCap int, kernel bool) (trace []byte, summary string) {
	var buf bytes.Buffer
	eng := sim.New(3)
	t.Cleanup(eng.Shutdown)
	eng.SetSink(sim.NewWriterTracer(&buf))
	cost := cm5.DefaultCostModel()
	cost.NICQueueCap = nicCap
	u := am.NewUniverse(eng, 3, cost)
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 9, DropProb: 0.15})
	tr := Attach(u, Options{})
	answers := make([]int, 3)
	var answer am.HandlerID
	request := u.Register("request", func(c threads.Ctx, pkt *cm5.Packet) {
		c.P.Charge(sim.Micros(1.5))
		u.Endpoint(2).Send(c, pkt.Src, answer, [4]uint64{pkt.W0}, nil)
	})
	answer = u.Register("answer", func(c threads.Ctx, pkt *cm5.Packet) { answers[pkt.Dst]++ })
	const rounds = 4
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		if node == 2 {
			c.P.Charge(sim.Micros(40)) // computing, not polling
			for got := 0; got < 2*rounds; {
				if ep.Poll(c) {
					got++
				}
			}
			return
		}
		for i := 0; i < rounds; i++ {
			d := sim.Micros(0.7 * float64(node+i))
			if kernel {
				ep.Drive(c, d, &framedOp{ep, 2, request, uint64(i)})
			} else {
				c.P.Charge(d)
				ep.Send(c, 2, request, [4]uint64{uint64(i)}, nil)
			}
		}
		for answers[node] < rounds {
			ep.Poll(c)
			c.S.Yield(c) // the retransmit daemon needs the CPU
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return buf.Bytes(), fmt.Sprintf("trace %#x events %d charged %v rejects %d drain %d %+v",
		h.Sum64(), eng.Events(), eng.Charged(), u.Machine().Stats().FullRejects, u.Stats().DrainSpins, tr.Stats())
}

// TestFramedSendKernelOrStack holds the reliable send to the one relation
// left between its callers: asked by the kernel inside a chain, or driven
// from the stack through sim.Proc.Then, it leaves the same trace bytes,
// Events, Charged, refusals and Stats — the pinned ones. Packets
// are dropped, so a first transmission that is never armed (launched) is
// never retransmitted; on the small NICs requests, acks and retransmissions
// are refused and drained, so a refused attempt counted twice shows.
func TestFramedSendKernelOrStack(t *testing.T) {
	for _, tc := range []struct {
		nicCap int
		want   string
	}{
		{128, "trace 0xb88f2d2124262aa8 events 1505 charged 1.0675ms rejects 0 drain 0 {DataSent:16 Retransmits:7 AcksSent:18 AcksReceived:16 StaleAcks:0 Delivered:16 DupsSuppressed:2 GaveUp:0}"},
		{2, "trace 0xffcf919c8031b0b2 events 2658 charged 1.6141ms rejects 19 drain 19 {DataSent:16 Retransmits:10 AcksSent:17 AcksReceived:15 StaleAcks:0 Delivered:16 DupsSuppressed:1 GaveUp:0}"},
	} {
		kTrace, kernel := framedProgram(t, tc.nicCap, true)
		sTrace, stack := framedProgram(t, tc.nicCap, false)
		if !bytes.Equal(kTrace, sTrace) {
			t.Errorf("cap %d: the kernel's and the stack's traces differ", tc.nicCap)
		}
		if kernel != stack || stack != tc.want {
			t.Errorf("cap %d:\n kernel %s\n stack  %s\n want   %s", tc.nicCap, kernel, stack, tc.want)
		}
	}
}
