package am

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// sendOp is a send asked by the kernel at the end of a chain's charge.
type sendOp struct {
	ep   *Endpoint
	dst  int
	h    HandlerID
	bulk bool
	w0   uint64
}

func (o *sendOp) Continue(p *sim.Proc) (sim.Next, sim.Duration) {
	return o.ep.SendThen(p, o.ep.Packet(o.dst, o.h, o.bulk, [4]uint64{o.w0}, payloadFor(o.bulk)), nil)
}

func payloadFor(bulk bool) []byte {
	if bulk {
		return make([]byte, 48)
	}
	return nil
}

// sendProgram runs a 3-node program in which nodes 0 and 1 send requests,
// small and bulk, to node 2, which computes before it polls; each request
// is answered from its handler, and the senders poll for the answers. With
// kernel set each request is sent by the kernel inside a chain (Drive with
// a charge, SendThen when it elapses); otherwise the process charges on its
// stack and calls Send or SendBulk. It returns the trace bytes and a
// summary of the engine's and the layers' counters.
func sendProgram(t *testing.T, nicCap int, kernel bool) (trace []byte, summary string) {
	var buf bytes.Buffer
	u := universe(t, 3, func(c *cm5.CostModel) { c.NICQueueCap = nicCap })
	eng := u.Machine().Engine()
	eng.SetSink(sim.NewWriterTracer(&buf))
	answers := make([]int, 3)
	var answer HandlerID
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
			d, bulk := sim.Micros(0.7*float64(node+i)), i%2 == 1
			if kernel {
				ep.Drive(c, d, &sendOp{ep, 2, request, bulk, uint64(i)})
			} else {
				c.P.Charge(d)
				if bulk {
					ep.SendBulk(c, 2, request, [4]uint64{uint64(i)}, payloadFor(true))
				} else {
					ep.Send(c, 2, request, [4]uint64{uint64(i)}, nil)
				}
			}
		}
		ep.PollUntil(c, func() bool { return answers[node] == rounds })
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return buf.Bytes(), fmt.Sprintf("trace %#x events %d charged %v rejects %d %+v",
		h.Sum64(), eng.Events(), eng.Charged(), u.Machine().Stats().FullRejects, u.Stats())
}

// TestSendKernelOrStack holds the one relation left between a send's
// callers: asked by the kernel inside a chain, or driven from the stack
// through sim.Proc.Then, a send leaves the same trace bytes, Events,
// Charged, refusals and Stats — the pinned ones. On the small NICs
// requests are refused and drained, so a refused attempt counted twice, or
// a retry that loses its place in the chain, shows.
func TestSendKernelOrStack(t *testing.T) {
	for _, tc := range []struct {
		nicCap int
		want   string
	}{
		{128, "trace 0xc51ec0d51672afa8 events 184 charged 341.44µs rejects 0 {HandlersRun:16 Sends:12 BulkSends:4 DrainSpins:0 MaxDepth:1 HandlerTime:24.8µs}"},
		{2, "trace 0x959ca1d3b5bbe9e events 522 charged 476.64µs rejects 213 {HandlersRun:16 Sends:12 BulkSends:4 DrainSpins:213 MaxDepth:1 HandlerTime:24.8µs}"},
		{1, "trace 0x29e57ea2b325c91e events 1140 charged 723.84µs rejects 579 {HandlersRun:16 Sends:12 BulkSends:4 DrainSpins:579 MaxDepth:1 HandlerTime:24.8µs}"},
	} {
		kTrace, kernel := sendProgram(t, tc.nicCap, true)
		sTrace, stack := sendProgram(t, tc.nicCap, false)
		if !bytes.Equal(kTrace, sTrace) {
			t.Errorf("cap %d: the kernel's and the stack's traces differ", tc.nicCap)
		}
		if kernel != stack || stack != tc.want {
			t.Errorf("cap %d:\n kernel %s\n stack  %s\n want   %s", tc.nicCap, kernel, stack, tc.want)
		}
	}
}
