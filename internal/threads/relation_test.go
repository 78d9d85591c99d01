package threads_test

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

// awaitOp is a flag wait asked by the kernel at the end of a chain's
// charge.
type awaitOp struct {
	f *threads.Flag
	s *threads.Scheduler
}

func (o *awaitOp) Continue(p *sim.Proc) (sim.Next, sim.Duration) { return o.f.Await(p, o.s, nil) }

// waitProgram runs a 3-node program whose node 0 calls node 1 four times,
// blocking on a flag its reply handler sets, while a second thread there
// yields and node 2 sends node 0 messages whose handlers need a stack, so
// the scheduler acting for the blocked caller hands its process work. With
// kernel set each wait is asked by the kernel inside a chain (Await when
// the charge elapses) that am.Endpoint.Drive drives; otherwise the process
// charges on its stack and calls Wait, which drives Await through
// Scheduler.Then.
func waitProgram(t *testing.T, nicCap int, kernel bool) (trace []byte, summary string) {
	var buf bytes.Buffer
	eng := sim.New(5)
	t.Cleanup(eng.Shutdown)
	eng.SetSink(sim.NewWriterTracer(&buf))
	cost := cm5.DefaultCostModel()
	cost.NICQueueCap = nicCap
	u := am.NewUniverse(eng, 3, cost)
	const rounds = 4
	var flags [rounds]threads.Flag
	calls := 0
	reply := u.Register("reply", func(c threads.Ctx, pkt *cm5.Packet) { flags[pkt.W0].Set() })
	call := u.Register("call", func(c threads.Ctx, pkt *cm5.Packet) {
		calls++
		c.P.Charge(sim.Micros(2))
		u.Endpoint(1).Send(c, pkt.Src, reply, [4]uint64{pkt.W0}, nil)
	})
	noise := u.Register("noise", func(c threads.Ctx, pkt *cm5.Packet) { c.P.Charge(sim.Micros(1.2)) })
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		ep := u.Endpoint(node)
		switch node {
		case 0:
			c.S.Create(c, "yielder", false, func(c threads.Ctx) {
				for i := 0; i < 6; i++ {
					c.P.Charge(sim.Micros(3))
					c.S.Yield(c)
				}
			})
			for i := 0; i < rounds; i++ {
				ep.Send(c, 1, call, [4]uint64{uint64(i)}, nil)
				f, d := &flags[i], sim.Micros(0.4*float64(i))
				if kernel {
					ep.Drive(c, d, &awaitOp{f, c.S})
				} else {
					c.P.Charge(d)
					f.Wait(c)
				}
			}
		case 1:
			ep.PollUntil(c, func() bool { return calls == rounds })
		case 2:
			for i := 0; i < 8; i++ {
				c.P.Charge(sim.Micros(2.3))
				ep.Send(c, 0, noise, [4]uint64{}, nil)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return buf.Bytes(), fmt.Sprintf("trace %#x events %d charged %v %+v %+v",
		h.Sum64(), eng.Events(), eng.Charged(), u.Scheduler(0).Stats(), u.Stats())
}

// TestWaitKernelOrStack holds the flag wait to the one relation left
// between its callers: asked by the kernel inside a chain, or driven from
// the stack through sim.Proc.Then, it leaves the same trace bytes, Events,
// Charged and Stats — the pinned ones — on a free NIC and a full
// one.
func TestWaitKernelOrStack(t *testing.T) {
	for _, tc := range []struct {
		nicCap int
		want   string
	}{
		{128, "trace 0xd90bd75b5c0a6dd events 346 charged 248.4µs {Created:2 Starts:2 LiveStackStart:2 SwitchHalves:1 FreeResumes:3 Yields:0 Blocks:4 Adopted:0 Interrupts:0} {HandlersRun:16 Sends:16 BulkSends:0 DrainSpins:0 MaxDepth:1 HandlerTime:24µs}"},
		{1, "trace 0x8b732b5c10d6fd37 events 490 charged 303.2µs {Created:2 Starts:2 LiveStackStart:2 SwitchHalves:1 FreeResumes:3 Yields:0 Blocks:4 Adopted:0 Interrupts:0} {HandlersRun:16 Sends:16 BulkSends:0 DrainSpins:208 MaxDepth:1 HandlerTime:46.8µs}"},
	} {
		kTrace, kernel := waitProgram(t, tc.nicCap, true)
		sTrace, stack := waitProgram(t, tc.nicCap, false)
		if !bytes.Equal(kTrace, sTrace) {
			t.Errorf("cap %d: the kernel's and the stack's traces differ", tc.nicCap)
		}
		if kernel != stack || stack != tc.want {
			t.Errorf("cap %d:\n kernel %s\n stack  %s\n want   %s", tc.nicCap, kernel, stack, tc.want)
		}
	}
}
