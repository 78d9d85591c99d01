package am

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestPollUntilLostReply: a hand-coded wait on a message the network ate.
// Written as `for !got { Poll }` this program generates empty polls for
// ever and Run never returns; parked in PollUntil it leaves the engine
// quiescent, and SPMD's deadlock error says what node 0's main was doing.
func TestPollUntilLostReply(t *testing.T) {
	u := universe(t, 2, nil)
	u.Machine().SetFaultPlan(&cm5.FaultPlan{Seed: 1, DropProb: 1})
	got := false
	var pong HandlerID
	ping := u.Register("ping", func(c threads.Ctx, pkt *cm5.Packet) {
		u.Endpoint(1).Send(c, pkt.Src, pong, [4]uint64{}, nil)
	})
	pong = u.Register("pong", func(c threads.Ctx, pkt *cm5.Packet) { got = true })
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			u.Endpoint(0).Send(c, 1, ping, [4]uint64{}, nil)
			u.Endpoint(0).PollUntil(c, func() bool { return got })
		}
	})
	if err == nil {
		t.Fatal("a wait for a dropped message ended without a deadlock error")
	}
	// The ping leaves node 0 (the sender cannot tell it died) and the wait
	// starts when the injection is paid for.
	since := sim.Time(u.Machine().Cost().PacketSendOverhead)
	want := fmt.Sprintf("1 of 2 mains unfinished: deadlock at node 0 (blocked: [], polling an empty NIC since %v, 0 queued packets)", since)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock report\n %q\ndoes not say\n %q", err, want)
	}
}

// handlerStarts records when and where every handler began: the schedule
// of the program as its messages saw it.
type handlerStarts []string

func (hs *handlerStarts) HandlerStart(t sim.Time, node int, h HandlerID, depth int) {
	*hs = append(*hs, fmt.Sprintf("%v n%d h%d d%d", t, node, h, depth))
}
func (hs *handlerStarts) HandlerEnd(sim.Time, int, HandlerID, int) {}

// TestPollUntilMatchesHandLoop runs one 4-node program twice — its waits
// written out as the loop PollUntil replaces, then as PollUntil — and
// requires the same elapsed time, the same handler start times, the same
// Stats and the same engine counters. Every node computes for a different
// time between requests, so the waits start at different phases of each
// other's poll grids and are served from inside one another.
func TestPollUntilMatchesHandLoop(t *testing.T) {
	type outcome struct {
		elapsed                    sim.Time
		starts                     handlerStarts
		stats                      Stats
		charged                    sim.Duration
		events, dispatches, elided uint64
	}
	run := func(wait func(ep *Endpoint, c threads.Ctx, done func() bool)) outcome {
		const nodes, rounds = 4, 6
		u := universe(t, nodes, nil)
		var out outcome
		u.SetProbe(&out.starts)
		replies := make([]int, nodes)
		var reply HandlerID
		req := u.Register("req", func(c threads.Ctx, pkt *cm5.Packet) {
			c.P.Charge(sim.Micros(0.7))
			me := c.Node().ID()
			if pkt.W0%2 == 1 {
				u.Endpoint(me).SendBulk(c, pkt.Src, reply, [4]uint64{}, make([]byte, 64))
			} else {
				u.Endpoint(me).Send(c, pkt.Src, reply, [4]uint64{}, nil)
			}
		})
		reply = u.Register("reply", func(c threads.Ctx, pkt *cm5.Packet) { replies[c.Node().ID()]++ })
		var err error
		out.elapsed, err = u.SPMD(func(c threads.Ctx, node int) {
			ep := u.Endpoint(node)
			for r := 0; r < rounds; r++ {
				c.P.Charge(sim.Micros(3.7*float64(node+1) + 1.3*float64(r)))
				ep.Send(c, (node+1+r)%nodes, req, [4]uint64{uint64(r)}, nil)
				ep.Send(c, (node+2+r)%nodes, req, [4]uint64{uint64(r + 1)}, nil)
				wait(ep, c, func() bool { return replies[node] == 2*(r+1) })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := u.Machine().Engine()
		out.stats, out.charged = u.Stats(), eng.Charged()
		out.events, out.dispatches, out.elided = eng.Events(), eng.Dispatches(), eng.Elided()
		return out
	}
	loop := run(func(ep *Endpoint, c threads.Ctx, done func() bool) {
		for !done() {
			ep.Poll(c)
		}
	})
	wait := run((*Endpoint).PollUntil)
	if loop.elided != 0 || wait.elided == 0 {
		t.Errorf("elided %d events in the hand loop and %d in PollUntil; want none and some", loop.elided, wait.elided)
	}
	wait.elided = 0
	if !reflect.DeepEqual(loop, wait) {
		t.Errorf("PollUntil is not the hand loop:\n loop %+v\n wait %+v", loop, wait)
	}
}

// TestPollDispatchIsOneSwitch runs one 4-node program twice — every poll
// written out as cm5's PollPacket, then Deliver (two plain charges with the
// process resumed in between), and as Poll, which joins the ejection and
// the handler dispatch in one sim.Proc.ChargeSeq — and requires the same
// elapsed time, handler start times, Stats and engine counters, and fewer
// coroutine switches. Input queues hold two packets, so sends from inside
// handlers drain and dispatch nested handlers on the way.
func TestPollDispatchIsOneSwitch(t *testing.T) {
	type outcome struct {
		elapsed            sim.Time
		starts             handlerStarts
		stats              Stats
		charged            sim.Duration
		events, dispatches uint64
	}
	run := func(poll func(ep *Endpoint, c threads.Ctx) bool) (outcome, uint64) {
		const nodes, rounds = 4, 6
		u := universe(t, nodes, func(c *cm5.CostModel) { c.NICQueueCap = 2 })
		var out outcome
		u.SetProbe(&out.starts)
		send := func(c threads.Ctx, dst int, h HandlerID, w0 uint64) {
			for ep := u.Endpoint(c.Node().ID()); !ep.TrySend(c, dst, h, [4]uint64{w0}, nil); {
				poll(ep, c)
			}
		}
		replies := 0
		var reply HandlerID
		req := u.Register("req", func(c threads.Ctx, pkt *cm5.Packet) {
			c.P.Charge(sim.Micros(0.7))
			send(c, pkt.Src, reply, pkt.W0)
		})
		reply = u.Register("reply", func(c threads.Ctx, pkt *cm5.Packet) { replies++ })
		var err error
		out.elapsed, err = u.SPMD(func(c threads.Ctx, node int) {
			for r := 0; r < rounds; r++ {
				c.P.Charge(sim.Micros(1.1*float64(node) + 0.3*float64(r)))
				for d := 1; d < nodes; d++ {
					send(c, (node+d)%nodes, req, uint64(r))
				}
			}
			// Every main polls until the last reply anywhere is in, so no
			// message is left to the scheduler's idle loop, which is Poll.
			for ep := u.Endpoint(node); replies < nodes*rounds*(nodes-1); {
				poll(ep, c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := u.Machine().Engine()
		out.stats, out.charged = u.Stats(), eng.Charged()
		out.events, out.dispatches = eng.Events(), eng.Dispatches()
		return out, eng.Handoffs()
	}
	two, twoHandoffs := run(func(ep *Endpoint, c threads.Ctx) bool {
		pkt := ep.node.PollPacket(c.P)
		if pkt == nil {
			return false
		}
		ep.Deliver(c, pkt)
		ep.node.ReleasePacket(pkt)
		return true
	})
	one, oneHandoffs := run((*Endpoint).Poll)
	if !reflect.DeepEqual(two, one) {
		t.Errorf("Poll is not PollPacket + Deliver:\n two %+v\n one %+v", two, one)
	}
	if one.stats.MaxDepth < 2 || one.stats.HandlerTime == 0 {
		t.Errorf("MaxDepth %d, HandlerTime %v: the program did not nest a drain", one.stats.MaxDepth, one.stats.HandlerTime)
	}
	if oneHandoffs >= twoHandoffs {
		t.Errorf("%d handoffs with Poll, %d with two charges; want fewer", oneHandoffs, twoHandoffs)
	}
	t.Logf("%d events, %d dispatches, handoffs %d -> %d", one.events, one.dispatches, twoHandoffs, oneHandoffs)
}
