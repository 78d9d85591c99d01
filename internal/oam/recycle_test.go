package oam

import (
	"slices"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestPromotedExecutionKeepsItsEnv: Envs are recycled per node, but a
// promoted execution owns its record until its thread ends. While call 1
// is suspended on a busy lock — promoted in place (Continuation) or
// re-run as a thread (Rerun) — calls 2 and 3 on the same node must draw
// another record (the same one twice: it is released at settle), and call
// 1 must come back to its own frame, its optimistically taken lock
// re-labelled to the thread (or re-taken by it), and its buffered send
// leaving before the one it makes afterwards.
func TestPromotedExecutionKeepsItsEnv(t *testing.T) {
	for _, strat := range []Strategy{Rerun, Continuation} {
		t.Run(strat.String(), func(t *testing.T) {
			eng := sim.New(31)
			t.Cleanup(eng.Shutdown)
			u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
			d := NewDispatcher(Options{Strategy: strat})
			own := threads.NewMutex(u.Scheduler(1))
			gate := threads.NewMutex(u.Scheduler(1))
			var arrived []uint64
			sink := u.Register("sink", func(c threads.Ctx, pkt *cm5.Packet) { arrived = append(arrived, pkt.W0) })
			envs := map[uint64][]*Env{} // every Env each call's body ran against
			finished := 0
			body := func(e *Env) {
				id := e.Frame.ID
				envs[id] = append(envs[id], e)
				e.Send(0, sink, [4]uint64{id * 10}, nil)
				if id == 1 {
					e.Lock(own)
					e.Lock(gate) // busy on the first attempt
					if got := e.Frame.ID; got != 1 {
						t.Errorf("call 1 resumed with call %d's frame", got)
					}
					if e.Optimistic() {
						t.Error("call 1 got the gate optimistically")
					}
					e.Send(0, sink, [4]uint64{11}, nil)
					e.Unlock(gate)
					e.Unlock(own)
				}
				finished++
			}
			call := u.Register("call", func(c threads.Ctx, pkt *cm5.Packet) {
				d.RunFrame(c, u.Endpoint(1), "call", body, Frame{Caller: pkt.Src, ID: pkt.W0})
			})
			_, err := u.SPMD(func(c threads.Ctx, node int) {
				ep := u.Endpoint(node)
				if node == 0 {
					for id := uint64(1); id <= 4; id++ {
						ep.Send(c, 1, call, [4]uint64{id}, nil)
					}
					for len(arrived) < 5 {
						c.S.Yield(c)
						ep.Poll(c)
					}
					return
				}
				gate.Lock(c)
				for d.Stats().Total < 3 {
					ep.Poll(c) // call 1 promotes; calls 2 and 3 commit inline
				}
				if st := d.Stats(); st.Promoted != 1 || st.Succeeded != 2 {
					t.Errorf("with the gate held: %v", st)
				}
				gate.Unlock(c)
				for finished < 3 {
					c.S.Yield(c)
				}
				for d.Stats().Total < 4 {
					ep.Poll(c) // call 4, after call 1's thread has ended
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := []uint64{20, 30, 10, 11, 40}; !slices.Equal(arrived, want) {
				t.Errorf("sends arrived as %v, want %v", arrived, want)
			}
			e1, e2, e3, e4 := envs[1], envs[2], envs[3], envs[4]
			if len(e1) == 0 || len(e2) != 1 || len(e3) != 1 || len(e4) != 1 {
				t.Fatalf("bodies ran against %v", envs)
			}
			for _, e := range e1 {
				if e != e1[0] {
					t.Error("call 1's rerun drew a different Env from its attempt")
				}
			}
			if e2[0] == e1[0] || e3[0] == e1[0] {
				t.Error("a later attempt drew the Env a promoted execution still owns")
			}
			if e2[0] != e3[0] {
				t.Error("call 3 did not reuse the Env call 2 released at settle")
			}
			pooled := 0
			for e := d.free[1]; e != nil; e = e.next {
				pooled++
				if e.body != nil || e.ent != nil || len(e.held) != 0 || len(e.outbox) != 0 || e.lent || e.settled {
					t.Errorf("pooled Env still carries an execution: %+v", e)
				}
			}
			if pooled != 2 {
				t.Errorf("node 1 ended with %d pooled Envs, want 2 (one per concurrent execution)", pooled)
			}
		})
	}
}
