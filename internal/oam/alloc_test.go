package oam

import (
	"runtime"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// TestInlineCommitZeroAllocs is the dispatcher's allocation budget: once
// the node's Env is pooled, an optimistic execution that takes a lock,
// releases it, buffers one send and commits inline allocates nothing — no
// Env, no held/outbox growth, no closure (the body is bound once and the
// caller rides on the Frame).
func TestInlineCommitZeroAllocs(t *testing.T) {
	const warm, calls = 1_000, 10_000
	eng := sim.New(1)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	d := NewDispatcher(Options{})
	d.SetNodes(2)
	mu := threads.NewMutex(u.Scheduler(1))
	var reply threads.Flag
	replyH := u.Register("reply", func(c threads.Ctx, pkt *cm5.Packet) { reply.Set() })
	body := func(e *Env) {
		e.Lock(mu)
		e.Unlock(mu)
		e.Send(e.Frame.Caller, replyH, [4]uint64{}, nil)
	}
	reqH := u.Register("req", func(c threads.Ctx, pkt *cm5.Packet) {
		d.RunFrame(c, u.Endpoint(1), "inc", body, Frame{Caller: pkt.Src})
	})
	var m0, m1 runtime.MemStats
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			return // serves from its idle loop
		}
		ep := u.Endpoint(0)
		for i := 0; i < warm+calls; i++ {
			if i == warm {
				runtime.ReadMemStats(&m0)
			}
			reply = threads.Flag{}
			ep.Send(c, 1, reqH, [4]uint64{}, nil)
			reply.Wait(c)
		}
		runtime.ReadMemStats(&m1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Succeeded != warm+calls {
		t.Fatalf("not every dispatch committed inline: %v", st)
	}
	if got := float64(m1.Mallocs-m0.Mallocs) / calls; got >= 0.01 {
		t.Fatalf("inline commit allocates %.4f objects/dispatch, want 0", got)
	}
}
