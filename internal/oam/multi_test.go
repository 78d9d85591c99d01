package oam

import (
	"fmt"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// multiRig builds a 2-node universe whose node 1 routes incoming "call"
// messages through RunMulti. The packet words carry the compatibility
// position: W0 is the method class, W1 the disjointness key, W2 an opaque
// tag handed to body and settled. All rig state lives on node 1's shard,
// so tests may read it from node 1's SPMD body without synchronization.
type multiRig struct {
	eng      *sim.Engine
	u        *am.Universe
	d        *Dispatcher
	call     am.HandlerID
	outcomes map[uint64]Outcome
	reasons  map[uint64]Reason
}

func newMultiRig(t *testing.T, opts Options, body func(e *Env, tag uint64)) *multiRig {
	t.Helper()
	eng := sim.New(31)
	u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
	r := &multiRig{
		eng: eng, u: u, d: NewDispatcher(opts),
		outcomes: map[uint64]Outcome{}, reasons: map[uint64]Reason{},
	}
	r.call = u.Register("call", func(c threads.Ctx, pkt *cm5.Packet) {
		class, key, tag := int(int64(pkt.W0)), pkt.W1, pkt.W2
		r.d.RunMulti(c, u.Endpoint(c.Node().ID()), "call", class, key, true,
			func(e *Env) { body(e, e.Frame.ID) }, Frame{ID: tag},
			func(_ threads.Ctx, f Frame, o Outcome, re Reason) {
				r.outcomes[f.ID] = o
				r.reasons[f.ID] = re
			})
	})
	t.Cleanup(eng.Shutdown)
	return r
}

// send issues one call from node 0 carrying (class, key, tag).
func (r *multiRig) send(c threads.Ctx, class int, key, tag uint64) {
	r.u.Endpoint(0).Send(c, 1, r.call, [4]uint64{uint64(int64(class)), key, tag}, nil)
}

// TestMultiCompatibleHandlersOverlap: two always-compatible dispatches are
// both admitted straight onto cores and their executions overlap in
// virtual time — the whole point of multiactive dispatch.
func TestMultiCompatibleHandlersOverlap(t *testing.T) {
	tab := NewCompatTable(1)
	tab.Allow(0, 0)
	type span struct{ start, end sim.Time }
	spans := map[uint64]span{}
	r := newMultiRig(t, Options{Strategy: Rerun, Cores: 2, Compat: tab},
		func(e *Env, tag uint64) {
			start := e.Ctx().P.Now()
			e.Compute(sim.Micros(50))
			spans[tag] = span{start, e.Ctx().P.Now()}
		})
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			r.send(c, 0, 1, 1)
			r.send(c, 0, 2, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.d.Stats()
	if st.Total != 2 || st.Succeeded != 2 || st.CompatAdmitted != 2 || st.CompatQueued != 0 {
		t.Fatalf("stats %v", st)
	}
	a, b := spans[1], spans[2]
	if a.end == 0 || b.end == 0 {
		t.Fatalf("spans incomplete: %+v %+v", a, b)
	}
	if !(a.start < b.end && b.start < a.end) {
		t.Fatalf("executions did not overlap: %+v vs %+v", a, b)
	}
	if r.outcomes[1] != Completed || r.outcomes[2] != Completed {
		t.Fatalf("outcomes %v", r.outcomes)
	}
}

// TestMultiIncompatibleSerializeFIFO: with an all-incompatible matrix only
// one execution runs at a time, later arrivals park in the compatibility
// queue, and completion order is arrival order.
func TestMultiIncompatibleSerializeFIFO(t *testing.T) {
	tab := NewCompatTable(1) // no Allow: class 0 excludes itself
	var order []uint64
	type span struct{ start, end sim.Time }
	spans := map[uint64]span{}
	r := newMultiRig(t, Options{Strategy: Rerun, Cores: 2, Compat: tab},
		func(e *Env, tag uint64) {
			start := e.Ctx().P.Now()
			e.Compute(sim.Micros(20))
			order = append(order, tag)
			spans[tag] = span{start, e.Ctx().P.Now()}
		})
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			r.send(c, 0, 0, 1)
			r.send(c, 0, 0, 2)
			r.send(c, 0, 0, 3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.d.Stats()
	if st.Total != 3 || st.Succeeded != 3 {
		t.Fatalf("stats %v", st)
	}
	if st.CompatAdmitted+st.CompatQueued != st.Total || st.CompatQueued < 2 {
		t.Fatalf("admission split admitted=%d queued=%d", st.CompatAdmitted, st.CompatQueued)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order %v, want [1 2 3]", order)
	}
	for i := uint64(1); i < 3; i++ {
		if spans[i+1].start < spans[i].end {
			t.Fatalf("incompatible executions overlapped: %+v then %+v", spans[i], spans[i+1])
		}
	}
}

// TestMultiDisjointKeyAdmission: a disjoint-key clause admits concurrent
// executions exactly when the keys differ.
func TestMultiDisjointKeyAdmission(t *testing.T) {
	for _, sameKey := range []bool{true, false} {
		tab := NewCompatTable(1)
		tab.AllowDisjoint(0, 0)
		r := newMultiRig(t, Options{Strategy: Rerun, Cores: 2, Compat: tab},
			func(e *Env, tag uint64) { e.Compute(sim.Micros(20)) })
		_, err := r.u.SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				key2 := uint64(7)
				if !sameKey {
					key2 = 8
				}
				r.send(c, 0, 7, 1)
				r.send(c, 0, key2, 2)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		st := r.d.Stats()
		if st.Succeeded != 2 {
			t.Fatalf("sameKey=%v: stats %v", sameKey, st)
		}
		wantQueued := uint64(0)
		if sameKey {
			wantQueued = 1
		}
		if st.CompatQueued != wantQueued {
			t.Fatalf("sameKey=%v: queued %d, want %d (stats %v)", sameKey, st.CompatQueued, wantQueued, st)
		}
	}
}

// TestMultiAbortReleasesCoreShadowSlot: the abort-semantics gate. A
// compat-admitted execution that aborts mid-run (LockBusy on a held
// mutex) must release its core — but its shadow slot keeps incompatible
// arrivals queued until the rerun thread finishes, and peers already
// running are not perturbed.
func TestMultiAbortReleasesCoreShadowSlot(t *testing.T) {
	tab := NewCompatTable(2)
	tab.Allow(0, 0) // class 1 is incompatible with class 0 and itself
	var mu *threads.Mutex
	var order []uint64
	r := newMultiRig(t, Options{Strategy: Rerun, Cores: 2, Compat: tab},
		func(e *Env, tag uint64) {
			if tag == 1 {
				e.Lock(mu) // held by node 1's SPMD body: aborts, promotes
				e.Unlock(mu)
			}
			e.Compute(sim.Micros(1))
			order = append(order, tag)
		})
	mu = threads.NewMutex(r.u.Scheduler(1))
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		ep := r.u.Endpoint(node)
		if node == 0 {
			r.send(c, 0, 0, 1) // aborter (class 0)
			r.send(c, 1, 0, 2) // incompatible with the shadow slot (class 1)
			return
		}
		mu.Lock(c)
		for r.d.Stats().Promoted == 0 {
			ep.Poll(c)
		}
		// The abort released the core, so the dispatch settled Promoted —
		// but the shadow slot must still hold back the incompatible peer.
		st := r.d.Stats()
		if st.CompatQueued != 1 {
			t.Errorf("peer not queued behind shadow slot: stats %v", st)
		}
		if len(order) != 0 {
			t.Errorf("work ran under the shadow slot: order %v", order)
		}
		mu.Unlock(c)
		for len(order) < 2 {
			c.S.Yield(c)
			ep.Poll(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.d.Stats()
	if st.Total != 2 || st.Promoted != 1 || st.Succeeded != 1 || st.ByReason[LockBusy] != 1 {
		t.Fatalf("stats %v", st)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order %v, want [1 2]: the queued peer must wait for the rerun", order)
	}
	if r.outcomes[1] != Promoted || r.reasons[1] != LockBusy || r.outcomes[2] != Completed {
		t.Fatalf("outcomes %v reasons %v", r.outcomes, r.reasons)
	}
	if mu.Held() {
		t.Fatal("lock leaked")
	}
}

// TestMultiAbortDoesNotPerturbPeer: an abort on one core leaves a
// compatible peer already running on another core untouched — the peer
// commits optimistically with its own virtual-time span intact.
func TestMultiAbortDoesNotPerturbPeer(t *testing.T) {
	tab := NewCompatTable(1)
	tab.Allow(0, 0)
	var peerEnd sim.Time
	r := newMultiRig(t, Options{Strategy: Rerun, Cores: 2, Compat: tab, HandlerBudget: sim.Micros(10)},
		func(e *Env, tag uint64) {
			if tag == 1 {
				e.Compute(sim.Micros(10) + 1) // one ns over budget: aborts
				return
			}
			e.Compute(sim.Micros(5))
			peerEnd = e.Ctx().P.Now()
		})
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			r.send(c, 0, 1, 1)
			r.send(c, 0, 2, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.d.Stats()
	if st.Total != 2 || st.Succeeded != 1 || st.Promoted != 1 || st.ByReason[TooLong] != 1 {
		t.Fatalf("stats %v", st)
	}
	if r.outcomes[1] != Promoted || r.reasons[1] != TooLong {
		t.Fatalf("aborter settled %v/%v", r.outcomes[1], r.reasons[1])
	}
	if r.outcomes[2] != Completed || peerEnd == 0 {
		t.Fatalf("peer perturbed: outcome %v end %v", r.outcomes[2], peerEnd)
	}
}

// TestMultiHandlerBudgetBoundary extends the budget-boundary suite to
// Cores > 1: computing exactly the budget does not abort; one nanosecond
// more does — on a core worker just like on the polling context.
func TestMultiHandlerBudgetBoundary(t *testing.T) {
	for _, over := range []bool{false, true} {
		extra := sim.Duration(0)
		if over {
			extra = 1
		}
		tab := NewCompatTable(1)
		tab.Allow(0, 0)
		r := newMultiRig(t, Options{Strategy: Rerun, Cores: 2, Compat: tab, HandlerBudget: sim.Micros(10)},
			func(e *Env, tag uint64) {
				e.Compute(sim.Micros(10) + extra)
			})
		_, err := r.u.SPMD(func(c threads.Ctx, node int) {
			if node == 0 {
				r.send(c, 0, 1, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		st := r.d.Stats()
		if over && (st.ByReason[TooLong] != 1 || st.Promoted != 1) {
			t.Fatalf("over budget: stats %v", st)
		}
		if !over && (st.ByReason[TooLong] != 0 || st.Succeeded != 1) {
			t.Fatalf("at budget: stats %v", st)
		}
	}
}

// TestMultiNackDrainsQueue: under the Nack strategy an abort settles
// NackNeeded and the worker immediately continues with the queued head on
// the same core.
func TestMultiNackDrainsQueue(t *testing.T) {
	tab := NewCompatTable(1) // all-incompatible: second call queues
	var order []uint64
	r := newMultiRig(t, Options{Strategy: Nack, Cores: 2, Compat: tab, HandlerBudget: sim.Micros(10)},
		func(e *Env, tag uint64) {
			if tag == 1 {
				e.Compute(sim.Micros(10) + 1) // aborts; Nack settles it
			}
			order = append(order, tag)
		})
	_, err := r.u.SPMD(func(c threads.Ctx, node int) {
		if node == 0 {
			r.send(c, 0, 0, 1)
			r.send(c, 0, 0, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.d.Stats()
	if st.Total != 2 || st.Nacked != 1 || st.Succeeded != 1 || st.CompatQueued != 1 {
		t.Fatalf("stats %v", st)
	}
	if r.outcomes[1] != NackNeeded || r.reasons[1] != TooLong {
		t.Fatalf("aborter settled %v/%v", r.outcomes[1], r.reasons[1])
	}
	if len(order) != 1 || order[0] != 2 {
		t.Fatalf("order %v, want [2]: nacked body never completes, queued head runs", order)
	}
}

// TestStatsStringRoundTrip: String emits every counter — including the
// multiactive and adaptive ones — in a form Sscanf recovers exactly.
func TestStatsStringRoundTrip(t *testing.T) {
	in := Stats{
		Total: 120, Succeeded: 70, Promoted: 30, Nacked: 20,
		CompatAdmitted: 90, CompatQueued: 30, BudgetRaised: 4, BudgetLowered: 5,
	}
	in.ByReason[LockBusy] = 11
	in.ByReason[CondFalse] = 12
	in.ByReason[NetworkFull] = 13
	in.ByReason[TooLong] = 14
	var out Stats
	n, err := fmt.Sscanf(in.String(), statsFormat,
		&out.Total, &out.Succeeded, &out.Promoted, &out.Nacked,
		&out.CompatAdmitted, &out.CompatQueued, &out.BudgetRaised, &out.BudgetLowered,
		&out.ByReason[LockBusy], &out.ByReason[CondFalse], &out.ByReason[NetworkFull], &out.ByReason[TooLong])
	if err != nil || n != 12 {
		t.Fatalf("Sscanf(%q): n=%d err=%v", in.String(), n, err)
	}
	if out != in {
		t.Fatalf("round trip lost counters:\n in  %v\n out %v", in, out)
	}
}

// TestStatsAdd: Add merges every counter, including the multiactive and
// adaptive ones.
func TestStatsAdd(t *testing.T) {
	a := Stats{
		Total: 1, Succeeded: 2, Promoted: 3, Nacked: 4,
		CompatAdmitted: 5, CompatQueued: 6, BudgetRaised: 7, BudgetLowered: 8,
		ByReason: [numReasons]uint64{9, 10, 11, 12},
	}
	b := Stats{
		Total: 100, Succeeded: 200, Promoted: 300, Nacked: 400,
		CompatAdmitted: 500, CompatQueued: 600, BudgetRaised: 700, BudgetLowered: 800,
		ByReason: [numReasons]uint64{900, 1000, 1100, 1200},
	}
	want := Stats{
		Total: 101, Succeeded: 202, Promoted: 303, Nacked: 404,
		CompatAdmitted: 505, CompatQueued: 606, BudgetRaised: 707, BudgetLowered: 808,
		ByReason: [numReasons]uint64{909, 1010, 1111, 1212},
	}
	a.Add(&b)
	if a != want {
		t.Fatalf("Add mismatch:\n got  %v\n want %v", a, want)
	}
}

// TestEnumStringFallbacks: Strategy and Reason name their values and fall
// back to Strategy(%d)/Reason(%d) for out-of-range codes.
func TestEnumStringFallbacks(t *testing.T) {
	strats := map[Strategy]string{
		Rerun: "rerun", Continuation: "continuation", Nack: "nack",
		Strategy(7): "Strategy(7)",
	}
	for s, want := range strats {
		if got := s.String(); got != want {
			t.Errorf("Strategy %d: %q, want %q", uint8(s), got, want)
		}
	}
	reasons := map[Reason]string{
		LockBusy: "lock-busy", CondFalse: "cond-false",
		NetworkFull: "network-full", TooLong: "too-long",
		Reason(9): "Reason(9)",
	}
	for r, want := range reasons {
		if got := r.String(); got != want {
			t.Errorf("Reason %d: %q, want %q", uint8(r), got, want)
		}
	}
}
