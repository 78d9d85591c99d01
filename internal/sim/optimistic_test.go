package sim

import (
	"fmt"
	"testing"
)

// toyMix is a splitmix64-style finalizer: the deterministic "application
// logic" of the toy workloads below.
func toyMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// toyNet is a minimal cross-shard "machine" at the raw sim layer: N
// virtual nodes partitioned across the engine's shards (same contiguous
// blocks as cm5), exchanging flights whose latency is at least la. It is
// the engine's WindowHook, so the same workload runs sequentially and
// sharded at any span width — and must produce bit-identical per-node
// hash chains.
type toyNet struct {
	e        *Engine
	la       Duration
	nodes    int
	hopLimit int
	// jitterMod > 0 adds a deterministic per-hop extra latency in
	// [0, jitterMod); 0 keeps every flight at exactly la, so arrivals
	// land exactly on lookahead (and checkpoint) boundaries.
	jitterMod Duration
	// globalEvery > 0 schedules a mid-span global every that many hops
	// (the collective-release analogue).
	globalEvery int

	// bounds are synthetic NextBound edges (fault-plan boundary stand-ins).
	bounds []Time

	// Per-node state is only ever touched by the node's owning shard (or
	// the quiescent coordinator).
	hash []uint64
	hops []uint64
	seq  []uint64
	dead []bool
}

// toyFlight is one flight (or, with do set, an arbitrary remote action).
type toyFlight struct {
	tn   *toyNet
	at   Time
	key  uint64
	node int
	hop  int
	val  uint64
	do   func()
}

func (fl *toyFlight) Run() {
	if fl.do != nil {
		fl.do()
		return
	}
	fl.tn.deliver(fl)
}

func newToyNet(e *Engine, nodes int, la Duration, hopLimit int) *toyNet {
	tn := &toyNet{
		e: e, la: la, nodes: nodes, hopLimit: hopLimit,
		jitterMod: 3 * la,
		hash:      make([]uint64, nodes),
		hops:      make([]uint64, nodes),
		seq:       make([]uint64, nodes),
		dead:      make([]bool, nodes),
	}
	if e.Shards() > 1 {
		e.SetWindowHook(tn)
	}
	return tn
}

func (tn *toyNet) shardOf(node int) *Shard {
	return tn.e.Shard(node * tn.e.Shards() / tn.nodes)
}

// Lookahead implements WindowHook.
func (tn *toyNet) Lookahead(now Time) Duration { return tn.la }

// Barrier implements WindowHook: the toy keeps no between-spans state.
func (tn *toyNet) Barrier() {}

// Arrive implements WindowHook.
func (tn *toyNet) Arrive(sh *Shard, at Time, key uint64, payload any) {
	sh.AtDelivery(at, key, payload.(*toyFlight))
}

// NextBound implements WindowHook.
func (tn *toyNet) NextBound(now Time) Time {
	b := now
	for _, e := range tn.bounds {
		if e > now && (b <= now || e < b) {
			b = e
		}
	}
	return b
}

// send routes a flight from node from: inline when same-shard, injected
// into the destination shard's inbox otherwise.
func (tn *toyNet) send(from int, fl *toyFlight) {
	src, dst := tn.shardOf(from), tn.shardOf(fl.node)
	if dst == src {
		src.AtDelivery(fl.at, fl.key, fl)
		return
	}
	dst.Inject(fl.at, fl.key, fl)
}

// nextKey returns the canonical delivery key for node n's next flight.
func (tn *toyNet) nextKey(n int) uint64 {
	tn.seq[n]++
	return uint64(n)<<40 | tn.seq[n]
}

// deliver runs one hop on the destination node: fold the arrival into the
// node's order-sensitive hash chain and forward the ball.
func (tn *toyNet) deliver(fl *toyFlight) {
	n := fl.node
	if tn.dead[n] {
		return
	}
	sh := tn.shardOf(n)
	now := sh.Now()
	v := toyMix(fl.val ^ uint64(now) ^ uint64(n)<<32 ^ uint64(fl.hop))
	tn.hash[n] = toyMix(tn.hash[n] ^ v)
	tn.hops[n]++
	if fl.hop >= tn.hopLimit {
		return
	}
	if tn.globalEvery > 0 && fl.hop%tn.globalEvery == 0 {
		// Mid-span global two lookaheads out — beyond any event another
		// shard can be executing right now (the horizon bound), like a
		// collective release. Its instant and key are pure virtual state.
		gt := now.Add(2 * tn.la)
		gkey := tn.nextKey(n)
		node := n
		tn.e.AtGlobal(gt, gkey, func() {
			tn.hash[node] = toyMix(tn.hash[node] ^ uint64(gt) ^ 0x60a1)
		})
	}
	next := int(v % uint64(tn.nodes))
	at := now.Add(tn.la)
	if tn.jitterMod > 0 {
		at = at.Add(Duration(v>>8) % tn.jitterMod)
	}
	tn.send(n, &toyFlight{tn: tn, at: at, key: tn.nextKey(n), node: next, hop: fl.hop + 1, val: v})
}

// start launches balls ping-ponging across the nodes from staggered
// virtual instants.
func (tn *toyNet) start(balls int) {
	for b := 0; b < balls; b++ {
		n := b % tn.nodes
		at := Time(int64(b)*int64(tn.la)/2 + 1)
		fl := &toyFlight{tn: tn, at: at, key: tn.nextKey(n), node: n, hop: 0, val: toyMix(uint64(b) + 0xba11)}
		tn.shardOf(n).AtDelivery(at, fl.key, fl)
	}
}

// toyResult is everything a toy run pins for equivalence.
type toyResult struct {
	hash    []uint64
	hops    []uint64
	events  uint64
	spans   uint64
	spec    uint64
	reopens uint64
}

func runToy(t *testing.T, cfg ShardConfig, mut func(*toyNet)) toyResult {
	t.Helper()
	return runToyOn(t, NewShardedConfig(99, cfg), mut)
}

func runToyOn(t *testing.T, e *Engine, mut func(*toyNet)) toyResult {
	t.Helper()
	tn := newToyNet(e, 8, toyLA, 120)
	if mut != nil {
		mut(tn)
	}
	tn.start(12)
	if err := e.Run(); err != nil {
		t.Fatalf("run (shards=%d mode=%d width=%d): %v", e.Shards(), e.mode, e.spanWidth, err)
	}
	e.Shutdown()
	st := e.OptStats()
	t.Logf("shards=%d mode=%d width=%d events=%d spans=%d spec=%d reopens=%d stalls=%d jumps=%d",
		e.Shards(), e.mode, e.spanWidth, e.Events(), st.Spans, st.SpecEvents, st.Reopens, st.Stalls, st.Jumps)
	return toyResult{hash: tn.hash, hops: tn.hops, events: e.Events(), spans: st.Spans, spec: st.SpecEvents, reopens: st.Reopens}
}

func checkToyEqual(t *testing.T, label string, want, got toyResult) {
	t.Helper()
	for n := range want.hash {
		if want.hash[n] != got.hash[n] || want.hops[n] != got.hops[n] {
			t.Errorf("%s: node %d diverged: hash %#x/%#x hops %d/%d",
				label, n, got.hash[n], want.hash[n], got.hops[n], want.hops[n])
		}
	}
	if want.events != got.events {
		t.Errorf("%s: events = %d, want %d", label, got.events, want.events)
	}
}

// toyLA is the toy network's lookahead.
const toyLA = 2 * Microsecond

// toyEngineAt builds a sharded engine whose spans are las lookaheads wide.
// 1 and 32 are the widths production runs and are reached as production
// reaches them, through Mode alone; the others set the width directly.
func toyEngineAt(shards int, las Duration) *Engine {
	switch las {
	case 1:
		return NewShardedConfig(99, ShardConfig{Shards: shards, Mode: Conservative})
	case 32:
		return NewShardedConfig(99, ShardConfig{Shards: shards, Mode: Optimistic})
	}
	e := NewShardedConfig(99, ShardConfig{Shards: shards, Mode: Optimistic})
	e.spanWidth = las * toyLA
	return e
}

// checkToyWidths runs the toy ping-pong sequentially and at shards {2, 4}
// x span width {1, 2, 8, 32, 64} lookaheads, and requires bit-identical
// per-node hash chains, hop counts, and event totals everywhere. Width 1
// is the lockstep schedule: it must never speculate or reopen. Every wider
// span must speculate.
func checkToyWidths(t *testing.T, mut func(*toyNet)) {
	t.Helper()
	seq := runToy(t, ShardConfig{Shards: 1}, mut)
	for _, shards := range []int{2, 4} {
		for _, las := range []Duration{1, 2, 8, 32, 64} {
			label := fmt.Sprintf("shards=%d width=%dla", shards, las)
			got := runToyOn(t, toyEngineAt(shards, las), mut)
			checkToyEqual(t, label, seq, got)
			if got.spans == 0 {
				t.Errorf("%s: ran no spans", label)
			}
			if las == 1 && (got.spec != 0 || got.reopens != 0) {
				t.Errorf("%s: specEvents=%d reopens=%d, lockstep must have neither", label, got.spec, got.reopens)
			}
			if las > 1 && got.spec == 0 {
				t.Errorf("%s: specEvents=0, expected speculation", label)
			}
		}
	}
}

// TestOptimisticEquivalence: sequential, lockstep and every wider span
// agree on the jittered toy ping-pong.
func TestOptimisticEquivalence(t *testing.T) {
	checkToyWidths(t, nil)
}

// TestOptimisticSingleShardIsSequential pins that Mode is ignored at one
// shard: the engine reports Conservative, has no span state, and runs the
// plain kernel.
func TestOptimisticSingleShardIsSequential(t *testing.T) {
	e := NewShardedConfig(1, ShardConfig{Shards: 1, Mode: Optimistic})
	if e.Mode() != Conservative || e.opt != nil || e.shards[0].opt != nil {
		t.Fatalf("single-shard engine mode = %v, opt = %v, want Conservative and no span state", e.Mode(), e.opt)
	}
	e.Shutdown()
}

// TestOptimisticBoundaryStraggler removes all jitter, so with spans an
// exact multiple of the lookahead every flight lands exactly on a
// lookahead boundary: at width 1 on a span-commit timestamp — the
// straggler-at-the-checkpoint edge case — and at wider multiples both
// inside spans and on their edges.
func TestOptimisticBoundaryStraggler(t *testing.T) {
	checkToyWidths(t, func(tn *toyNet) { tn.jitterMod = 0 })
}

// TestOptimisticSpanBounds checks that synthetic NextBound cut points
// (the fault-plan slow-window/partition-edge stand-ins) change only the
// span structure, never the results.
func TestOptimisticSpanBounds(t *testing.T) {
	bounds := func(tn *toyNet) {
		for ti := Time(7_000); ti < 300_000; ti += 13_000 {
			tn.bounds = append(tn.bounds, ti)
		}
	}
	seq := runToy(t, ShardConfig{Shards: 1}, bounds)
	free := runToy(t, ShardConfig{Shards: 4, Mode: Optimistic}, nil)
	cut := runToy(t, ShardConfig{Shards: 4, Mode: Optimistic}, bounds)
	checkToyEqual(t, "span-bounds", seq, cut)
	for n := range free.hash {
		if free.hash[n] != cut.hash[n] {
			t.Errorf("node %d: bounds changed results: %#x vs %#x", n, cut.hash[n], free.hash[n])
		}
	}
}

// TestOptimisticGlobalMidSpeculation drives the two global-event paths
// at both shipped widths: a crash-style global scheduled at setup that
// kills a node mid-run, and in-span globals (the collective-release
// analogue) that must cut the running span when they land inside it.
func TestOptimisticGlobalMidSpeculation(t *testing.T) {
	crash := func(tn *toyNet) {
		tn.e.AtGlobal(40_000, 3, func() {
			tn.dead[3] = true
			tn.hash[3] = toyMix(tn.hash[3] ^ 0xdead)
		})
	}
	seq := runToy(t, ShardConfig{Shards: 1}, crash)
	for _, shards := range []int{2, 4} {
		cons := runToy(t, ShardConfig{Shards: shards}, crash)
		checkToyEqual(t, fmt.Sprintf("crash/conservative/%d", shards), seq, cons)
		opt := runToy(t, ShardConfig{Shards: shards, Mode: Optimistic}, crash)
		checkToyEqual(t, fmt.Sprintf("crash/optimistic/%d", shards), seq, opt)
	}

	eager := func(tn *toyNet) { tn.globalEvery = 7 }
	seqE := runToy(t, ShardConfig{Shards: 1}, eager)
	for _, shards := range []int{2, 4} {
		cons := runToy(t, ShardConfig{Shards: shards}, eager)
		checkToyEqual(t, fmt.Sprintf("eager-global/conservative/%d", shards), seqE, cons)
		opt := runToy(t, ShardConfig{Shards: shards, Mode: Optimistic}, eager)
		checkToyEqual(t, fmt.Sprintf("eager-global/optimistic/%d", shards), seqE, opt)
	}
}

// TestOptimisticDeterminism repeats an optimistic run and requires not
// just identical results but identical deterministic counters (spans,
// speculated events) — the host-schedule-dependent ones (reopens, stalls,
// jumps) are deliberately excluded.
func TestOptimisticDeterminism(t *testing.T) {
	a := runToy(t, ShardConfig{Shards: 4, Mode: Optimistic}, nil)
	b := runToy(t, ShardConfig{Shards: 4, Mode: Optimistic}, nil)
	checkToyEqual(t, "repeat", a, b)
	if a.spans != b.spans || a.spec != b.spec {
		t.Errorf("deterministic counters drifted: spans %d/%d specEvents %d/%d",
			a.spans, b.spans, a.spec, b.spec)
	}
}

// TestOptimisticTimerCancelRace arms timers on one shard and cancels them
// via cross-shard flights inside a single wide span — the cancellation
// analogue of an anti-message racing its positive message. Case A: cancel
// arrives well before the fire time. Case B: cancel arrives at exactly
// the fire instant (deliveries order before normal events, so the cancel
// deterministically wins). Case C: the timer fires first and the cancel
// must fail. A speculative kernel that ran the timer past the horizon
// would flip A or B.
func TestOptimisticTimerCancelRace(t *testing.T) {
	la := Micros(2)
	run := func(cfg ShardConfig) []uint64 {
		e := NewShardedConfig(5, cfg)
		tn := newToyNet(e, 2, la, 0)
		sh1 := tn.shardOf(1)
		stamp := func(tag uint64) {
			tn.hash[1] = toyMix(tn.hash[1] ^ tag ^ uint64(sh1.Now()))
		}
		cancelAt := func(armAt, fireAt, sendAt Time, tag uint64) {
			var tm Timer
			sh1.At(armAt, func() {
				tm = sh1.AtTimer(fireAt, func() { stamp(tag ^ 0xF17E) })
			})
			tn.shardOf(0).At(sendAt, func() {
				fl := &toyFlight{tn: tn, at: sendAt.Add(la), key: tn.nextKey(0), node: 1, do: func() {
					if tm.Cancel() {
						stamp(tag ^ 0xCA)
					} else {
						stamp(tag ^ 0x0F)
					}
				}}
				tn.send(0, fl)
			})
		}
		cancelAt(1_000, 50_000, 2_000, 0xA0000)              // cancel long before fire
		cancelAt(1_000, Time(60_000).Add(la), 60_000, 0xB00) // cancel at exactly the fire instant
		cancelAt(1_000, 70_000, 70_000, 0xC0)                // timer fires first
		if err := e.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		e.Shutdown()
		return tn.hash
	}
	seq := run(ShardConfig{Shards: 1})
	opt := run(ShardConfig{Shards: 2, Mode: Optimistic})
	for n := range seq {
		if seq[n] != opt[n] {
			t.Errorf("node %d: cancel-race hash %#x, want %#x", n, opt[n], seq[n])
		}
	}
}

// TestOptimisticFailurePropagates panics a process on one shard mid-span
// while the other shard is busy: the span must abort, every shard must
// unblock, and Run must report the failure instead of deadlocking.
func TestOptimisticFailurePropagates(t *testing.T) {
	e := NewShardedConfig(7, ShardConfig{Shards: 2, Mode: Optimistic})
	tn := newToyNet(e, 2, Micros(2), 100_000)
	tn.start(2)
	e.Shard(1).Spawn("boom", func(p *Proc) {
		p.Charge(Micros(50))
		panic("boom")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected a process failure from Run")
	}
	e.Shutdown()
}

// TestOptimisticStop stops an optimistic run from inside the simulation:
// the current span finishes, the coordinator exits, nothing hangs.
func TestOptimisticStop(t *testing.T) {
	e := NewShardedConfig(3, ShardConfig{Shards: 2, Mode: Optimistic})
	tn := newToyNet(e, 4, Micros(2), 1_000_000)
	tn.start(4)
	e.Shard(0).At(100_000, func() { e.Stop() })
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	e.Shutdown()
}
