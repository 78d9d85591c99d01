package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQueueHeapEquivalence drives a randomized event storm — timers,
// cancels, same-instant canonical-key clusters, delivery-class
// cross-shard flights, interleaved pops — through the reference binary
// heap and the calendar queue, and asserts the pop sequences are
// identical including every (time, class, key, seq) tie-break. This is
// the property that makes the calendar queue golden-safe: both
// structures implement the same total order, so swapping them cannot
// change a schedule.
func TestQueueHeapEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42, 99} {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var q eventQueue
		q.init(16) // start small so the storm exercises growth
		var seq uint64
		now := Time(0)
		mk := func() (*event, *event) {
			seq++
			// Cluster timestamps: bursts at the current instant (tie-break
			// territory), near-future timers, and occasional far-future
			// outliers that force year wraps and re-bucketing.
			at := now
			switch rng.Intn(10) {
			case 0: // same-instant burst
			case 9:
				at += Time(rng.Intn(1 << 22)) // far future
			default:
				at += Time(rng.Intn(5000))
			}
			class := classNormal
			key := uint64(0)
			switch rng.Intn(4) {
			case 0:
				// Cross-shard flight: delivery class with a packed
				// (src node, flight seq) key, sometimes colliding.
				class = classDelivery
				key = uint64(rng.Intn(4))<<40 | uint64(rng.Intn(3))
			case 1:
				class = classGlobal
				key = uint64(rng.Intn(3))
			}
			cancelled := rng.Intn(8) == 0 // cancelled timers still surface
			a := &event{at: at, class: class, key: key, seq: seq, cancelled: cancelled}
			b := &event{at: at, class: class, key: key, seq: seq, cancelled: cancelled}
			return a, b
		}
		for step := 0; step < 20000; step++ {
			if h.len() == 0 || rng.Intn(3) != 0 {
				a, b := mk()
				h.push(a)
				q.push(b)
				continue
			}
			if f := q.first(); f == nil {
				t.Fatalf("seed %d step %d: queue empty with %d events in heap", seed, step, h.len())
			}
			we, ge := h.pop(), q.pop()
			if we.at != ge.at || we.class != ge.class || we.key != ge.key || we.seq != ge.seq {
				t.Fatalf("seed %d step %d: heap popped (%v,%d,%d,%d), queue popped (%v,%d,%d,%d)",
					seed, step, we.at, we.class, we.key, we.seq, ge.at, ge.class, ge.key, ge.seq)
			}
			if ge.at < now {
				t.Fatalf("seed %d step %d: time went backwards: %v after %v", seed, step, ge.at, now)
			}
			now = ge.at
		}
		// Drain the tail: every remaining event must match too.
		for h.len() > 0 {
			we, ge := h.pop(), q.pop()
			if we.at != ge.at || we.class != ge.class || we.key != ge.key || we.seq != ge.seq {
				t.Fatalf("seed %d drain: heap popped (%v,%d,%d,%d), queue popped (%v,%d,%d,%d)",
					seed, we.at, we.class, we.key, we.seq, ge.at, ge.class, ge.key, ge.seq)
			}
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: queue has %d events after heap drained", seed, q.len())
		}
		if q.first() != nil {
			t.Fatalf("seed %d: empty queue has a head", seed)
		}
	}
}

// TestQueueProperty is the calendar-queue analogue of TestHeapProperty:
// for any sequence of pushes, pops yield a strictly increasing
// (time, seq) sequence.
func TestQueueProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q eventQueue
		for i, v := range times {
			q.push(&event{at: Time(v), seq: uint64(i)})
		}
		prevAt, prevSeq := Time(-1), uint64(0)
		for q.len() > 0 {
			e := q.pop()
			if e.at < prevAt || (e.at == prevAt && e.seq <= prevSeq && prevAt >= 0) {
				return false
			}
			prevAt, prevSeq = e.at, e.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueScale pushes a 100k-timer heartbeat population — the workload
// the calendar queue exists for — and checks that the adaptive resize
// engages and the per-pop day scan stays short (flat cost), while the
// pop order stays exact.
func TestQueueScale(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(5))
	var q eventQueue
	q.init(minQueueBuckets) // deliberately tiny: growth must be automatic
	for i := 0; i < n; i++ {
		q.push(&event{at: Time(rng.Int63n(1e9)), seq: uint64(i + 1)})
	}
	s := q.queueStats()
	if s.Buckets <= minQueueBuckets {
		t.Fatalf("bucket array did not grow: %d buckets for %d events", s.Buckets, n)
	}
	if s.Resizes == 0 {
		t.Fatalf("no adaptive resizes for %d events", n)
	}
	last := Time(-1)
	for q.len() > 0 {
		e := q.pop()
		if e.at < last {
			t.Fatalf("time went backwards: %v after %v", e.at, last)
		}
		last = e.at
	}
	s = q.queueStats()
	if scan := float64(s.ScanSteps) / float64(s.Pops); scan > 8 {
		t.Fatalf("day scan averaged %.1f buckets/pop; calendar width badly mismatched", scan)
	}
}

// TestQueueClearAndReuse exercises the shutdown path: clear drops the
// events and the memory, and a later push revives the queue.
func TestQueueClearAndReuse(t *testing.T) {
	var q eventQueue
	q.init(64)
	for i := 0; i < 100; i++ {
		q.push(&event{at: Time(i), seq: uint64(i + 1)})
	}
	q.clear()
	if q.len() != 0 || q.first() != nil {
		t.Fatalf("clear left %d events, head %v", q.len(), q.first())
	}
	q.push(&event{at: 7, seq: 1})
	if q.first() == nil || q.first().at != 7 {
		t.Fatalf("push after clear: head %+v", q.first())
	}
}

// TestEngineHintEvents checks that node-derived hints pre-size the
// per-shard queues and that a populated queue ignores late hints.
func TestEngineHintEvents(t *testing.T) {
	e := NewSharded(11, 2)
	e.HintEvents(1 << 12)
	for _, sh := range e.shards {
		if got := len(sh.heap.buckets); got < (1<<12)/2/2/2 {
			t.Fatalf("shard %d: %d buckets for a %d-event hint", sh.idx, got, 1<<12)
		}
	}
	sh := e.shards[0]
	sh.At(5, func() {})
	before := len(sh.heap.buckets)
	e.HintEvents(1 << 16)
	if got := len(sh.heap.buckets); got != before {
		t.Fatalf("hint resized a populated queue: %d -> %d buckets", before, got)
	}
	e.Shutdown()
}
