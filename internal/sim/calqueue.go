package sim

// eventQueue is a calendar queue: the shard's pending-event structure,
// replacing a single binary heap so that push/pop cost stays flat as the
// number of pending events grows (100k heartbeat timers must not make
// every pop pay O(log n)).
//
// Virtual time is divided into "days" of 2^shift nanoseconds; day d maps
// to bucket d & mask (the bucket count is a power of two — one "year" is
// buckets*width of virtual time). Each bucket is a singly-linked list
// kept sorted by the full canonical comparator (at, class, key, seq), so
// the queue's pop order is exactly the order the single heap produced —
// the bucketing is a pure routing layer and every golden schedule hash is
// unchanged. The list link is the event's pool link (an event is in the
// free list or in the queue, never both), so a pending event costs no
// storage beyond itself: no per-bucket slice headers to grow, no heap
// sift touching O(log k) scattered nodes. Pushes in non-decreasing order
// within a bucket — the overwhelmingly common case, since schedule seq
// numbers are monotone — append at the tail in O(1).
//
// The global minimum is cached in head and maintained eagerly on every
// push and pop. That makes first() a pure read, which the span protocol
// requires: awake shards read a sleeping shard's next-event time
// (optState.advanceClaims, resolve) under the protocol's quiescence
// guarantees, and a lazily repaired cache would turn those reads into
// writes and race.
//
// Pops search for the new minimum by scanning forward day by day from the
// popped event's day — O(1 + gap/width) — and fall back to a direct
// min-over-bucket-heads search when a whole year passes without a hit
// (events sparse or far away). Sustained fallbacks mean the bucket width
// no longer matches the event spacing; the queue then re-buckets with a
// width derived from the live event span, which also happens on
// size-threshold grow/shrink and on long in-bucket insertion walks (the
// too-wide failure mode: see push). Every event is always in the bucket
// its timestamp maps to, so correctness never depends on the width being
// well chosen — only the constant factor does.
type eventQueue struct {
	buckets []eventBucket
	spare   []eventBucket // the previous array of a same-size rebucket, cleared
	mask    uint64
	shift   uint
	n       int
	head    *event // global minimum; nil iff n == 0
	headBkt int    // bucket index holding head
	maxAt   Time   // high-water mark of scheduled timestamps (width estimator)

	// consecFallbacks counts directSearch pops since the last scan hit;
	// crossing fallbackRebucket triggers a width recomputation.
	consecFallbacks int

	// popsSinceAudit schedules the periodic width audit (see pop): both
	// miscalibration modes — too wide (long insert walks) and too narrow
	// (long forward scans, ring wrap) — are silent, so every widthAudit
	// pops the shift is checked against the live span outright.
	popsSinceAudit int

	stats QueueStats
}

// eventBucket is one day-ring slot: a sorted singly-linked list threaded
// through the events' own next links. headAt/tailAt mirror the endpoint
// timestamps so day scans and append checks read the bucket entry alone,
// never dereferencing an event.
type eventBucket struct {
	head, tail     *event
	headAt, tailAt Time
}

// QueueStats describes how a shard's calendar queue behaved: the
// bucket-routing efficiency numbers that replace "it's a heap, it's
// O(log n)" as the thing benchmarks watch.
type QueueStats struct {
	// Pushes and Pops count scheduled and fired/cancelled-surfaced events.
	Pushes, Pops uint64
	// ScanSteps is the total number of day-buckets examined by pop's
	// forward scans; ScanSteps/Pops near 1 means the width matches the
	// event spacing.
	ScanSteps uint64
	// Fallbacks counts pops that scanned a whole year without a hit and
	// resorted to a direct min-over-bucket-heads search.
	Fallbacks uint64
	// Resizes counts bucket-array reallocations (growth, shrink, or
	// stale-width re-bucketing).
	Resizes uint64
	// Buckets is the current bucket count; BucketWidth the current day
	// width in virtual time.
	Buckets     int
	BucketWidth Duration
	// MaxEvents is the high-water mark of pending events.
	MaxEvents int
}

const (
	minQueueBuckets = 1 << 4
	maxQueueBuckets = 1 << 17
	// defaultQueueShift is the initial day width (2^12 ns ≈ 4 µs, on the
	// order of the default wire latency). Adaptive re-bucketing replaces
	// it as soon as the real event spacing is observable.
	defaultQueueShift = 12
	// fallbackRebucket is the consecutive-direct-search threshold that
	// forces a width recomputation.
	fallbackRebucket = 8
	// overfullWalk is the in-bucket insertion walk length that makes push
	// check whether the day width has gone stale-wide. Too-wide days are
	// a silent failure mode of a calendar queue: forward scans still
	// hit on the first step (so no fallback fires), but in-bucket inserts
	// walk ever-longer runs.
	overfullWalk = 16
	// widthAudit is the pop interval of the periodic shift-vs-ideal check.
	// It catches the mirror silent failure — days too narrow for the live
	// span (e.g. a width chosen from a warm-up burst), where the ring
	// wraps and forward scans pass many wrong-day buckets without ever
	// triggering the whole-year fallback.
	widthAudit = 1 << 12
)

// idealShift returns the day-width exponent that spreads n events over
// span at roughly one event every other day.
func idealShift(span Time, n int) uint {
	target := 2 * uint64(span) / uint64(n)
	sh := uint(1)
	for target>>sh > 0 && sh < 42 {
		sh++
	}
	return sh
}

// init sizes the queue for roughly hint pending events. The zero value is
// an empty queue with no ring: hint or the first push sizes it, once.
// Buckets are kept near half the expected population: growth triggers at
// n > 2·buckets, so this leaves headroom without paying bucket-array
// memory up front for events that never materialize.
func (q *eventQueue) init(hint int) {
	nb := minQueueBuckets
	for nb < hint/2 && nb < maxQueueBuckets {
		nb <<= 1
	}
	q.buckets = make([]eventBucket, nb)
	q.mask = uint64(nb - 1)
	if q.shift == 0 {
		q.shift = defaultQueueShift
	}
	q.stats.Buckets = nb
	q.stats.BucketWidth = Duration(1) << q.shift
}

// hint re-sizes an empty queue for an expected event population; no-op
// once events are pending (the adaptive resize owns the size from then
// on). Engine.HintEvents plumbs node-count-derived hints here.
func (q *eventQueue) hint(n int) {
	if q.n == 0 {
		q.init(n)
	}
}

// len reports the number of pending events. Pure read.
func (q *eventQueue) len() int { return q.n }

// first returns the earliest pending event (nil when empty) under the
// canonical (at, class, key, seq) order. Pure read — safe wherever
// reading the old heap's ev[0] was safe.
func (q *eventQueue) first() *event { return q.head }

// insert places e into bucket bk at its canonical position, returning the
// number of list nodes walked (0 for the head/tail fast paths).
func (q *eventQueue) insert(bk *eventBucket, e *event) int {
	if bk.head == nil {
		e.next = nil
		bk.head, bk.tail = e, e
		bk.headAt, bk.tailAt = e.at, e.at
		return 0
	}
	// The at pre-checks settle strict-inequality inserts from the bucket
	// entry alone; only exact timestamp ties dereference an event for the
	// full comparator.
	if e.at > bk.tailAt || (e.at == bk.tailAt && !eventLess(e, bk.tail)) {
		e.next = nil
		bk.tail.next = e
		bk.tail = e
		bk.tailAt = e.at
		return 0
	}
	if e.at < bk.headAt || (e.at == bk.headAt && eventLess(e, bk.head)) {
		e.next = bk.head
		bk.head = e
		bk.headAt = e.at
		return 0
	}
	walked := 0
	pred := bk.head
	for pred.next != nil && !eventLess(e, pred.next) {
		pred = pred.next
		walked++
	}
	e.next = pred.next
	pred.next = e
	return walked
}

// push inserts an event.
func (q *eventQueue) push(e *event) {
	if q.buckets == nil {
		q.init(minQueueBuckets)
	}
	b := int((uint64(e.at) >> q.shift) & q.mask)
	walked := q.insert(&q.buckets[b], e)
	q.n++
	q.stats.Pushes++
	if q.n > q.stats.MaxEvents {
		q.stats.MaxEvents = q.n
	}
	if e.at > q.maxAt {
		q.maxAt = e.at
	}
	if q.head == nil || eventLess(e, q.head) {
		q.head = e
		q.headBkt = b
	}
	if q.n > 2*len(q.buckets) && len(q.buckets) < maxQueueBuckets {
		q.rebucket(2 * len(q.buckets))
	} else if walked > overfullWalk {
		// A long insertion walk on a hint-sized (never-grown) array means
		// the width was chosen blind; re-bucket in place if the live
		// population wants days at least 4x narrower. Same-instant
		// bursts don't qualify — their ideal width matches their span —
		// so this cannot thrash.
		if sh := idealShift(q.maxAt-q.head.at, q.n); sh+2 <= q.shift {
			q.rebucket(len(q.buckets))
		}
	}
}

// pop removes and returns the earliest pending event.
func (q *eventQueue) pop() *event {
	e := q.head
	// The global minimum is necessarily its bucket's minimum (the bucket
	// list uses the same comparator), so it is that list's head.
	bk := &q.buckets[q.headBkt]
	bk.head = e.next
	if bk.head == nil {
		bk.tail = nil
	} else {
		bk.headAt = bk.head.at
	}
	e.next = nil
	q.n--
	q.stats.Pops++
	if q.n == 0 {
		q.head = nil
	} else {
		q.findHead(uint64(e.at) >> q.shift)
		if q.n < len(q.buckets)/8 && len(q.buckets) > minQueueBuckets {
			q.rebucket(len(q.buckets) / 2)
		} else if q.popsSinceAudit++; q.popsSinceAudit >= widthAudit {
			q.popsSinceAudit = 0
			if q.n >= 64 {
				// ±2 hysteresis: only act on a 4x width mismatch, so a
				// matched queue never thrashes.
				if sh := idealShift(q.maxAt-q.head.at, q.n); sh+2 <= q.shift || sh >= q.shift+2 {
					q.rebucket(len(q.buckets))
				}
			}
		}
	}
	return e
}

// remove unlinks a pending event before it surfaces, reporting whether it
// was found. Timer.Cancel uses this to return cancelled events to the
// pool immediately instead of leaving tombstones to be popped and
// dropped later — at 100k pending timers the tombstones would otherwise
// be a third of the queue's working set. Counted in Pops so that
// Pushes - Pops stays the pending population.
func (q *eventQueue) remove(e *event) bool {
	if q.n == 0 || q.buckets == nil {
		return false
	}
	bk := &q.buckets[int((uint64(e.at)>>q.shift)&q.mask)]
	if bk.head == e {
		bk.head = e.next
		if bk.head == nil {
			bk.tail = nil
		} else {
			bk.headAt = bk.head.at
		}
	} else {
		pred := bk.head
		for pred != nil && pred.next != e {
			pred = pred.next
		}
		if pred == nil {
			return false
		}
		pred.next = e.next
		if bk.tail == e {
			bk.tail = pred
			bk.tailAt = pred.at
		}
	}
	e.next = nil
	q.n--
	q.stats.Pops++
	if q.head == e {
		if q.n == 0 {
			q.head = nil
		} else {
			q.findHead(uint64(e.at) >> q.shift)
		}
	}
	return true
}

// findHead locates the new minimum by scanning forward from fromDay. No
// pending event predates the just-popped minimum (schedule() rejects the
// past), so the scan only needs to move forward; day d's events live in
// exactly one bucket, so the first bucket whose head belongs to the
// scanned day holds the global minimum.
func (q *eventQueue) findHead(fromDay uint64) {
	nb := uint64(len(q.buckets))
	for step := uint64(0); step < nb; step++ {
		d := fromDay + step
		bk := &q.buckets[d&q.mask]
		if bk.head != nil && uint64(bk.headAt)>>q.shift == d {
			q.head = bk.head
			q.headBkt = int(d & q.mask)
			q.stats.ScanSteps += step + 1
			q.consecFallbacks = 0
			return
		}
	}
	q.directSearch()
}

// directSearch is the year-scan fallback: take the minimum over all
// bucket heads (each head is its bucket's minimum, so the least head is
// the global minimum regardless of which "year" anything belongs to).
func (q *eventQueue) directSearch() {
	q.stats.Fallbacks++
	q.consecFallbacks++
	var best *event
	bi := 0
	for i := range q.buckets {
		h := q.buckets[i].head
		if h != nil && (best == nil || eventLess(h, best)) {
			best = h
			bi = i
		}
	}
	q.head = best
	q.headBkt = bi
	if q.consecFallbacks >= fallbackRebucket {
		// The width is stale for the surviving population (e.g. a dense
		// burst drained, leaving sparse long timers): recompute it.
		q.rebucket(len(q.buckets))
		q.consecFallbacks = 0
	}
}

// rebucket reallocates the bucket array at nb buckets and redistributes
// every pending event, recomputing the day width so the live event span
// covers about one year. O(n + nb) plus in-bucket insertion, amortized by
// the size thresholds.
func (q *eventQueue) rebucket(nb int) {
	if nb < minQueueBuckets {
		nb = minQueueBuckets
	}
	if nb > maxQueueBuckets {
		nb = maxQueueBuckets
	}
	if q.n > 0 && q.head != nil {
		if span := q.maxAt - q.head.at; span > 0 {
			// Width ≈ 2·span/n: about one event every other day, with the
			// year (nb ≈ n/2 buckets after a growth step) covering the
			// whole live span so forward scans rarely wrap.
			q.shift = idealShift(span, q.n)
		}
	}
	old := q.buckets
	if len(q.spare) == nb {
		q.buckets, q.spare = q.spare, nil
	} else {
		q.buckets = make([]eventBucket, nb)
	}
	q.mask = uint64(nb - 1)
	for i := range old {
		e := old[i].head
		for e != nil {
			nx := e.next
			b := (uint64(e.at) >> q.shift) & q.mask
			q.insert(&q.buckets[b], e)
			e = nx
		}
	}
	if q.head != nil {
		q.headBkt = int((uint64(q.head.at) >> q.shift) & q.mask)
	}
	// A width-only rebucket keeps the old array for the next one: a sparse
	// queue whose one far timer keeps being re-armed re-buckets at the same
	// size every few pops, and must not allocate each time.
	q.spare = nil
	if len(old) == nb {
		clear(old)
		q.spare = old
	}
	q.stats.Resizes++
	q.stats.Buckets = nb
	q.stats.BucketWidth = Duration(1) << q.shift
}

// clear drops every pending event and releases the bucket memory
// (Engine.Shutdown). A later push lazily re-initializes.
func (q *eventQueue) clear() {
	q.buckets, q.spare = nil, nil
	q.mask = 0
	q.head = nil
	q.n = 0
}

// queueStats snapshots the queue's counters. A queue whose ring is not
// allocated yet reports the default width its first init picks.
func (q *eventQueue) queueStats() QueueStats {
	s := q.stats
	s.Buckets = len(q.buckets)
	s.BucketWidth = Duration(1) << defaultQueueShift
	if q.shift != 0 {
		s.BucketWidth = Duration(1) << q.shift
	}
	return s
}

// QueueStats sums the per-shard calendar-queue counters (Buckets sums
// across shards; BucketWidth is shard 0's current width).
func (e *Engine) QueueStats() QueueStats {
	var out QueueStats
	for i, sh := range e.shards {
		s := sh.heap.queueStats()
		out.Pushes += s.Pushes
		out.Pops += s.Pops
		out.ScanSteps += s.ScanSteps
		out.Fallbacks += s.Fallbacks
		out.Resizes += s.Resizes
		out.Buckets += s.Buckets
		out.MaxEvents += s.MaxEvents
		if i == 0 {
			out.BucketWidth = s.BucketWidth
		}
	}
	return out
}
