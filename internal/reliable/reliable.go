// Package reliable provides an end-to-end reliable delivery channel over
// Active Messages: sequence numbers per directed link, acknowledgments,
// retransmission timers driven by the simulation clock with capped
// exponential backoff (the same idiom as the RPC NACK backoff), and
// duplicate suppression at the receiver.
//
// The transport installs itself on a Universe via am.SetTransport, so
// every Endpoint.Send / TrySend — RPC requests, replies, OAM outbox
// commits — rides the reliable channel without any change to the layers
// above. Each outgoing message is framed in an envelope packet whose W0
// carries the sequence number and W1 the inner handler id; the inner
// message's W0/W1 move to W2/W3 (messages using W2/W3 themselves do not
// fit and panic loudly). Receivers ack every data packet (per-seq plus a
// cumulative floor), deliver first copies up through Endpoint.Deliver,
// and drop the rest.
//
// Retransmission runs in a per-node daemon thread: timers fire in kernel
// context, which cannot inject packets (injection charges a CPU), so
// expiry queues the message and wakes the daemon, which resends on the
// node's own CPU. A sender that exhausts MaxAttempts gives up — without a
// cap, retransmitting to a crashed node would keep the event heap
// non-empty and the simulation would never quiesce.
package reliable

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/sim"
	"repro/internal/threads"
)

// DefaultJitter is the default retransmit jitter fraction: each re-arm
// waits the capped backoff plus up to a quarter of it.
const DefaultJitter = 0.25

// Options tunes the reliable channel.
type Options struct {
	RTO         sim.Duration // initial retransmit timeout (default 150 us)
	RTOMax      sim.Duration // backoff cap (default 2.4 ms)
	MaxAttempts int          // total transmissions per message before giving up (default 12)
	// Jitter spreads each retransmit re-arm over
	// [backoff, backoff*(1+Jitter)) with a deterministic per-flight draw,
	// so senders that lost packets in the same fault window do not
	// re-fire in lockstep bursts. Default DefaultJitter; negative
	// disables jitter entirely (exact capped-backoff schedule).
	Jitter float64
}

func (o Options) withDefaults() Options {
	if o.RTO <= 0 {
		o.RTO = sim.Micros(150)
	}
	if o.RTOMax <= 0 {
		o.RTOMax = sim.Micros(2400)
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 12
	}
	if o.Jitter == 0 {
		o.Jitter = DefaultJitter
	} else if o.Jitter < 0 {
		o.Jitter = 0
	}
	return o
}

// Stats counts transport-wide reliable-channel activity.
type Stats struct {
	DataSent       uint64 // first transmissions
	Retransmits    uint64 // timer-driven resends
	AcksSent       uint64
	AcksReceived   uint64
	StaleAcks      uint64 // acks for already-completed sequence numbers
	Delivered      uint64 // first copies handed up to the application
	DupsSuppressed uint64 // extra copies discarded at the receiver
	GaveUp         uint64 // messages abandoned after MaxAttempts
}

// NodeStats attributes channel activity to one node: retransmits and
// give-ups to the sender, suppressed duplicates to the receiver.
type NodeStats struct {
	Retransmits    uint64
	DupsSuppressed uint64
	GaveUp         uint64
}

// pendingMsg is one unacknowledged message. The structs are recycled on
// their node's free list, so steady-state sends allocate nothing: expire
// is bound once per struct, not once per armed timer.
type pendingMsg struct {
	ns       *nodeState
	expire   func() // pm.onExpire, the retransmit timer's callback
	dst      int
	seq      uint64
	h        am.HandlerID
	w0, w1   uint64
	payload  []byte
	bulk     bool
	attempts int // transmissions so far
	backoff  sim.Duration
	timer    sim.Timer
	done     bool
	// busy marks a struct somebody besides ol.pending still refers to: it
	// sits in ns.due, or Send or the daemon is inside a yielding SendRaw
	// on its behalf. A retire that finds it busy leaves the release to
	// whoever clears the flag, so a struct never changes identity under
	// the daemon's `ol.pending.get(seq) == pm` check.
	busy bool
	next *pendingMsg // free-list link
}

// outLink is the sender half of one directed link.
type outLink struct {
	nextSeq uint64
	pending pendingRing
}

// pendingRing holds a link's unacknowledged messages. Sequence numbers
// are dense and consecutive per link, so the set is a window [base,
// base+n) over them, kept in a power-of-two ring indexed by sequence
// number: no hashing, and no allocation once the ring has grown to the
// link's flight size. Slots inside the window may be nil (acknowledged
// out of order, or given up); the slot at base never is, so the window
// shrinks from the front as soon as its oldest message retires.
type pendingRing struct {
	buf  []*pendingMsg
	base uint64 // lowest sequence number still pending; meaningless while n == 0
	n    uint64 // window length
}

// put enters pm under seq, which must be the successor of the last
// sequence number entered.
func (r *pendingRing) put(seq uint64, pm *pendingMsg) {
	if r.n == 0 {
		r.base = seq
	} else if seq != r.base+r.n {
		panic("reliable: sequence numbers must be entered consecutively")
	}
	if r.n == uint64(len(r.buf)) {
		grown := make([]*pendingMsg, max(2*len(r.buf), 8))
		for q := r.base; q < r.base+r.n; q++ {
			grown[q&uint64(len(grown)-1)] = r.buf[q&uint64(len(r.buf)-1)]
		}
		r.buf = grown
	}
	r.buf[seq&uint64(len(r.buf)-1)] = pm
	r.n++
}

// get returns the message pending under seq, or nil.
func (r *pendingRing) get(seq uint64) *pendingMsg {
	if seq-r.base >= r.n { // also true for seq < base: the difference wraps
		return nil
	}
	return r.buf[seq&uint64(len(r.buf)-1)]
}

// remove drops the message pending under seq, which must be present, and
// shrinks the window past any front slots that leaves empty.
func (r *pendingRing) remove(seq uint64) {
	mask := uint64(len(r.buf) - 1)
	r.buf[seq&mask] = nil
	for r.n > 0 && r.buf[r.base&mask] == nil {
		r.base++
		r.n--
	}
}

// inLink is the receiver half: a cumulative floor plus the out-of-order
// sequence numbers seen above it, as a bitmap window. Bit q&(cap-1) of
// the power-of-two ring stands for sequence number q in (cum, cum+cap].
// An in-order link never allocates it.
type inLink struct {
	cum  uint64
	seen []uint64
}

// accept records the arrival of seq and reports whether it is a
// duplicate; a first copy that closes the gap above cum advances cum over
// everything seen contiguously after it.
func (il *inLink) accept(seq uint64) (dup bool) {
	if seq <= il.cum {
		return true
	}
	if seq != il.cum+1 {
		// Out of order: remember it above the floor.
		for seq-il.cum > 64*uint64(len(il.seen)) {
			il.grow()
		}
		w, bit := il.at(seq)
		if *w&bit != 0 {
			return true
		}
		*w |= bit
		return false
	}
	il.cum++
	for len(il.seen) > 0 {
		w, bit := il.at(il.cum + 1)
		if *w&bit == 0 {
			break
		}
		*w &^= bit
		il.cum++
	}
	return false
}

func (il *inLink) at(seq uint64) (*uint64, uint64) {
	i := seq & (64*uint64(len(il.seen)) - 1)
	return &il.seen[i/64], 1 << (i % 64)
}

// grow doubles the window, re-placing the bits of (cum, cum+cap].
func (il *inLink) grow() {
	old := *il
	il.seen = make([]uint64, max(2*len(old.seen), 1))
	for q := old.cum + 1; q <= old.cum+64*uint64(len(old.seen)); q++ {
		if w, bit := old.at(q); *w&bit != 0 {
			nw, nbit := il.at(q)
			*nw |= nbit
		}
	}
}

// link is everything a node keeps about one peer.
type link struct {
	out outLink
	in  inLink
}

// nodeState is one node's view of the transport. It is only ever touched
// from code running on its node (handlers, the retransmit daemon, timer
// expiry on the node's shard), so per-node counters and timers stay
// shard-local under a sharded engine.
type nodeState struct {
	id            int
	ep            *am.Endpoint
	sh            *sim.Shard
	peers         cm5.PeerTable[link]
	daemon        threads.Handle
	daemonBlocked bool
	// due queues expired messages for the daemon, which drains it by
	// cursor (dueHead) and rewinds both when it catches up, so the backing
	// array is reused burst after burst.
	due     []*pendingMsg
	dueHead int
	freePM  *pendingMsg
	stats   Stats
}

// track takes a pendingMsg off the free list (or makes one), fills it for
// a first transmission and enters it in ol.pending.
func (ns *nodeState) track(ol *outLink, dst int, seq uint64, h am.HandlerID, w [4]uint64, payload []byte, bulk bool, rto sim.Duration) *pendingMsg {
	pm := ns.freePM
	if pm != nil {
		ns.freePM = pm.next
	} else {
		pm = &pendingMsg{ns: ns}
		pm.expire = pm.onExpire
	}
	*pm = pendingMsg{
		ns: ns, expire: pm.expire,
		dst: dst, seq: seq, h: h, w0: w[0], w1: w[1],
		payload: payload, bulk: bulk, attempts: 1, backoff: rto,
	}
	ol.pending.put(seq, pm)
	ns.stats.DataSent++
	return pm
}

// settle ends a busy stretch: a message retired meanwhile is recycled and
// settle reports true; otherwise it is still pending and the caller
// re-arms it.
func (ns *nodeState) settle(pm *pendingMsg) bool {
	pm.busy = false
	if !pm.done {
		return false
	}
	ns.release(pm)
	return true
}

// release recycles a retired pendingMsg. The caller guarantees nothing
// refers to it any more: it is out of ol.pending, not busy, and its timer
// has fired or been cancelled.
func (ns *nodeState) release(pm *pendingMsg) {
	pm.payload = nil
	pm.next = ns.freePM
	ns.freePM = pm
}

// Transport is the reliable channel, installed on a Universe by Attach.
type Transport struct {
	u      *am.Universe
	opts   Options
	dataH  am.HandlerID
	ackH   am.HandlerID
	nodes  []*nodeState
	nstats []NodeStats
}

// Attach builds a reliable transport for u, registers its handlers,
// bootstraps one retransmit daemon per node, and installs it as the
// universe's transport. Like handler registration, call before the
// simulation starts.
func Attach(u *am.Universe, opts Options) *Transport {
	t := &Transport{u: u, opts: opts.withDefaults()}
	t.dataH = u.Register("reliable/data", t.handleData)
	t.ackH = u.RegisterAtomic("reliable/ack", t.handleAck)
	t.nodes = make([]*nodeState, u.N())
	t.nstats = make([]NodeStats, u.N())
	for i := 0; i < u.N(); i++ {
		ns := &nodeState{
			id: i, ep: u.Endpoint(i), sh: u.Endpoint(i).Node().Shard(),
		}
		t.nodes[i] = ns
		ns.daemon = u.Scheduler(i).Bootstrap(fmt.Sprintf("reliable/retx/%d", i),
			func(c threads.Ctx) { t.daemonLoop(c, ns) })
	}
	u.SetTransport(t)
	return t
}

// Stats returns a snapshot of the transport counters, summed across
// nodes.
func (t *Transport) Stats() Stats {
	var out Stats
	for _, ns := range t.nodes {
		s := &ns.stats
		out.DataSent += s.DataSent
		out.Retransmits += s.Retransmits
		out.AcksSent += s.AcksSent
		out.AcksReceived += s.AcksReceived
		out.StaleAcks += s.StaleAcks
		out.Delivered += s.Delivered
		out.DupsSuppressed += s.DupsSuppressed
		out.GaveUp += s.GaveUp
	}
	return out
}

// NodeStats returns the counters attributed to node i.
func (t *Transport) NodeStats(i int) NodeStats { return t.nstats[i] }

func envelopeWords(seq uint64, h am.HandlerID, w [4]uint64) [4]uint64 {
	if w[2] != 0 || w[3] != 0 {
		panic("reliable: message uses W2/W3, which the envelope needs for the inner W0/W1")
	}
	return [4]uint64{seq, uint64(h), w[0], w[1]}
}

// Send implements am.Transport: frame, transmit (draining), track, arm.
func (t *Transport) Send(c threads.Ctx, ep *am.Endpoint, dst int, h am.HandlerID, w [4]uint64, payload []byte, bulk bool) {
	ew := envelopeWords(0, h, w)
	ns := t.nodes[ep.Node().ID()]
	ol := &ns.peers.At(dst).out
	ol.nextSeq++
	seq := ol.nextSeq
	ew[0] = seq
	pm := ns.track(ol, dst, seq, h, w, payload, bulk, t.opts.RTO)
	pm.busy = true
	ep.SendRaw(c, dst, t.dataH, ew, payload, bulk)
	// The draining send may already have serviced this message's ack.
	if !ns.settle(pm) {
		pm.arm(t.opts.RTO)
	}
}

// TrySend implements am.Transport: a non-blocking reliable send. Rejection
// means the first transmission could not be injected; nothing is tracked.
func (t *Transport) TrySend(c threads.Ctx, ep *am.Endpoint, dst int, h am.HandlerID, w [4]uint64, payload []byte, bulk bool) bool {
	ew := envelopeWords(0, h, w)
	ns := t.nodes[ep.Node().ID()]
	ol := &ns.peers.At(dst).out
	seq := ol.nextSeq + 1
	ew[0] = seq
	// TrySendRaw cannot yield, so a failed probe has no side effects and
	// the sequence number is only committed on success.
	if !ep.TrySendRaw(c, dst, t.dataH, ew, payload, bulk) {
		return false
	}
	ol.nextSeq = seq
	ns.track(ol, dst, seq, h, w, payload, bulk, t.opts.RTO).arm(t.opts.RTO)
	return true
}

// arm schedules pm's retransmit timer on the node's shard.
func (pm *pendingMsg) arm(d sim.Duration) {
	pm.timer = pm.ns.sh.AfterTimer(d, pm.expire)
}

// onExpire is the retransmit timer's callback. It runs in kernel context,
// which cannot send; it queues the message and wakes the node's daemon.
// (A retired message never gets here: retiring cancels the timer.)
func (pm *pendingMsg) onExpire() {
	ns := pm.ns
	pm.timer = sim.Timer{}
	pm.busy = true
	ns.due = append(ns.due, pm)
	if ns.daemonBlocked {
		ns.daemonBlocked = false
		ns.daemon.Resume(false)
	}
}

// daemonLoop is the per-node retransmit daemon: woken by timer expiry, it
// resends every due message on the node's CPU, backs off, and re-arms.
func (t *Transport) daemonLoop(c threads.Ctx, ns *nodeState) {
	for {
		for ns.dueHead < len(ns.due) {
			pm := ns.due[ns.dueHead]
			ns.due[ns.dueHead] = nil
			ns.dueHead++
			if pm.done {
				ns.settle(pm) // acked while queued
				continue
			}
			ol := &ns.peers.At(pm.dst).out
			if ol.pending.get(pm.seq) != pm {
				panic("reliable: due message is not the pending one")
			}
			if pm.attempts >= t.opts.MaxAttempts {
				pm.done = true
				ol.pending.remove(pm.seq)
				ns.stats.GaveUp++
				t.nstats[ns.id].GaveUp++
				ns.settle(pm)
				continue
			}
			pm.attempts++
			ns.stats.Retransmits++
			t.nstats[ns.id].Retransmits++
			ns.ep.SendRaw(c, pm.dst, t.dataH,
				[4]uint64{pm.seq, uint64(pm.h), pm.w0, pm.w1}, pm.payload, pm.bulk)
			if ns.settle(pm) {
				continue // the drain inside SendRaw serviced the ack
			}
			pm.backoff *= 2
			if pm.backoff > t.opts.RTOMax {
				pm.backoff = t.opts.RTOMax
			}
			pm.arm(t.jittered(ns.id, pm))
		}
		ns.due, ns.dueHead = ns.due[:0], 0
		ns.daemonBlocked = true
		c.S.Block(c)
	}
}

// retxSalt decouples the retransmit-jitter stream from the fault layer's
// flight streams, so the two never alias even under equal raw inputs.
const retxSalt = 0x3c6ef372fe94f82b

// jittered returns pm's next retransmit wait: the capped backoff plus a
// deterministic per-flight fraction of it in [0, Jitter). The draw is
// counter-seeded splitmix64 keyed by (src, dst, seq, attempt) — the same
// idiom as the fault layer's flight RNG — so its value depends only on
// which flight it belongs to, never on how unrelated events interleave,
// and the retransmit schedule stays bit-identical at any shard count.
func (t *Transport) jittered(src int, pm *pendingMsg) sim.Duration {
	if t.opts.Jitter <= 0 {
		return pm.backoff
	}
	s := uint64(src)<<32 ^ uint64(pm.dst)<<16 ^ pm.seq<<40 ^ uint64(pm.attempts) ^ retxSalt
	s += 0x9e3779b97f4a7c15
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / (1 << 53)
	return pm.backoff + sim.Duration(float64(pm.backoff)*t.opts.Jitter*frac)
}

// handleData is the receiving side: ack (always — the previous ack may
// have been lost), then deliver first copies and suppress duplicates.
func (t *Transport) handleData(c threads.Ctx, pkt *cm5.Packet) {
	ns := t.nodes[pkt.Dst]
	seq := pkt.W0
	il := &ns.peers.At(pkt.Src).in
	dup := il.accept(seq)
	ns.stats.AcksSent++
	// A first copy's handler dispatch is charged with the ack's injection.
	then := sim.Duration(-1)
	if !dup {
		then = t.u.Machine().Cost().HandlerDispatch
	}
	ns.ep.SendRawThen(c, pkt.Src, t.ackH, [4]uint64{seq, il.cum, 0, 0}, nil, false, then)
	if dup {
		ns.stats.DupsSuppressed++
		t.nstats[pkt.Dst].DupsSuppressed++
		return
	}
	ns.stats.Delivered++
	// De-frame into a pooled packet for the inner handler. Run leaves
	// ownership with us (the transport), so recycle the struct afterwards;
	// the payload buffer passes to the application untouched.
	node := ns.ep.Node()
	inner := node.AllocPacket()
	inner.Src, inner.Dst, inner.Kind = pkt.Src, pkt.Dst, pkt.Kind
	inner.Handler = int(pkt.W1)
	inner.W0, inner.W1 = pkt.W2, pkt.W3
	inner.Payload = pkt.Payload
	ns.ep.Run(c, inner)
	node.ReleasePacket(inner)
}

// handleAck retires pending messages: the per-seq ack plus everything at
// or below the cumulative floor.
func (t *Transport) handleAck(c threads.Ctx, pkt *cm5.Packet) {
	ns := t.nodes[pkt.Dst]
	ns.stats.AcksReceived++
	if !ns.acked(&ns.peers.At(pkt.Src).out, pkt.W0, pkt.W1) {
		ns.stats.StaleAcks++
	}
}

// acked applies one acknowledgment (seq, cum) to ol and reports whether it
// retired anything. Nothing below the pending window's base is pending,
// so the cumulative part only has to walk the window up to cum.
func (ns *nodeState) acked(ol *outLink, seq, cum uint64) bool {
	retired := ns.retire(ol, seq)
	r := &ol.pending
	for q, end := r.base, r.base+r.n; q < end && q <= cum; q++ {
		if ns.retire(ol, q) {
			retired = true
		}
	}
	return retired
}

// retire completes the pending message with sequence number q, if there
// is one: it cancels the timer, drops the entry and recycles the struct
// unless it is busy (then whoever holds it settles it).
func (ns *nodeState) retire(ol *outLink, q uint64) bool {
	pm := ol.pending.get(q)
	if pm == nil {
		return false
	}
	pm.done = true
	pm.timer.Cancel() // no-op on the zero Timer
	pm.timer = sim.Timer{}
	ol.pending.remove(q)
	if !pm.busy {
		ns.release(pm)
	}
	return true
}
