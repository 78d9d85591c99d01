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
	// the daemon's `ol.pending[seq] == pm` check.
	busy bool
	next *pendingMsg // free-list link
}

// outLink is the sender half of one directed link.
type outLink struct {
	nextSeq uint64
	// floor is the highest cumulative ack seen: nothing at or below it is
	// pending, so each ack only has to look at (floor, cum].
	floor   uint64
	pending map[uint64]*pendingMsg
}

// inLink is the receiver half: a cumulative floor plus the set of
// out-of-order sequence numbers seen above it.
type inLink struct {
	cum  uint64
	seen map[uint64]struct{}
}

// nodeState is one node's view of the transport. It is only ever touched
// from code running on its node (handlers, the retransmit daemon, timer
// expiry on the node's shard), so per-node counters and timers stay
// shard-local under a sharded engine.
type nodeState struct {
	id            int
	ep            *am.Endpoint
	sh            *sim.Shard
	out           map[int]*outLink
	in            map[int]*inLink
	daemon        *threads.Thread
	daemonBlocked bool
	due           []*pendingMsg
	freePM        *pendingMsg
	stats         Stats
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
	ol.pending[seq] = pm
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

func (ns *nodeState) outLink(dst int) *outLink {
	ol := ns.out[dst]
	if ol == nil {
		ol = &outLink{pending: make(map[uint64]*pendingMsg)}
		ns.out[dst] = ol
	}
	return ol
}

func (ns *nodeState) inLink(src int) *inLink {
	il := ns.in[src]
	if il == nil {
		il = &inLink{seen: make(map[uint64]struct{})}
		ns.in[src] = il
	}
	return il
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
	t.ackH = u.Register("reliable/ack", t.handleAck)
	t.nodes = make([]*nodeState, u.N())
	t.nstats = make([]NodeStats, u.N())
	for i := 0; i < u.N(); i++ {
		ns := &nodeState{
			id: i, ep: u.Endpoint(i), sh: u.Endpoint(i).Node().Shard(),
			out: make(map[int]*outLink), in: make(map[int]*inLink),
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
	ol := ns.outLink(dst)
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
	ol := ns.outLink(dst)
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
		for len(ns.due) > 0 {
			pm := ns.due[0]
			ns.due = ns.due[1:]
			if pm.done {
				ns.settle(pm) // acked while queued
				continue
			}
			ol := ns.outLink(pm.dst)
			if cur, ok := ol.pending[pm.seq]; !ok || cur != pm {
				panic("reliable: due message is not the pending one")
			}
			if pm.attempts >= t.opts.MaxAttempts {
				pm.done = true
				delete(ol.pending, pm.seq)
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
	il := ns.inLink(pkt.Src)
	_, above := il.seen[seq]
	dup := seq <= il.cum || above
	if !dup {
		il.seen[seq] = struct{}{}
		for {
			if _, ok := il.seen[il.cum+1]; !ok {
				break
			}
			delete(il.seen, il.cum+1)
			il.cum++
		}
	}
	ns.stats.AcksSent++
	ns.ep.SendRaw(c, pkt.Src, t.ackH, [4]uint64{seq, il.cum, 0, 0}, nil, false)
	if dup {
		ns.stats.DupsSuppressed++
		t.nstats[pkt.Dst].DupsSuppressed++
		return
	}
	ns.stats.Delivered++
	// De-frame into a pooled packet for the inner handler. Deliver leaves
	// ownership with us (the transport), so recycle the struct afterwards;
	// the payload buffer passes to the application untouched.
	node := ns.ep.Node()
	inner := node.AllocPacket()
	inner.Src, inner.Dst, inner.Kind = pkt.Src, pkt.Dst, pkt.Kind
	inner.Handler = int(pkt.W1)
	inner.W0, inner.W1 = pkt.W2, pkt.W3
	inner.Payload = pkt.Payload
	ns.ep.Deliver(c, inner)
	node.ReleasePacket(inner)
}

// handleAck retires pending messages: the per-seq ack plus everything at
// or below the cumulative floor.
func (t *Transport) handleAck(c threads.Ctx, pkt *cm5.Packet) {
	ns := t.nodes[pkt.Dst]
	ol := ns.outLink(pkt.Src)
	seq, cum := pkt.W0, pkt.W1
	ns.stats.AcksReceived++
	retired := ns.retire(ol, seq)
	for q := ol.floor + 1; q <= cum; q++ {
		if ns.retire(ol, q) {
			retired = true
		}
	}
	if cum > ol.floor {
		ol.floor = cum
	}
	if !retired {
		ns.stats.StaleAcks++
	}
}

// retire completes the pending message with sequence number q, if there
// is one: it cancels the timer, drops the entry and recycles the struct
// unless it is busy (then whoever holds it settles it).
func (ns *nodeState) retire(ol *outLink, q uint64) bool {
	pm, ok := ol.pending[q]
	if !ok {
		return false
	}
	pm.done = true
	pm.timer.Cancel() // no-op on the zero Timer
	pm.timer = sim.Timer{}
	delete(ol.pending, q)
	if !pm.busy {
		ns.release(pm)
	}
	return true
}
