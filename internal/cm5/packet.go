package cm5

import (
	"fmt"
	"slices"
)

// PacketKind distinguishes the two transport paths of the machine.
type PacketKind uint8

const (
	// Small is a CM-5 Active Message packet: a handler index, four header
	// words, and at most MaxPayload bytes of payload.
	Small PacketKind = iota
	// Bulk is a block transfer (the scopy primitive): arbitrary payload,
	// pre-allocated receive port, higher fixed cost.
	Bulk
)

func (k PacketKind) String() string {
	switch k {
	case Small:
		return "small"
	case Bulk:
		return "bulk"
	default:
		return fmt.Sprintf("PacketKind(%d)", uint8(k))
	}
}

// Packet is a unit of data-network traffic. The Handler field selects the
// receiver-side dispatch routine; the machine model itself never interprets
// it. W0..W3 are the four header words of a CM-5 Active Message; Payload
// carries marshaled arguments (small) or the block-transfer body (bulk).
//
// Packets travelling the hot path come from the owning Machine's pool
// (AllocPacket) and return to it after their handler runs (ReleasePacket).
// A payload set with SetPayload rides in the packet when it is MaxPayload
// bytes or less, as on the CM-5, and is valid only as long as the packet:
// the handler's duration. A longer one is handed off to the receiver, never
// reused by the pool, so a handler may keep it — but never the *Packet
// itself — past return. Packets built by hand (tests, transports) have
// pooled == false and are ignored by ReleasePacket.
type Packet struct {
	Src, Dst int
	Kind     PacketKind
	Handler  int
	W0, W1   uint64
	W2, W3   uint64
	Payload  []byte

	inline   [MaxPayload]byte // a small Payload's backing: a Packet is never copied
	poolNext *Packet          // machine free-list link
	refs     int32            // outstanding deliveries (2 when the network duplicates)
	pooled   bool             // came from Node.AllocPacket
}

// MaxPayload is the largest small-packet payload, bytes: the four 32-bit
// argument words of a CM-5 Active Message. Longer transfers go bulk.
const MaxPayload = 16

// SetPayload sets p's payload to b, copying it into p when it is
// MaxPayload bytes or less.
func (p *Packet) SetPayload(b []byte) {
	p.Payload = b
	if n := len(b); n > 0 && n <= MaxPayload {
		p.Payload = p.inline[:copy(p.inline[:], b)]
	}
}

// Record holds a payload by value: one of MaxPayload bytes or less in its
// own array, so a copy of the Record is a copy of the bytes, and a longer
// one as the heap buffer it was handed, which copies share (a bulk payload
// is handed off, never reused). The zero Record is empty.
type Record struct {
	buf   []byte // the whole payload once it is longer than small, or grown past it
	n     int    // the length of a payload in small
	small [MaxPayload]byte
}

// Set makes b the record's payload.
func (r *Record) Set(b []byte) {
	if len(b) > MaxPayload {
		r.buf, r.n = b, 0
	} else {
		r.buf, r.n = nil, copy(r.small[:], b)
	}
}

// Bytes returns the payload: a small one aliases r.
func (r *Record) Bytes() []byte {
	if r.buf != nil || r.n == 0 {
		return r.buf
	}
	return r.small[:r.n]
}

// Grow moves the payload to a heap buffer with room for k more bytes if it
// would no longer fit in small.
func (r *Record) Grow(k int) {
	if r.buf == nil && r.n+k > MaxPayload {
		r.buf = append(make([]byte, 0, r.n+k), r.small[:r.n]...)
		r.n = 0
	}
}

// Extend appends k bytes to the payload and returns them, for the caller
// to fill in.
func (r *Record) Extend(k int) []byte {
	r.Grow(k)
	if r.buf == nil {
		r.n += k
		return r.small[r.n-k : r.n]
	}
	n := len(r.buf)
	r.buf = slices.Grow(r.buf, k)[:n+k]
	return r.buf[n:]
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d h=%d len=%d", p.Kind, p.Src, p.Dst, p.Handler, len(p.Payload))
}
