package cm5

import "fmt"

// PacketKind distinguishes the two transport paths of the machine.
type PacketKind uint8

const (
	// Small is a CM-5 Active Message packet: a handler index, four header
	// words, and at most CostModel.MaxPayload bytes of payload.
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
// Only the struct is recycled: Payload ownership transfers to the receiver
// at send time, and the buffer is never reused by the pool, so handlers
// may retain pkt.Payload — but never the *Packet itself — past return.
// Packets built by hand (tests, transports) have pooled == false and are
// ignored by ReleasePacket.
type Packet struct {
	Src, Dst int
	Kind     PacketKind
	Handler  int
	W0, W1   uint64
	W2, W3   uint64
	Payload  []byte

	poolNext *Packet // machine free-list link
	refs     int32   // outstanding deliveries (2 when the network duplicates)
	pooled   bool    // came from Node.AllocPacket
}

// Size returns the payload length in bytes.
func (p *Packet) Size() int { return len(p.Payload) }

func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d h=%d len=%d", p.Kind, p.Src, p.Dst, p.Handler, len(p.Payload))
}
