package cm5

import (
	"bytes"
	"testing"
)

// TestRecordHoldsSmallPayloadsByValue: a payload of MaxPayload bytes or
// less is copied into the Record (and into a Packet by SetPayload), so
// neither the source nor a later Set changes a copy; a longer one is the
// buffer it was handed.
func TestRecordHoldsSmallPayloadsByValue(t *testing.T) {
	src := []byte("sixteen bytes!!!")
	var r Record
	r.Set(src)
	cp := r
	src[0] = 'S'
	r.Set([]byte("x"))
	if got := cp.Bytes(); string(got) != "sixteen bytes!!!" || len(got) != MaxPayload {
		t.Fatalf("a copied small record reads %q", got)
	}
	cp.Set(cp.Bytes()[:4]) // from its own bytes
	if got := cp.Bytes(); string(got) != "sixt" {
		t.Fatalf("a record set from its own bytes reads %q", got)
	}

	bulk := make([]byte, MaxPayload+1)
	r.Set(bulk)
	if got := r.Bytes(); &got[0] != &bulk[0] || len(got) != len(bulk) {
		t.Fatal("a bulk payload was copied, not handed off")
	}
	if r.Set(nil); r.Bytes() != nil {
		t.Fatal("an empty record is not empty")
	}

	var p Packet
	p.SetPayload(src)
	src[0] = '?'
	if !bytes.Equal(p.Payload, []byte("Sixteen bytes!!!")) {
		t.Fatalf("a packet's small payload reads %q after its source changed", p.Payload)
	}
	if p.SetPayload(bulk); &p.Payload[0] != &bulk[0] {
		t.Fatal("a packet's bulk payload was copied, not handed off")
	}
}
