package rpc

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cm5"
)

// The wire format is little-endian with no self-description: the stub
// compiler generates matching encode and decode sequences on the two
// sides, exactly as the paper's stub compiler does for its C remote
// procedures. Buffers ([]byte, []float64, ...) are length-prefixed with a
// uint32, mirroring the paper's rule that a buffer argument carries an
// explicit size argument.

// Enc builds a marshaled argument or result record. It is a value: a
// record of cm5.MaxPayload bytes or less is written into the Enc itself,
// so an Enc on a stub's stack allocates nothing, and a longer one spills
// to one heap buffer. The zero Enc is an empty record.
type Enc struct {
	rec cm5.Record
}

// NewEnc returns an encoder with capacity for n bytes.
func NewEnc(n int) *Enc {
	e := &Enc{}
	e.rec.Grow(n)
	return e
}

// Bytes returns the marshaled record; a small one aliases e.
func (e *Enc) Bytes() []byte { return e.rec.Bytes() }

func (e *Enc) U8(v uint8) { e.rec.Extend(1)[0] = v }
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Enc) U32(v uint32) { binary.LittleEndian.PutUint32(e.rec.Extend(4), v) }
func (e *Enc) U64(v uint64) { binary.LittleEndian.PutUint64(e.rec.Extend(8), v) }
func (e *Enc) I32(v int32)  { e.U32(uint32(v)) }
func (e *Enc) I64(v int64)  { e.U64(uint64(v)) }
func (e *Enc) F32(v float32) {
	e.U32(math.Float32bits(v))
}
func (e *Enc) F64(v float64) {
	e.U64(math.Float64bits(v))
}

// Buf appends a length-prefixed byte buffer.
func (e *Enc) Buf(v []byte) {
	e.U32(uint32(len(v)))
	copy(e.rec.Extend(len(v)), v)
}

// String appends a length-prefixed string.
func (e *Enc) String(v string) {
	e.U32(uint32(len(v)))
	copy(e.rec.Extend(len(v)), v)
}

// F64s appends a length-prefixed []float64 buffer.
func (e *Enc) F64s(v []float64) {
	e.U32(uint32(len(v)))
	b := e.rec.Extend(8 * len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
}

// I32s appends a length-prefixed []int32 buffer.
func (e *Enc) I32s(v []int32) {
	e.U32(uint32(len(v)))
	b := e.rec.Extend(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

// U64s appends a length-prefixed []uint64 buffer.
func (e *Enc) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	b := e.rec.Extend(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// Dec reads a marshaled record. Reading past the end or leaving trailing
// bytes indicates mismatched stubs and panics: on the real machine that
// is memory corruption, and in the simulation we want to fail loudly.
type Dec struct {
	b   []byte
	off int
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) need(n int) []byte {
	if n < 0 || n > d.Remaining() {
		panic(fmt.Sprintf("rpc: decode past end of record (off %d, need %d, len %d)",
			d.off, n, len(d.b)))
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// count reads the length prefix of a buffer of size-byte elements and
// checks that the record still holds them all, so a corrupt count fails
// as the short record it is before it can size an allocation.
func (d *Dec) count(size int) int {
	n := int(d.U32())
	if n < 0 || n > d.Remaining()/size {
		panic(fmt.Sprintf("rpc: decode past end of record (off %d, need %d x %d, len %d)",
			d.off, n, size, len(d.b)))
	}
	return n
}

func (d *Dec) U8() uint8   { return d.need(1)[0] }
func (d *Dec) Bool() bool  { return d.U8() != 0 }
func (d *Dec) U32() uint32 { return binary.LittleEndian.Uint32(d.need(4)) }
func (d *Dec) U64() uint64 { return binary.LittleEndian.Uint64(d.need(8)) }
func (d *Dec) I32() int32  { return int32(d.U32()) }
func (d *Dec) I64() int64  { return int64(d.U64()) }
func (d *Dec) F32() float32 {
	return math.Float32frombits(d.U32())
}
func (d *Dec) F64() float64 {
	return math.Float64frombits(d.U64())
}

// Buf reads a length-prefixed byte buffer into a slice of its own: a
// small record lives in a packet, an oam.Env or a caller's Enc, none of
// which outlives the call.
func (d *Dec) Buf() []byte { return append([]byte(nil), d.need(int(d.U32()))...) }

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.need(int(d.U32()))) }

// F64s reads a length-prefixed []float64 buffer.
func (d *Dec) F64s() []float64 {
	out := make([]float64, d.count(8))
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// I32s reads a length-prefixed []int32 buffer.
func (d *Dec) I32s() []int32 {
	out := make([]int32, d.count(4))
	for i := range out {
		out[i] = d.I32()
	}
	return out
}

// U64s reads a length-prefixed []uint64 buffer.
func (d *Dec) U64s() []uint64 {
	out := make([]uint64, d.count(8))
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// Done panics unless the record was fully consumed.
func (d *Dec) Done() {
	if d.off != len(d.b) {
		panic(fmt.Sprintf("rpc: %d trailing bytes in record", len(d.b)-d.off))
	}
}

// Remaining reports unread bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }
