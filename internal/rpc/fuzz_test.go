package rpc

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cm5"
)

// fuzzStream hands a fuzz input out as operands; it reads zeros once dry.
type fuzzStream struct{ b []byte }

func (s *fuzzStream) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *fuzzStream) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(s.byte()) << (8 * i)
	}
	return v
}

func (s *fuzzStream) bytes() []byte {
	out := make([]byte, s.byte()%32)
	for i := range out {
		out[i] = s.byte()
	}
	return out
}

// wireOps is the number of operations wireStep knows.
const wireOps = 13

// encoder is what wireStep encodes through: Enc, or appendEnc.
type encoder interface {
	U8(uint8)
	Bool(bool)
	U32(uint32)
	U64(uint64)
	I32(int32)
	I64(int64)
	F32(float32)
	F64(float64)
	Buf([]byte)
	String(string)
	F64s([]float64)
	I32s([]int32)
	U64s([]uint64)
}

// appendEnc is the wire format as a plain append encoder: the reference
// FuzzEnc holds Enc's inline record and its spill to.
type appendEnc struct{ b []byte }

func (a *appendEnc) U8(v uint8)   { a.b = append(a.b, v) }
func (a *appendEnc) U32(v uint32) { a.b = binary.LittleEndian.AppendUint32(a.b, v) }
func (a *appendEnc) U64(v uint64) { a.b = binary.LittleEndian.AppendUint64(a.b, v) }
func (a *appendEnc) Bool(v bool) {
	if v {
		a.U8(1)
	} else {
		a.U8(0)
	}
}
func (a *appendEnc) I32(v int32)   { a.U32(uint32(v)) }
func (a *appendEnc) I64(v int64)   { a.U64(uint64(v)) }
func (a *appendEnc) F32(v float32) { a.U32(math.Float32bits(v)) }
func (a *appendEnc) F64(v float64) { a.U64(math.Float64bits(v)) }
func (a *appendEnc) Buf(v []byte)  { a.U32(uint32(len(v))); a.b = append(a.b, v...) }
func (a *appendEnc) String(v string) {
	a.U32(uint32(len(v)))
	a.b = append(a.b, v...)
}
func (a *appendEnc) F64s(v []float64) {
	a.U32(uint32(len(v)))
	for _, x := range v {
		a.F64(x)
	}
}
func (a *appendEnc) I32s(v []int32) {
	a.U32(uint32(len(v)))
	for _, x := range v {
		a.I32(x)
	}
}
func (a *appendEnc) U64s(v []uint64) {
	a.U32(uint32(len(v)))
	for _, x := range v {
		a.U64(x)
	}
}

// wireOp is one codec operation on operand v: with no decoder d, encode
// v; otherwise decode one value and report whether it is v.
func wireOp[T any](d *Dec, v T, enc func(T), dec func() T, eq func(a, b T) bool) bool {
	if d == nil {
		enc(v)
		return true
	}
	return eq(dec(), v)
}

func same[T comparable](a, b T) bool { return a == b }

// Floats are compared by bit pattern, so NaNs count.
func sameF32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// wireStep draws one operation and its operand from s and applies it:
// encoding into e when d is nil, otherwise decoding from d and comparing
// (e is then a nil *Enc).
func wireStep(s *fuzzStream, e encoder, d *Dec) bool {
	u64s := func() []uint64 {
		out := make([]uint64, s.byte()%8)
		for i := range out {
			out[i] = s.u64()
		}
		return out
	}
	switch s.byte() % wireOps {
	case 0:
		return wireOp(d, s.byte(), e.U8, d.U8, same)
	case 1:
		return wireOp(d, s.byte()&1 == 1, e.Bool, d.Bool, same)
	case 2:
		return wireOp(d, uint32(s.u64()), e.U32, d.U32, same)
	case 3:
		return wireOp(d, s.u64(), e.U64, d.U64, same)
	case 4:
		return wireOp(d, int32(s.u64()), e.I32, d.I32, same)
	case 5:
		return wireOp(d, int64(s.u64()), e.I64, d.I64, same)
	case 6:
		return wireOp(d, math.Float32frombits(uint32(s.u64())), e.F32, d.F32, sameF32)
	case 7:
		return wireOp(d, math.Float64frombits(s.u64()), e.F64, d.F64, sameF64)
	case 8:
		return wireOp(d, s.bytes(), e.Buf, d.Buf, bytes.Equal)
	case 9:
		return wireOp(d, string(s.bytes()), e.String, d.String, same)
	case 10:
		v := make([]float64, 0, 8)
		for _, x := range u64s() {
			v = append(v, math.Float64frombits(x))
		}
		return wireOp(d, v, e.F64s, d.F64s, func(a, b []float64) bool { return slices.EqualFunc(a, b, sameF64) })
	case 11:
		v := make([]int32, 0, 8)
		for _, x := range u64s() {
			v = append(v, int32(x))
		}
		return wireOp(d, v, e.I32s, d.I32s, slices.Equal)
	default:
		return wireOp(d, u64s(), e.U64s, d.U64s, slices.Equal)
	}
}

// FuzzDec drives the wire codec two ways. ops, read as a stream of
// (operation, operand) pairs, is encoded and decoded back: every value
// must round-trip and Done must pass. Then the same read sequence is run
// over record, which is arbitrary bytes — what mismatched stubs or a
// corrupt packet hand the decoder. That must decode, or panic with the
// decoder's own "rpc:" message: never a runtime index, slice or
// allocation failure, and never an allocation the record's size does not
// justify (a decoded value is at most as large as the bytes it consumed).
func FuzzDec(f *testing.F) {
	for op := byte(0); op < wireOps; op++ {
		f.Add([]byte{op, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	}
	f.Fuzz(func(t *testing.T, ops, record []byte) {
		ops = ops[:min(len(ops), 256)]

		e := NewEnc(0)
		for s := (fuzzStream{ops}); len(s.b) > 0; {
			wireStep(&s, e, nil)
		}
		d := NewDec(e.Bytes())
		for s, step := (fuzzStream{ops}), 0; len(s.b) > 0; step++ {
			if !wireStep(&s, (*Enc)(nil), d) {
				t.Fatalf("step %d: decoded value differs from the encoded one", step)
			}
		}
		d.Done()

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "rpc:") {
						t.Fatalf("decoding a corrupt record failed in the runtime, not the decoder: %v", r)
					}
				}
			}()
			d := NewDec(record)
			for s := (fuzzStream{ops}); len(s.b) > 0; {
				wireStep(&s, (*Enc)(nil), d)
			}
		}()
		runtime.ReadMemStats(&m1)
		// The operands wireStep draws on the way cost at most a few bytes
		// per op byte; 64 KiB covers them and the runtime's own noise.
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(2*len(record)+64<<10); got > limit {
			t.Fatalf("decoding a %d-byte record allocated %d bytes (limit %d)", len(record), got, limit)
		}
	})
}

// FuzzEnc holds Enc to the plain append encoder: for any field sequence
// ops, and any capacity hint (below, at and past cm5.MaxPayload), it
// writes the same bytes, wherever the record crosses from the Enc's own
// array into its spill buffer. A copy of the Enc taken halfway keeps the
// bytes it had then, whatever is appended to the original after.
func FuzzEnc(f *testing.F) {
	for op := byte(0); op < wireOps; op++ {
		f.Add([]byte{op, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, op, 3, 1, 2, 3, 4, 5, 6, 7, 8}, byte(0))
		f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 2, 1, 2, 3, 4, op, 7, 7, 7, 7, 7, 7, 7, 7, 7}, byte(cm5.MaxPayload+1))
	}
	f.Fuzz(func(t *testing.T, ops []byte, hint byte) {
		ops = ops[:min(len(ops), 256)]
		var ref appendEnc
		e := NewEnc(int(hint % 40))
		var half Enc
		var halfLen int
		for s, r, step := (fuzzStream{ops}), (fuzzStream{ops}), 0; len(s.b) > 0; step++ {
			wireStep(&s, e, nil)
			wireStep(&r, &ref, nil)
			if !bytes.Equal(e.Bytes(), ref.b) {
				t.Fatalf("step %d: Enc wrote %x, the append encoder %x", step, e.Bytes(), ref.b)
			}
			if step == 1 {
				half, halfLen = *e, len(ref.b)
			}
		}
		if got := half.Bytes(); !bytes.Equal(got, ref.b[:min(halfLen, len(ref.b))]) {
			t.Fatalf("a copy of the Enc reads %x, want the %d bytes it had", got, halfLen)
		}
	})
}
