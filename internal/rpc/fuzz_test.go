package rpc

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
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

// wireOp is one codec operation on operand v: with e set, encode v;
// otherwise decode one value and report whether it is v.
func wireOp[T any](e *Enc, v T, enc func(T), dec func() T, eq func(a, b T) bool) bool {
	if e != nil {
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
// encoding into e when set, otherwise decoding from d and comparing.
func wireStep(s *fuzzStream, e *Enc, d *Dec) bool {
	u64s := func() []uint64 {
		out := make([]uint64, s.byte()%8)
		for i := range out {
			out[i] = s.u64()
		}
		return out
	}
	switch s.byte() % wireOps {
	case 0:
		return wireOp(e, s.byte(), e.U8, d.U8, same)
	case 1:
		return wireOp(e, s.byte()&1 == 1, e.Bool, d.Bool, same)
	case 2:
		return wireOp(e, uint32(s.u64()), e.U32, d.U32, same)
	case 3:
		return wireOp(e, s.u64(), e.U64, d.U64, same)
	case 4:
		return wireOp(e, int32(s.u64()), e.I32, d.I32, same)
	case 5:
		return wireOp(e, int64(s.u64()), e.I64, d.I64, same)
	case 6:
		return wireOp(e, math.Float32frombits(uint32(s.u64())), e.F32, d.F32, sameF32)
	case 7:
		return wireOp(e, math.Float64frombits(s.u64()), e.F64, d.F64, sameF64)
	case 8:
		return wireOp(e, s.bytes(), e.Buf, d.Buf, bytes.Equal)
	case 9:
		return wireOp(e, string(s.bytes()), e.String, d.String, same)
	case 10:
		v := make([]float64, 0, 8)
		for _, x := range u64s() {
			v = append(v, math.Float64frombits(x))
		}
		return wireOp(e, v, e.F64s, d.F64s, func(a, b []float64) bool { return slices.EqualFunc(a, b, sameF64) })
	case 11:
		v := make([]int32, 0, 8)
		for _, x := range u64s() {
			v = append(v, int32(x))
		}
		return wireOp(e, v, e.I32s, d.I32s, slices.Equal)
	default:
		return wireOp(e, u64s(), e.U64s, d.U64s, slices.Equal)
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
			if !wireStep(&s, nil, d) {
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
				wireStep(&s, nil, d)
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
