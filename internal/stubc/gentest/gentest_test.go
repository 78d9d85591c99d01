// Package gentest is the end-to-end proof of the stub compiler: stubs.go
// is generated from alltypes.rpc by cmd/stubgen (checked in, like the
// application stubs), and these tests drive every generated stub through
// a live simulated cluster in both dispatch modes.
package gentest

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

func runBoth(t *testing.T, body func(t *testing.T, mode rpc.Mode, rt *rpc.Runtime, u *am.Universe)) {
	t.Helper()
	for _, mode := range []rpc.Mode{rpc.ORPC, rpc.TRPC} {
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.New(5)
			defer eng.Shutdown()
			u := am.NewUniverse(eng, 2, cm5.DefaultCostModel())
			rt := rpc.New(u, rpc.Options{Mode: mode})
			body(t, mode, rt, u)
		})
	}
}

func TestEchoAllScalars(t *testing.T) {
	runBoth(t, func(t *testing.T, mode rpc.Mode, rt *rpc.Runtime, u *am.Universe) {
		echo := DefineEcho(rt, func(e *oam.Env, caller int,
			b bool, i32 int32, i64 int64, u32 uint32, u64v uint64, f32 float32, f64v float64,
		) (bool, int32, int64, uint32, uint64, float32, float64) {
			return b, i32, i64, u32, u64v, f32, f64v
		})
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			if node != 0 {
				return
			}
			ob, oi32, oi64, ou32, ou64, of32, of64 := echo.Call(c, 1,
				true, -42, -1<<60, 0xffffffff, 1<<63, 2.5, -1e300)
			if !ob || oi32 != -42 || oi64 != -1<<60 || ou32 != 0xffffffff ||
				ou64 != 1<<63 || of32 != 2.5 || of64 != -1e300 {
				t.Errorf("echo mismatch: %v %v %v %v %v %v %v",
					ob, oi32, oi64, ou32, ou64, of32, of64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBuffers(t *testing.T) {
	runBoth(t, func(t *testing.T, mode rpc.Mode, rt *rpc.Runtime, u *am.Universe) {
		buf := DefineBuffers(rt, func(e *oam.Env, caller int,
			raw []byte, s string, fs []float64, is []int32, us []uint64,
		) ([]byte, string, []float64, []int32, []uint64) {
			return raw, s, fs, is, us
		})
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			if node != 0 {
				return
			}
			raw := make([]byte, 500) // forces the bulk path
			for i := range raw {
				raw[i] = byte(i)
			}
			oraw, os, ofs, ois, ous := buf.Call(c, 1,
				raw, "héllo", []float64{1, -2.5}, []int32{7, -7}, []uint64{9})
			if !bytes.Equal(oraw, raw) || os != "héllo" ||
				len(ofs) != 2 || ofs[1] != -2.5 ||
				len(ois) != 2 || ois[1] != -7 ||
				len(ous) != 1 || ous[0] != 9 {
				t.Error("buffer echo mismatch")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestCornerShapes(t *testing.T) {
	runBoth(t, func(t *testing.T, mode rpc.Mode, rt *rpc.Runtime, u *am.Universe) {
		noArgs := DefineNoArgs(rt, func(e *oam.Env, caller int) int64 { return 77 })
		got := int64(0)
		noRes := DefineNoResults(rt, func(e *oam.Env, caller int, x int64) { got = x })
		pinged := false
		nothing := DefineNothing(rt, func(e *oam.Env, caller int) { pinged = true })
		fired := uint64(0)
		fire := DefineFire(rt, func(e *oam.Env, caller int, tag uint64) { fired = tag })
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			if node != 0 {
				return
			}
			if v := noArgs.Call(c, 1); v != 77 {
				t.Errorf("NoArgs = %d", v)
			}
			noRes.Call(c, 1, 123)
			nothing.Call(c, 1)
			fire.CallAsync(c, 1, 99)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != 123 || !pinged || fired != 99 {
			t.Errorf("corner shapes: got=%d pinged=%v fired=%d", got, pinged, fired)
		}
	})
}

func TestStructMarshaling(t *testing.T) {
	runBoth(t, func(t *testing.T, mode rpc.Mode, rt *rpc.Runtime, u *am.Universe) {
		dot := DefineDot(rt, func(e *oam.Env, caller int, a, b Vec) float64 {
			return a.X*b.X + a.Y*b.Y + a.Z*b.Z
		})
		tag := DefineTag(rt, func(e *oam.Env, caller int, r Record) Record {
			r.Label = "seen:" + r.Label
			return r
		})
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			if node != 0 {
				return
			}
			if d := dot.Call(c, 1, Vec{1, 2, 3}, Vec{4, 5, 6}); d != 32 {
				t.Errorf("dot = %v, want 32", d)
			}
			out := tag.Call(c, 1, Record{Id: 7, Label: "x", Payload: []byte{1, 2}})
			if out.Id != 7 || out.Label != "seen:x" || !bytes.Equal(out.Payload, []byte{1, 2}) {
				t.Errorf("tag = %+v", out)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestGeneratedStatsWork(t *testing.T) {
	runBoth(t, func(t *testing.T, mode rpc.Mode, rt *rpc.Runtime, u *am.Universe) {
		p := DefineNoArgs(rt, func(e *oam.Env, caller int) int64 { return 1 })
		_, err := u.SPMD(func(c threads.Ctx, node int) {
			if node != 0 {
				return
			}
			for i := 0; i < 4; i++ {
				p.Call(c, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.Calls != 4 {
			t.Fatalf("calls = %d", st.Calls)
		}
		if mode == rpc.ORPC && st.OAMs != 4 {
			t.Fatalf("oams = %d", st.OAMs)
		}
		if mode == rpc.TRPC && st.Threads != 4 {
			t.Fatalf("threads = %d", st.Threads)
		}
	})
}

// TestCompatSpecGolden pins the compatibility matrix generated from
// alltypes.rpc: its classes and clauses, method order, which methods carry key extractors, and the
// extractors' ability to decode past earlier parameters.
func TestCompatSpecGolden(t *testing.T) {
	spec := CompatSpec()
	want := oam.NewCompatTable(8) // one class per proc
	want.Allow(2, 2)
	want.Allow(2, 3)
	want.AllowDisjoint(0, 0)
	want.AllowDisjoint(3, 3)
	if !reflect.DeepEqual(spec.Table, want) {
		t.Fatalf("matrix = %+v, want %+v", spec.Table, want)
	}
	wantKeyed := map[string]bool{
		"Echo": true, "Buffers": false, "NoArgs": false, "NoResults": true,
		"Nothing": false, "Fire": false, "Dot": false, "Tag": false,
	}
	if len(spec.Methods) != len(wantKeyed) {
		t.Fatalf("methods = %d, want %d", len(spec.Methods), len(wantKeyed))
	}
	for _, m := range spec.Methods {
		keyed, known := wantKeyed[m.Name]
		if !known {
			t.Errorf("unexpected method %q", m.Name)
			continue
		}
		if (m.Key != nil) != keyed {
			t.Errorf("%s: keyed = %v, want %v", m.Name, m.Key != nil, keyed)
		}
	}
	// Echo's key (i64) sits behind a bool and an int32 on the wire; the
	// extractor must decode past both.
	enc := rpc.NewEnc(16)
	enc.Bool(true)
	enc.I32(-42)
	enc.I64(123456789)
	if got := spec.Methods[0].Key(enc.Bytes()); got != 123456789 {
		t.Errorf("keyEcho = %d, want 123456789", got)
	}
	// NoResults' key is its first (only) parameter; a negative int64 maps
	// onto uint64 bit-for-bit.
	enc = rpc.NewEnc(8)
	enc.I64(-1)
	if got := spec.Methods[3].Key(enc.Bytes()); got != ^uint64(0) {
		t.Errorf("keyNoResults = %#x, want all-ones", got)
	}
}

// TestCompatMultiactiveLive drives the generated CompatSpec through a live
// multiactive runtime: two clients calling the always-compatible NoArgs
// are admitted concurrently onto separate cores.
func TestCompatMultiactiveLive(t *testing.T) {
	eng := sim.New(5)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 3, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC, OAM: oam.Options{Cores: 2}})
	noArgs := DefineNoArgs(rt, func(e *oam.Env, caller int) int64 {
		e.Compute(sim.Micros(50))
		return int64(caller)
	})
	rt.SetCompat(CompatSpec())
	_, err := u.SPMD(func(c threads.Ctx, node int) {
		if node == 1 {
			return
		}
		if v := noArgs.Call(c, 1); v != int64(node) {
			t.Errorf("node %d: NoArgs = %d", node, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Dispatcher().Stats()
	if st.Total != 2 || st.Succeeded != 2 {
		t.Fatalf("stats %v", st)
	}
	if st.CompatAdmitted != 2 || st.CompatQueued != 0 {
		t.Fatalf("both calls should be admitted concurrently: %v", st)
	}
}
