package core

import (
	"testing"
)

func TestClusterQuickstart(t *testing.T) {
	c := NewCluster(Options{Nodes: 3, Seed: 7})
	count := 0
	inc := c.Define("inc", func(e *Env, caller int, arg []byte) []byte {
		count++
		return nil
	})
	elapsed, err := c.Run(func(ctx Ctx, node int) {
		if node == 0 {
			return
		}
		for i := 0; i < 5; i++ {
			inc.Call(ctx, 0, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if elapsed <= 0 {
		t.Fatal("no time passed")
	}
	st := c.OAMStats()
	if st.Total != 10 || st.Succeeded != 10 {
		t.Fatalf("stats %+v", st)
	}
}

func TestClusterBlockingProcedure(t *testing.T) {
	c := NewCluster(Options{Nodes: 2})
	mu := c.NewMutex(1)
	cv := c.NewCond(mu)
	ready := false
	get := c.Define("get", func(e *Env, caller int, arg []byte) []byte {
		e.Lock(mu)
		e.Await(cv, func() bool { return ready })
		e.Unlock(mu)
		out := Enc(8)
		out.U64(5)
		return out.Bytes()
	})
	_, err := c.Run(func(ctx Ctx, node int) {
		if node == 1 {
			ctx.P.Charge(Micros(100))
			mu.Lock(ctx)
			ready = true
			cv.Signal(ctx)
			mu.Unlock(ctx)
			return
		}
		res := get.Call(ctx, 1, nil)
		rep := Dec(res.Bytes())
		if rep.U64() != 5 {
			t.Error("wrong reply")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusterDefaults(t *testing.T) {
	c := NewCluster(Options{})
	if c.Universe().N() != 2 {
		t.Fatalf("default nodes = %d", c.Universe().N())
	}
	if c.rt == nil || c.Universe() == nil {
		t.Fatal("nil accessors")
	}
	if _, err := c.Run(func(ctx Ctx, node int) {}); err != nil {
		t.Fatal(err)
	}
}
