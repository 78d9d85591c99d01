// Objects: a miniature Orca-style shared-object program (the paper's
// second validation vehicle — "we have ported the Orca system to the
// CM-5... performance improvements that ranged from 2 to 30 times").
// A bounded job queue lives on node 0 as a shared object with guarded
// operations; producers and consumers on other nodes invoke Put and Get,
// which block on Orca guards — and run as Optimistic Active Messages
// whenever the guard holds.
package main

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/objects"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

type queue struct {
	items []int64
	cap   int
}

func run(mode rpc.Mode) {
	eng := sim.New(42)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, 4, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: mode})
	r := objects.New(rt)

	obj := r.NewObject("queue", 0, &queue{cap: 4})
	put := obj.DefineOp("put",
		func(s any, arg []byte) bool { q := s.(*queue); return len(q.items) < q.cap },
		func(s any, arg []byte) []byte {
			q := s.(*queue)
			q.items = append(q.items, rpc.NewDec(arg).I64())
			return nil
		})
	get := obj.DefineOp("get",
		func(s any, arg []byte) bool { return len(s.(*queue).items) > 0 },
		func(s any, arg []byte) []byte {
			q := s.(*queue)
			v := q.items[0]
			q.items = q.items[1:]
			e := rpc.NewEnc(8)
			e.I64(v)
			return e.Bytes()
		})

	const jobs = 40
	consumed := 0
	elapsed, err := u.SPMD(func(c threads.Ctx, node int) {
		switch node {
		case 1, 2: // producers
			for i := int64(0); i < jobs/2; i++ {
				e := rpc.NewEnc(8)
				e.I64(int64(node)*1000 + i)
				put.Invoke(c, e)
			}
		case 3: // consumer, slower than the producers
			for consumed < jobs {
				c.P.Charge(sim.Micros(60))
				rpc.NewDec(get.Invoke(c, nil)).I64()
				consumed++
			}
		}
	})
	if err != nil {
		panic(err)
	}
	ps, gs := put.Stats(), get.Stats()
	fmt.Printf("%-4v  elapsed=%7.1fus  put: %d OAMs / %d in-handler / %d promoted"+
		"  get: %d OAMs / %d in-handler\n",
		mode, float64(elapsed)/1000,
		ps.OAMs, ps.Successes, ps.Promoted, gs.OAMs, gs.Successes)
}

func main() {
	fmt.Println("bounded shared queue (cap 4), 2 producers, 1 slow consumer:")
	run(rpc.ORPC)
	run(rpc.TRPC)
	fmt.Println("guarded operations block when the guard is false; under ORPC they")
	fmt.Println("run inside message handlers whenever the guard already holds.")
}
