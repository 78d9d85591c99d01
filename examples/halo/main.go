// Halo: the boundary-exchange pattern of SOR (section 4.2.3) distilled —
// each node iteratively averages a vector with its neighbors' edge
// values, exchanging halo cells through blocking store procedures and
// detecting convergence with the control network's split-phase global OR.
package main

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/cm5"
	"repro/internal/oam"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

const (
	nodes  = 8
	width  = 16
	rounds = 200
)

func main() {
	eng := sim.New(3)
	defer eng.Shutdown()
	u := am.NewUniverse(eng, nodes, cm5.DefaultCostModel())
	rt := rpc.New(u, rpc.Options{Mode: rpc.ORPC})

	type edge struct {
		mu      *threads.Mutex
		isFull  *threads.Cond
		notFull *threads.Cond
		full    bool
		val     float64
	}
	edges := make([][2]*edge, nodes) // [left, right] inbox per node
	for i := range edges {
		for s := 0; s < 2; s++ {
			mu := threads.NewMutex(u.Scheduler(i))
			edges[i][s] = &edge{mu: mu, isFull: threads.NewCond(mu), notFull: threads.NewCond(mu)}
		}
	}

	store := rt.DefineAsync("store", func(e *oam.Env, caller int, arg []byte) []byte {
		d := rpc.NewDec(arg)
		side, val := d.U8(), d.F64()
		eg := edges[e.Node()][side]
		e.Lock(eg.mu)
		e.Await(eg.notFull, func() bool { return !eg.full })
		eg.val, eg.full = val, true
		e.Signal(eg.isFull)
		e.Unlock(eg.mu)
		return nil
	})

	take := func(ctx threads.Ctx, me int, side uint8) float64 {
		eg := edges[me][side]
		eg.mu.Lock(ctx)
		for !eg.full {
			eg.isFull.Wait(ctx)
		}
		v := eg.val
		eg.full = false
		eg.notFull.Signal(ctx)
		eg.mu.Unlock(ctx)
		return v
	}

	data := make([][]float64, nodes)
	iters := make([]int, nodes)
	_, err := u.SPMD(func(ctx threads.Ctx, me int) {
		vec := make([]float64, width)
		for i := range vec {
			vec[i] = float64(me) // step function across the ring of nodes
		}
		sched := u.Scheduler(me)
		left, right := (me+nodes-1)%nodes, (me+1)%nodes
		r := 0
		for ; r < rounds; r++ {
			// Ship my edges: my first cell is my left neighbor's right
			// halo, my last cell their left halo.
			sendEdge := func(dst int, side uint8, v float64) {
				arg := rpc.NewEnc(9)
				arg.U8(side)
				arg.F64(v)
				store.CallAsync(ctx, dst, arg)
			}
			sendEdge(left, 1, vec[0])
			sendEdge(right, 0, vec[width-1])
			lh := take(ctx, me, 0)
			rh := take(ctx, me, 1)
			// Relax.
			next := make([]float64, width)
			maxd := 0.0
			for i := range vec {
				l, rr := lh, rh
				if i > 0 {
					l = vec[i-1]
				}
				if i < width-1 {
					rr = vec[i+1]
				}
				next[i] = (l + rr + vec[i]) / 3
				maxd = math.Max(maxd, math.Abs(next[i]-vec[i]))
			}
			vec = next
			ctx.P.Charge(sim.Micros(float64(width)))
			// Split-phase convergence vote.
			sched.OREnter(maxd > 1e-6)
			if !sched.ORWait(ctx) {
				r++
				break
			}
		}
		data[me] = vec
		iters[me] = r
	})
	if err != nil {
		panic(err)
	}
	mean := 0.0
	for _, vec := range data {
		for _, v := range vec {
			mean += v
		}
	}
	mean /= float64(nodes * width)
	st := rt.AsyncDispatcher().Stats()
	fmt.Printf("ran %d rounds; ring mean %.4f (expected %.4f)\n",
		iters[0], mean, float64(nodes-1)/2)
	fmt.Printf("OAMs: %d total, %.1f%% ran without blocking\n",
		st.Total, 100*float64(st.Succeeded)/float64(st.Total))
}
