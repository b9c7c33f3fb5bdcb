package main

import (
	"runtime"
	"strings"
	"time"

	"rvma/internal/fabric"
	"rvma/internal/kv"
	"rvma/internal/memory"
	"rvma/internal/motif"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// Layer probes time one layer's primitive on fresh objects, outside any
// model run, so a change to that layer shows here without the noise of a
// whole simulation. Each probe reports the median of probeReps batches.
const probeReps = 7

// timeBatches runs batch probeReps times and returns the median host
// nanoseconds per operation; batch returns its operation count. Each
// batch starts from a collected heap, so what ran before the probe does
// not decide when the collector runs inside it.
func timeBatches(batch func() int) float64 {
	per := make([]float64, probeReps)
	for i := range per {
		runtime.GC()
		start := time.Now()
		n := batch()
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// probePopNS times Engine.Schedule plus the pop of an empty event with
// depth events pending: every event reschedules itself at a random delay,
// so the heap holds depth events throughout.
func probePopNS(depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	const pops = 1 << 19
	return timeBatches(func() int {
		eng := sim.NewEngine(1)
		rng := sim.NewRNG(7)
		n := 0
		var fn func()
		fn = func() {
			n++
			if n == pops {
				eng.Stop()
			}
			eng.Schedule(sim.Time(1+rng.Intn(1_000_000)), fn)
		}
		for i := 0; i < depth; i++ {
			eng.Schedule(sim.Time(1+rng.Intn(1_000_000)), fn)
		}
		eng.Run()
		return pops
	})
}

// probeSwitchNS times process switches: two sim.Processes hand a Future
// back and forth, each completion delivered by an engine event the way
// the models deliver theirs.
func probeSwitchNS() float64 {
	const rounds = 1 << 16
	return timeBatches(func() int {
		eng := sim.NewEngine(1)
		var fut [2]*sim.Future
		left := rounds
		wakePeer := func(me int) {
			if f := fut[1-me]; f != nil {
				fut[1-me] = nil
				eng.Schedule(0, func() { f.Complete(eng, nil) })
			}
		}
		body := func(me int) func(p *sim.Process) {
			return func(p *sim.Process) {
				for left > 0 {
					left--
					f := sim.NewFuture()
					fut[me] = f
					wakePeer(me)
					p.Wait(f)
				}
				wakePeer(me)
			}
		}
		eng.Spawn("ping", body(0))
		eng.Spawn("pong", body(1))
		eng.Run()
		return rounds
	})
}

// probeAllocNS times memory.Memory.Alloc of one Sweep3D message-sized
// region (the x-face slab of the default decomposition).
func probeAllocNS() float64 {
	c := motif.DefaultSweep3DConfig(1)
	size := c.Ny * c.KBA * c.Vars * 8
	const allocs = 1 << 14
	return timeBatches(func() int {
		m := memory.New()
		for i := 0; i < allocs; i++ {
			m.Alloc(size)
		}
		return allocs
	})
}

// probeApplyNS times kv.Store.Apply on a Zipf(0.99) get/put/CAS mix like
// the KV workload's.
func probeApplyNS() float64 {
	const keys, ops = 4096, 1 << 16
	rng := sim.NewRNG(11)
	zipf := kv.NewZipf(keys, 0.99)
	reqs := make([]kv.Request, ops)
	for i := range reqs {
		r := kv.Request{Key: zipf.Sample(rng), Kind: kv.OpCAS}
		switch mix := rng.Float64(); {
		case mix < 0.70:
			r.Kind = kv.OpGet
		case mix < 0.90:
			r.Kind = kv.OpPut
		}
		reqs[i] = r
	}
	return timeBatches(func() int {
		s := kv.NewStore(keys, 1, 0)
		for _, r := range reqs {
			s.Apply(r)
		}
		return ops
	})
}

// observerProbe runs the representative figure cell (Sweep3D, RVMA,
// adaptive dragonfly, 100 Gbps, 32 nodes) bare, with spans, and with
// spans plus attribution, probeReps times each, interleaved. It returns
// the spans recorded and the median overhead of spans over bare and of
// attribution over spans alone.
func observerProbe(seed uint64) (spanEvents uint64, spanOverhead, attribOverhead float64) {
	spec := cellSpec{Motif: "sweep3d", Kind: motif.KindRVMA, Topo: topology.KindDragonfly,
		Routing: fabric.RouteAdaptive, Nodes: 32, Gbps: 100}
	var bare, spans, both []float64
	for i := 0; i < probeReps; i++ {
		s := spec
		r := runCell(s, seed, nil)
		bare = append(bare, r.WallS())
		s.Spans = true
		r = runCell(s, seed, nil)
		spans = append(spans, r.WallS())
		if r.Reg != nil {
			spanEvents = 0
			for _, name := range r.Reg.HistogramNames() {
				if strings.HasPrefix(name, "span.") && strings.HasSuffix(name, "/total") {
					spanEvents += r.Reg.Histogram(name).Count()
				}
			}
		}
		s.Attrib = true
		r = runCell(s, seed, nil)
		both = append(both, r.WallS())
	}
	return spanEvents, median(spans)/median(bare) - 1, median(both)/median(spans) - 1
}
