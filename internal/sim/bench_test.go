package sim

import "testing"

// BenchmarkEngineEventThroughput measures raw kernel speed: schedule +
// execute of self-rescheduling events (the inner loop of every simulation
// here). The regression gate for the event pool: steady state must stay at
// 0 allocs/op (the container/heap + per-Schedule-allocation kernel spent
// 1 alloc and 48 B per event).
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.Schedule(Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
}

// BenchmarkEngineHeapChurn measures scheduling with a deep queue: 4096
// pending events at all times, executing and replacing — the 4-ary heap's
// sift costs under realistic queue depth.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine(1)
	const depth = 4096
	executed := 0
	var reload func()
	reload = func() {
		executed++
		if executed < b.N {
			e.Schedule(Time(executed%977)*Nanosecond, reload)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i)*Nanosecond, reload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineScheduleCancel measures the schedule-then-cancel pattern
// (timeouts that almost always get canceled): both halves should recycle
// through the pool without allocating.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	driven := 0
	var drive func()
	drive = func() {
		driven++
		ev := e.Schedule(100*Nanosecond, func() {})
		e.Cancel(ev)
		if driven < b.N {
			e.Schedule(Nanosecond, drive)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, drive)
	e.Run()
}

// BenchmarkEngineDaemonOverhead measures a model tick with a daemon rider
// at one-tenth the cadence, the telemetry sampler's shape.
func BenchmarkEngineDaemonOverhead(b *testing.B) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.Schedule(Nanosecond, tick)
		}
	}
	var daemon func()
	daemon = func() { e.ScheduleDaemonP(10*Nanosecond, 1<<20, daemon) }
	e.ScheduleDaemonP(10*Nanosecond, 1<<20, daemon)
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
}

// chainObserver is a minimal ledger-shaped ExecObserver: it folds every
// pop's scalars into a running hash, the same work per pop the execution
// ledger does, without the epoch bookkeeping.
type chainObserver struct{ h uint64 }

func (o *chainObserver) ObserveExec(seq uint64, at Time, priority int, label Label) {
	h := o.h ^ seq
	h *= 1099511628211
	h ^= uint64(at)
	h *= 1099511628211
	h ^= uint64(int64(priority))
	h *= 1099511628211
	h ^= uint64(label)
	h *= 1099511628211
	o.h = h
}

// BenchmarkEngineObserverOverhead is BenchmarkEngineEventThroughput with an
// exec observer attached: the cost of recording an execution ledger. The
// disabled path (observer nil) is guarded by BenchmarkEngineEventThroughput
// staying at its baseline; this one bounds the enabled path and must also
// stay at 0 allocs/op.
func BenchmarkEngineObserverOverhead(b *testing.B) {
	e := NewEngine(1)
	obs := &chainObserver{}
	e.SetExecObserver(obs)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.Schedule(Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
	if obs.h == 0 && b.N > 1 {
		b.Fatal("observer never fired")
	}
}

// BenchmarkProcessContextSwitch measures the cooperative handoff cost of
// the process API (one Sleep per iteration). Steady state is 0 allocs/op:
// Sleep schedules the process's bound resume func, not a new closure.
func BenchmarkProcessContextSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("bench", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceAcquire measures the latency-rate server primitive.
func BenchmarkResourceAcquire(b *testing.B) {
	e := NewEngine(1)
	r := NewResource("bench")
	e.Schedule(0, func() {
		for i := 0; i < b.N; i++ {
			r.Acquire(e, Nanosecond)
		}
	})
	e.Run()
}

// BenchmarkRNG measures the deterministic generator.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
