package sim

import "testing"

// The process API's allocation gates: once the event pool is warm, parking
// a process and waking it again allocates nothing, because every wake-up
// schedules or registers the process's one bound resume func and a
// future holds its first callback inline.

func skipUnderDebug(t *testing.T) {
	t.Helper()
	if DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate covers release builds")
	}
}

// TestSleepAllocationFree: a warm Sleep (schedule the wake-up, park,
// resume) costs 0 allocations.
func TestSleepAllocationFree(t *testing.T) {
	skipUnderDebug(t)
	e := NewEngine(1)
	stop := false
	e.Spawn("sleeper", func(p *Process) {
		for !stop {
			p.Sleep(Nanosecond)
		}
	})
	for i := 0; i < 4; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs != 0 {
		t.Fatalf("warm Sleep allocates %.1f times, want 0", allocs)
	}
	stop = true
	e.Run()
}

// TestWaitAllocationFree: Wait on a pending future (register the resume,
// park, be resumed by Complete) costs 0 allocations.
func TestWaitAllocationFree(t *testing.T) {
	skipUnderDebug(t)
	const waits = 110
	e := NewEngine(1)
	futs := make([]Future, waits)
	e.Spawn("waiter", func(p *Process) {
		for i := range futs {
			p.Wait(&futs[i])
		}
	})
	e.Run() // the waiter parks on futs[0]
	next := 0
	complete := func() {
		futs[next].Complete(e, nil)
		next++
	}
	step := func() {
		e.Schedule(0, complete)
		e.Step()
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("Wait on a pending future allocates %.1f times, want 0", allocs)
	}
	for next < waits {
		step()
	}
	if e.procs != 0 {
		t.Fatalf("waiter did not finish: %d processes live", e.procs)
	}
}

// TestFutureSingleCallbackAllocationFree: OnComplete plus Complete with
// one callback costs 0 allocations.
func TestFutureSingleCallbackAllocationFree(t *testing.T) {
	skipUnderDebug(t)
	e := NewEngine(1)
	futs := make([]Future, 110)
	calls := 0
	cb := func() { calls++ }
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		f := &futs[next]
		next++
		f.OnComplete(cb)
		f.Complete(e, nil)
	})
	if allocs != 0 {
		t.Fatalf("OnComplete+Complete with one callback allocates %.1f times, want 0", allocs)
	}
	if calls != next {
		t.Fatalf("%d callbacks ran for %d completions", calls, next)
	}
}

// TestFutureCallbackOrder: callbacks run once each, in registration order,
// whether held inline or in the overflow list, and one registered during
// completion runs immediately.
func TestFutureCallbackOrder(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture()
	var got []int
	for i := 0; i < 4; i++ {
		f.OnComplete(func() { got = append(got, i) })
	}
	f.OnComplete(func() {
		f.OnComplete(func() { got = append(got, 5) })
		got = append(got, 4)
	})
	f.Complete(e, nil)
	want := []int{0, 1, 2, 3, 5, 4}
	if len(got) != len(want) {
		t.Fatalf("callbacks ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callbacks ran %v, want %v", got, want)
		}
	}
	f.OnComplete(func() { got = append(got, 6) })
	if got[len(got)-1] != 6 {
		t.Fatalf("callback on a done future did not run immediately: %v", got)
	}
}
