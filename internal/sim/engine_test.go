package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{500 * Picosecond, "500ps"},
		{Nanosecond, "1.000ns"},
		{1500 * Nanosecond, "1.500us"},
		{Microsecond, "1.000us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{MaxTime, "never"},
		{-Nanosecond, "-1.000ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSerializationTime(t *testing.T) {
	// 1000 bytes at 100 Gbps = 8000 bits / 100e9 bps = 80 ns.
	if got := SerializationTime(1000, 100); got != 80*Nanosecond {
		t.Errorf("SerializationTime(1000, 100) = %v, want 80ns", got)
	}
	// One byte at 2 Tbps = 4 ps.
	if got := SerializationTime(1, 2000); got != 4*Picosecond {
		t.Errorf("SerializationTime(1, 2000) = %v, want 4ps", got)
	}
	if got := SerializationTime(0, 100); got != 0 {
		t.Errorf("zero bytes should serialize in zero time, got %v", got)
	}
	// Tiny payloads still consume at least one picosecond.
	if got := SerializationTime(1, 1e9); got != 1 {
		t.Errorf("sub-picosecond serialization should round up to 1ps, got %v", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*Nanosecond {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events must run FIFO: order[%d] = %d", i, v)
		}
	}
}

func TestEnginePriority(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.ScheduleP(Nanosecond, 5, func() { order = append(order, "low") })
	e.ScheduleP(Nanosecond, -5, func() { order = append(order, "high") })
	e.Run()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("priority order = %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.Schedule(Nanosecond, tick)
		}
	}
	e.Schedule(0, tick)
	end := e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if end != 9*Nanosecond {
		t.Fatalf("end = %v, want 9ns", end)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.Schedule(Nanosecond, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if !ev.Canceled() {
		t.Fatal("event should report canceled")
	}
	// Double cancel is a no-op.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine(1)
	var order []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.Schedule(Time(i)*Nanosecond, func() { order = append(order, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, d := range []Time{Nanosecond, Microsecond, Millisecond} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	end := e.RunUntil(Microsecond)
	if end != Microsecond {
		t.Fatalf("RunUntil returned %v, want 1us", end)
	}
	if len(ran) != 2 {
		t.Fatalf("executed %d events before limit, want 2", len(ran))
	}
	e.Run()
	if len(ran) != 3 {
		t.Fatalf("remaining events did not run on resume: %v", ran)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("count after Stop = %d, want 5", count)
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count after resume = %d, want 10", count)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	//rvmalint:allow simtime -- deliberately negative to test the panic
	NewEngine(1).Schedule(-1, func() {})
}

func TestEngineAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past should panic")
			}
		}()
		e.At(Nanosecond, func() {})
	})
	e.Run()
}

func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(Nanosecond, func() { count++ })
	e.Schedule(2*Nanosecond, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first Step: count = %d", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second Step: count = %d", count)
	}
	if e.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.EventsScheduled() != 7 || e.EventsExecuted() != 7 {
		t.Fatalf("scheduled = %d executed = %d, want 7/7",
			e.EventsScheduled(), e.EventsExecuted())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine(1)
	if e.NextEventTime() != MaxTime {
		t.Fatal("empty queue should report MaxTime")
	}
	ev := e.Schedule(5*Nanosecond, func() {})
	e.Schedule(9*Nanosecond, func() {})
	if e.NextEventTime() != 5*Nanosecond {
		t.Fatalf("next = %v, want 5ns", e.NextEventTime())
	}
	e.Cancel(ev)
	if e.NextEventTime() != 9*Nanosecond {
		t.Fatalf("next after cancel = %v, want 9ns", e.NextEventTime())
	}
}

// Property: for any set of non-negative delays, the engine executes events
// in non-decreasing time order and ends at the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(42)
		var seen []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		if len(seen) != len(delays) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two engines with the same seed produce identical RNG streams.
func TestRNGDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 100; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) out of range: %d", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Errorf("sample mean = %v, want ~10", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Errorf("sample variance = %v, want ~4", variance)
	}
}

func TestRNGJitter(t *testing.T) {
	r := NewRNG(3)
	base := 100 * Nanosecond
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, 0.1)
		if v < 90*Nanosecond || v > 110*Nanosecond {
			t.Fatalf("jitter out of +-10%% band: %v", v)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero-fraction jitter must be identity")
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(5)
	xs := make([]int, 50)
	for i := range xs {
		xs[i] = i
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("duplicate %d after shuffle", v)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("shuffle lost elements: %d", len(seen))
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("link")
	e.Schedule(0, func() {
		end1 := r.Acquire(e, 10*Nanosecond)
		end2 := r.Acquire(e, 10*Nanosecond)
		if end1 != 10*Nanosecond {
			t.Errorf("first acquisition ends at %v, want 10ns", end1)
		}
		if end2 != 20*Nanosecond {
			t.Errorf("second acquisition must queue: ends at %v, want 20ns", end2)
		}
	})
	e.Run()
	if r.Uses() != 2 || r.BusyTime() != 20*Nanosecond {
		t.Fatalf("uses = %d busy = %v", r.Uses(), r.BusyTime())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("link")
	e.Schedule(0, func() { r.Acquire(e, 5*Nanosecond) })
	e.Schedule(100*Nanosecond, func() {
		end := r.Acquire(e, 5*Nanosecond)
		if end != 105*Nanosecond {
			t.Errorf("after idle gap, acquisition ends at %v, want 105ns", end)
		}
		if got := r.Backlog(e); got != 5*Nanosecond {
			t.Errorf("backlog = %v, want 5ns", got)
		}
	})
	e.Run()
}

func TestResourceAcquireAt(t *testing.T) {
	r := NewResource("xbar")
	end := r.AcquireAt(50*Nanosecond, 10*Nanosecond)
	if end != 60*Nanosecond {
		t.Fatalf("end = %v, want 60ns", end)
	}
	// A later request arriving earlier than freeAt still queues.
	end2 := r.AcquireAt(55*Nanosecond, 10*Nanosecond)
	if end2 != 70*Nanosecond {
		t.Fatalf("end2 = %v, want 70ns", end2)
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(42 * Nanosecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 42*Nanosecond {
		t.Fatalf("woke at %v, want 42ns", wake)
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Process) {
		order = append(order, "a0")
		p.Sleep(10 * Nanosecond)
		order = append(order, "a1")
		p.Sleep(20 * Nanosecond)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Process) {
		order = append(order, "b0")
		p.Sleep(15 * Nanosecond)
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessWaitFuture(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture()
	var got Time
	e.Spawn("waiter", func(p *Process) {
		p.Wait(f)
		got = p.Now()
	})
	e.Schedule(77*Nanosecond, func() { f.Complete(e, "x") })
	e.Run()
	if got != 77*Nanosecond {
		t.Fatalf("waiter resumed at %v, want 77ns", got)
	}
	if f.Value() != "x" || f.CompletedAt() != 77*Nanosecond {
		t.Fatalf("future value/time wrong: %v at %v", f.Value(), f.CompletedAt())
	}
}

func TestProcessWaitCompletedFuture(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture()
	done := false
	e.Schedule(0, func() { f.Complete(e, nil) })
	e.Schedule(Nanosecond, func() {
		e.Spawn("late", func(p *Process) {
			p.Wait(f) // must not block
			done = true
		})
	})
	e.Run()
	if !done {
		t.Fatal("waiting on an already-complete future must not block")
	}
}

func TestProcessWaitAll(t *testing.T) {
	e := NewEngine(1)
	f1, f2, f3 := NewFuture(), NewFuture(), NewFuture()
	var got Time
	e.Spawn("w", func(p *Process) {
		p.WaitAll(f1, f2, f3)
		got = p.Now()
	})
	e.Schedule(5*Nanosecond, func() { f2.Complete(e, nil) })
	e.Schedule(9*Nanosecond, func() { f1.Complete(e, nil) })
	e.Schedule(3*Nanosecond, func() { f3.Complete(e, nil) })
	e.Run()
	if got != 9*Nanosecond {
		t.Fatalf("WaitAll resumed at %v, want 9ns (latest completion)", got)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture()
	e.Schedule(0, func() {
		f.Complete(e, nil)
		defer func() {
			if recover() == nil {
				t.Error("double Complete should panic")
			}
		}()
		f.Complete(e, nil)
	})
	e.Run()
}

func TestGate(t *testing.T) {
	e := NewEngine(1)
	g := NewGate(e, 3)
	opened := Time(-1)
	g.Future().OnComplete(func() { opened = e.Now() })
	e.Schedule(Nanosecond, func() { g.Arrive(e) })
	e.Schedule(2*Nanosecond, func() { g.Arrive(e) })
	e.Schedule(3*Nanosecond, func() { g.Arrive(e) })
	e.Run()
	if opened != 3*Nanosecond {
		t.Fatalf("gate opened at %v, want 3ns", opened)
	}
}

func TestGateZeroCountOpensImmediately(t *testing.T) {
	e := NewEngine(1)
	g := NewGate(e, 0)
	if !g.Future().Done() {
		t.Fatal("zero-count gate should be open immediately")
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("boom", func(p *Process) {
		p.Sleep(Nanosecond)
		panic("kaboom")
	})
	defer func() {
		const want = `sim: process "boom" panicked: kaboom`
		if r := recover(); r != want {
			t.Fatalf("process panic surfaced as %v, want %q", r, want)
		}
	}()
	e.Run()
}

func TestHeartbeat(t *testing.T) {
	e := NewEngine(1)
	var beats int
	var lastExecuted uint64
	e.SetHeartbeat(3, func() {
		beats++
		lastExecuted = e.EventsExecuted()
	})
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i)*Nanosecond, func() {})
	}
	e.Run()
	if beats != 3 {
		t.Fatalf("beats = %d, want 3 (10 events / every 3)", beats)
	}
	if lastExecuted != 9 {
		t.Fatalf("last heartbeat at executed = %d, want 9", lastExecuted)
	}
	// Disabling stops further callbacks.
	e.SetHeartbeat(0, nil)
	e.Schedule(Nanosecond, func() {})
	e.Schedule(Nanosecond, func() {})
	e.Run()
	if beats != 3 {
		t.Fatalf("beats after disable = %d, want 3", beats)
	}
}

func TestDaemonEventsInvisibleToModel(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	var daemonRuns int
	var reschedule func()
	reschedule = func() {
		daemonRuns++
		e.ScheduleDaemonP(Microsecond, 1<<20, reschedule)
	}
	e.ScheduleDaemonP(Microsecond, 1<<20, reschedule)

	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5 model events (daemon excluded)", e.Pending())
	}
	end := e.Run()
	// The model's last event is at 5µs. Once it has popped, only daemons
	// remain, so the daemon pending at 5µs never executes: daemons run at
	// 1..4µs only and the clock stops on the model's end.
	if end != 5*Microsecond {
		t.Fatalf("run ended at %v, want the model's last event at 5.000us", end)
	}
	if daemonRuns != 4 {
		t.Fatalf("daemon ran %d times, want 4 (never once the model drained)", daemonRuns)
	}
	if e.EventsExecuted() != 5 || e.EventsScheduled() != 5 {
		t.Fatalf("executed/scheduled = %d/%d, want 5/5 (daemons uncounted)",
			e.EventsExecuted(), e.EventsScheduled())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0 (trailing daemon excluded)", e.Pending())
	}
}

func TestDaemonOnlyQueueNeverRuns(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.ScheduleDaemonP(Microsecond, 0, func() { ran = true })
	if end := e.Run(); end != 0 {
		t.Fatalf("daemon-only run advanced the clock to %v", end)
	}
	if ran {
		t.Fatal("daemon executed with no model events queued")
	}
}

func TestCancelDaemonEvent(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(2*Microsecond, func() {})
	ev := e.ScheduleDaemonP(Microsecond, 0, func() { t.Fatal("canceled daemon ran") })
	e.Cancel(ev)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
}
