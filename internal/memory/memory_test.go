package memory

import (
	"bytes"
	"testing"
	"testing/quick"

	"rvma/internal/sim"
)

func TestAllocAlignment(t *testing.T) {
	m := New()
	for i := 0; i < 20; i++ {
		r := m.Alloc(i*7 + 1)
		if r.Base%CacheLineSize != 0 {
			t.Fatalf("region %d base %#x not cache-line aligned", i, r.Base)
		}
	}
}

func TestAllocDisjoint(t *testing.T) {
	m := New()
	a := m.Alloc(100)
	b := m.Alloc(100)
	if a.End() > b.Base {
		t.Fatalf("regions overlap: a=[%#x,%#x) b=[%#x,%#x)", a.Base, a.End(), b.Base, b.End())
	}
}

func TestWriteRead(t *testing.T) {
	m := New()
	r := m.Alloc(256)
	payload := []byte("remote virtual memory access")
	m.Write(r.Base+13, payload)
	got := m.Read(r.Base+13, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
	if m.Writes != 1 || m.BytesWritten != uint64(len(payload)) {
		t.Fatalf("stats: writes=%d bytes=%d", m.Writes, m.BytesWritten)
	}
}

func TestFill(t *testing.T) {
	m := New()
	r := m.Alloc(64)
	m.Fill(r.Base+8, 0xAB, 16)
	got := m.Read(r.Base+8, 16)
	for _, b := range got {
		if b != 0xAB {
			t.Fatalf("fill byte = %#x, want 0xAB", b)
		}
	}
	if m.Read(r.Base, 8)[7] != 0 {
		t.Fatal("fill bled outside its range")
	}
}

func TestOutOfBoundsWritePanics(t *testing.T) {
	m := New()
	r := m.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds write should panic")
		}
	}()
	m.Write(r.End()-4, make([]byte, 8))
}

func TestOutOfBoundsReadPanics(t *testing.T) {
	m := New()
	m.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("read outside any region should panic")
		}
	}()
	m.Read(0x10, 4)
}

func TestRegionContains(t *testing.T) {
	r := &Region{Base: 0x100, size: 64}
	if !r.Contains(0x100, 64) {
		t.Fatal("full-span Contains failed")
	}
	if r.Contains(0x100, 65) {
		t.Fatal("Contains allowed overflow")
	}
	if r.Contains(0xFF, 1) {
		t.Fatal("Contains allowed underflow")
	}
	if r.Contains(0x100, -1) {
		t.Fatal("Contains allowed negative length")
	}
}

func TestWatcherFiresOnLineTouch(t *testing.T) {
	m := New()
	r := m.Alloc(256)
	fired := 0
	m.Watch(r.Base+64, func(a Addr, n int) { fired++ })
	m.Write(r.Base+64, []byte{1})       // exact address
	m.Write(r.Base+100, []byte{1})      // same line (64..127)
	m.Write(r.Base, []byte{1})          // different line
	m.Write(r.Base+128, []byte{1})      // different line
	m.Write(r.Base+60, make([]byte, 8)) // straddles into watched line
	if fired != 3 {
		t.Fatalf("watcher fired %d times, want 3", fired)
	}
}

func TestWatcherCancel(t *testing.T) {
	m := New()
	r := m.Alloc(64)
	fired := 0
	w := m.Watch(r.Base, func(a Addr, n int) { fired++ })
	m.Write(r.Base, []byte{1})
	w.Cancel()
	m.Write(r.Base, []byte{1})
	w.Cancel() // idempotent
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if m.WatcherCount() != 0 {
		t.Fatalf("watcher leaked: count = %d", m.WatcherCount())
	}
}

func TestWatcherSelfCancelDuringCallback(t *testing.T) {
	m := New()
	r := m.Alloc(64)
	fired := 0
	var w *Watcher
	w = m.Watch(r.Base, func(a Addr, n int) {
		fired++
		w.Cancel()
	})
	m.Write(r.Base, []byte{1})
	m.Write(r.Base, []byte{1})
	if fired != 1 {
		t.Fatalf("self-canceling watcher fired %d times, want 1", fired)
	}
}

func TestMultipleWatchersOneLine(t *testing.T) {
	m := New()
	r := m.Alloc(64)
	count := 0
	m.Watch(r.Base, func(Addr, int) { count++ })
	m.Watch(r.Base+8, func(Addr, int) { count++ })
	m.Write(r.Base+4, []byte{9})
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestCompletionCell(t *testing.T) {
	m := New()
	c := NewCompletionCell(m)
	if c.Addr()%CacheLineSize != 0 {
		t.Fatal("completion cell must be cache-line aligned")
	}
	if h, l := c.Get(); h != 0 || l != 0 {
		t.Fatalf("fresh cell = (%#x, %d), want zero", h, l)
	}
	c.Set(0xDEAD0, 4096)
	h, l := c.Get()
	if h != 0xDEAD0 || l != 4096 {
		t.Fatalf("cell = (%#x, %d), want (0xDEAD0, 4096)", h, l)
	}
	c.Clear()
	if h, l := c.Get(); h != 0 || l != 0 {
		t.Fatalf("cleared cell = (%#x, %d)", h, l)
	}
}

func TestCompletionCellWatch(t *testing.T) {
	m := New()
	c := NewCompletionCell(m)
	var seen Addr
	m.Watch(c.Addr(), func(Addr, int) {
		h, _ := c.Get()
		seen = h
	})
	c.Set(0xBEEF00, 128)
	if seen != 0xBEEF00 {
		t.Fatalf("watcher observed head %#x, want 0xBEEF00", seen)
	}
}

func TestCompletionCellsDontShareLines(t *testing.T) {
	m := New()
	a := NewCompletionCell(m)
	b := NewCompletionCell(m)
	fired := false
	m.Watch(a.Addr(), func(Addr, int) { fired = true })
	b.Set(1, 1)
	if fired {
		t.Fatal("write to cell B woke watcher on cell A (false sharing)")
	}
}

// Property: a write followed by a read of the same span returns the same
// bytes, for arbitrary offsets and payloads within a region.
func TestWriteReadRoundTripProperty(t *testing.T) {
	m := New()
	r := m.Alloc(1 << 16)
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		a := r.Base + Addr(off)
		if !r.Contains(a, len(payload)) {
			return true // out of range inputs are skipped, not failures
		}
		m.Write(a, payload)
		return bytes.Equal(m.Read(a, len(payload)), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: writing non-overlapping chunks in any order produces the same
// final contents — the foundation of RVMA's claim that offset-based
// placement tolerates arbitrary packet arrival order (§IV-D).
func TestOutOfOrderPlacementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		const chunk, n = 64, 32
		build := func(order []int) []byte {
			m := New()
			r := m.Alloc(chunk * n)
			for _, idx := range order {
				payload := make([]byte, chunk)
				for j := range payload {
					payload[j] = byte(idx*31 + j)
				}
				m.Write(r.Base+Addr(idx*chunk), payload)
			}
			return m.Read(r.Base, chunk*n)
		}
		inOrder := make([]int, n)
		shuffled := make([]int, n)
		for i := 0; i < n; i++ {
			inOrder[i] = i
			shuffled[i] = i
		}
		rng := sim.NewRNG(seed)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return bytes.Equal(build(inOrder), build(shuffled))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPoller(t *testing.T) {
	e := sim.NewEngine(1)
	ready := false
	var doneAt sim.Time
	p := StartPoller(e.Tag("test"), 100*sim.Nanosecond, func() bool { return ready }, func() { doneAt = e.Now() })
	e.Schedule(450*sim.Nanosecond, func() { ready = true })
	e.Run()
	// Polls at 100,200,300,400 miss; the poll at 500 sees ready.
	if doneAt != 500*sim.Nanosecond {
		t.Fatalf("poller completed at %v, want 500ns", doneAt)
	}
	if p.Polls != 5 {
		t.Fatalf("polls = %d, want 5", p.Polls)
	}
}

func TestPollerStop(t *testing.T) {
	e := sim.NewEngine(1)
	p := StartPoller(e.Tag("test"), 10*sim.Nanosecond, func() bool { return false }, func() {})
	e.Schedule(35*sim.Nanosecond, func() { p.Stop() })
	e.RunUntil(sim.Microsecond)
	if p.Polls != 3 {
		t.Fatalf("polls before stop = %d, want 3", p.Polls)
	}
}

func TestPollerZeroIntervalPanics(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval should panic")
		}
	}()
	StartPoller(e.Tag("test"), 0, func() bool { return true }, func() {})
}

// TestWatcherNotifyOrderDeterministic pins the notify ordering contract:
// a write spanning several cache lines fires watchers in ascending line
// order, and within one line in registration order. Wake-up order is
// observable model behavior (a waiter may schedule events from its
// callback), so it must not depend on map iteration or any other
// randomized order.
func TestWatcherNotifyOrderDeterministic(t *testing.T) {
	m := New()
	r := m.Alloc(4 * CacheLineSize)

	var fired []int
	watch := func(id int, line Addr) {
		m.Watch(r.Base+line*CacheLineSize, func(Addr, int) {
			fired = append(fired, id)
		})
	}
	// Register out of line order, with two watchers on line 1.
	watch(0, 2)
	watch(1, 0)
	watch(2, 3)
	watch(3, 1)
	watch(4, 1)

	// One write covering all four lines.
	m.Write(r.Base, make([]byte, 4*CacheLineSize))

	want := []int{1, 3, 4, 0, 2} // line 0, line 1 (reg order), line 2, line 3
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestUntouchedRegionReadsZeros: a region no write has touched reads as
// zeros and stays unbacked; the first Write or Fill backs it.
func TestUntouchedRegionReadsZeros(t *testing.T) {
	m := New()
	r := m.Alloc(4096)
	if got := m.Read(r.Base+100, 32); !bytes.Equal(got, make([]byte, 32)) {
		t.Fatalf("untouched region read %v, want zeros", got)
	}
	if r.data != nil {
		t.Fatal("Read backed an untouched region")
	}
	m.Write(r.Base+8, []byte{7})
	if r.data == nil || len(r.data) != 4096 {
		t.Fatal("Write did not back the region at its full size")
	}
	if got := m.Read(r.Base, 16); got[8] != 7 || got[0] != 0 || got[9] != 0 {
		t.Fatalf("read after write = %v", got)
	}
	f := m.Alloc(128)
	m.Fill(f.Base+64, 0xCC, 1)
	if f.data == nil || m.Read(f.Base+63, 2)[1] != 0xCC {
		t.Fatal("Fill did not back the region")
	}
}

// TestAllocAndSizeDoNotBack: sizing and bounds queries never materialize
// the region's bytes, so payload-free runs hold no host memory per region.
func TestAllocAndSizeDoNotBack(t *testing.T) {
	m := New()
	var r *Region
	allocs := testing.AllocsPerRun(100, func() {
		r = m.Alloc(1 << 20)
	})
	if allocs > 2 {
		t.Fatalf("Alloc of a 1 MiB region made %.1f allocations, want <= 2 (no backing)", allocs)
	}
	if n := testing.AllocsPerRun(100, func() {
		if r.Size() != 1<<20 || !r.Contains(r.Base, 1<<20) || r.End() != r.Base+1<<20 {
			t.Fatal("region bounds wrong")
		}
	}); n != 0 {
		t.Fatalf("Size/Contains/End allocated %.1f times", n)
	}
	if r.data != nil {
		t.Fatal("bounds queries backed the region")
	}
}

// TestOutOfBoundsPanicsOnLazyRegions: bounds checks do not depend on
// backing — an access past an unbacked region panics with the same
// message as before, and a failed access does not back anything.
func TestOutOfBoundsPanicsOnLazyRegions(t *testing.T) {
	cases := []struct {
		name string
		op   func(m *Memory, r *Region)
		want string
	}{
		{"write", func(m *Memory, r *Region) { m.Write(r.End()-4, make([]byte, 8)) },
			"memory: write of 8 bytes at 0x100c outside any region"},
		{"fill", func(m *Memory, r *Region) { m.Fill(r.End(), 1, 1) },
			"memory: fill of 1 bytes at 0x1010 outside any region"},
		{"read", func(m *Memory, r *Region) { m.Read(r.Base-1, 2) },
			"memory: read of 2 bytes at 0xfff outside any region"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			r := m.Alloc(16)
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic = %v, want %q", got, tc.want)
				}
				if r.data != nil {
					t.Fatal("failed access backed the region")
				}
			}()
			tc.op(m, r)
		})
	}
}
