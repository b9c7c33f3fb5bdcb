// Package memory models a node's host DRAM as seen by a NIC's DMA engine
// and by host software.
//
// The model is functional as well as temporal: writes carry real bytes, so
// tests can assert that out-of-order packet placement still yields byte-
// identical buffers (the property RVMA's offset-based placement relies on,
// paper §IV-D). Completion notification is modeled with cache-line
// watchers, which is how the paper's Monitor/MWait wake-on-write mechanism
// observes the NIC's completion-pointer write (§IV-C).
package memory

import (
	"fmt"
	"sort"

	"rvma/internal/sim"
)

// Addr is a host physical address in the simulated memory.
type Addr uint64

// CacheLineSize is the coherence granularity: Monitor/MWait watchers fire
// on any write that touches the watched address's cache line.
const CacheLineSize = 64

// lineOf returns the cache line index containing a.
func lineOf(a Addr) Addr { return a / CacheLineSize }

// Region is an allocated span of simulated host memory. It records its
// size at allocation; its bytes are backed only when a Write or Fill first
// touches it, so a region the models only size (payload-free runs) costs
// no host memory, the way a real NIC's pages need not be backed until
// touched.
type Region struct {
	Base Addr
	size int
	data []byte // nil until the first Write or Fill
}

// Size returns the region length in bytes.
func (r *Region) Size() int { return r.size }

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.size) }

// backing returns the region's bytes, allocating them (zeroed) on first
// use.
func (r *Region) backing() []byte {
	if r.data == nil {
		r.data = make([]byte, r.size)
	}
	return r.data
}

// Contains reports whether [a, a+n) lies entirely within the region.
func (r *Region) Contains(a Addr, n int) bool {
	return a >= r.Base && a+Addr(n) <= r.End() && n >= 0
}

// Watcher observes writes to a single cache line, modeling a hardware
// thread parked in MWait on that line.
type Watcher struct {
	line Addr
	fn   func(addr Addr, n int)
	mem  *Memory
	dead bool
}

// Cancel deregisters the watcher; subsequent writes no longer invoke it.
func (w *Watcher) Cancel() {
	if w.dead {
		return
	}
	w.dead = true
	ws := w.mem.watchers[w.line]
	for i, other := range ws {
		if other == w {
			w.mem.watchers[w.line] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(w.mem.watchers[w.line]) == 0 {
		delete(w.mem.watchers, w.line)
	}
}

// Memory is one node's host memory. Allocation is a simple bump allocator
// that never frees: regions are backed lazily (only touched regions hold
// host bytes), and the models repost completed buffers rather than
// allocating new ones, so the region count stays bounded by the posted
// depth, the way registered buffers are recycled in real RDMA stacks.
type Memory struct {
	next     Addr
	regions  []*Region // sorted by Base
	watchers map[Addr][]*Watcher

	// Stats for experiment reports.
	BytesWritten uint64
	BytesRead    uint64
	Writes       uint64
	Reads        uint64
}

// New returns an empty memory. The address space starts at a nonzero base
// so that Addr(0) can serve as a null sentinel.
func New() *Memory {
	return &Memory{next: 0x1000, watchers: make(map[Addr][]*Watcher)}
}

// Alloc carves out a new cache-line-aligned region of the given size.
func (m *Memory) Alloc(size int) *Region {
	if size < 0 {
		panic("memory: negative allocation")
	}
	// Align base to a cache line, as real allocators for DMA targets do.
	base := (m.next + CacheLineSize - 1) / CacheLineSize * CacheLineSize
	r := &Region{Base: base, size: size}
	m.next = base + Addr(size)
	m.regions = append(m.regions, r)
	return r
}

// regionFor locates the region containing [a, a+n), or nil.
func (m *Memory) regionFor(a Addr, n int) *Region {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].End() > a
	})
	if i < len(m.regions) && m.regions[i].Contains(a, n) {
		return m.regions[i]
	}
	return nil
}

// Write stores p at address a. It panics on an out-of-bounds access: the
// models compute every DMA target address, so a bad address is a model bug,
// not a recoverable condition. Watchers on any touched cache line fire
// after the bytes land.
func (m *Memory) Write(a Addr, p []byte) {
	if len(p) == 0 {
		return
	}
	r := m.regionFor(a, len(p))
	if r == nil {
		panic(fmt.Sprintf("memory: write of %d bytes at %#x outside any region", len(p), a))
	}
	copy(r.backing()[a-r.Base:], p)
	m.Writes++
	m.BytesWritten += uint64(len(p))
	m.notify(a, len(p))
}

// Fill stores n copies of byte b starting at a, with watcher semantics
// identical to Write. It avoids materializing large payload slices when the
// content doesn't matter to a test.
func (m *Memory) Fill(a Addr, b byte, n int) {
	if n == 0 {
		return
	}
	r := m.regionFor(a, n)
	if r == nil {
		panic(fmt.Sprintf("memory: fill of %d bytes at %#x outside any region", n, a))
	}
	d := r.backing()[a-r.Base : a-r.Base+Addr(n)]
	for i := range d {
		d[i] = b
	}
	m.Writes++
	m.BytesWritten += uint64(n)
	m.notify(a, n)
}

// Read copies n bytes starting at a into a fresh slice. A region no write
// has touched reads as zeros without being backed.
func (m *Memory) Read(a Addr, n int) []byte {
	r := m.regionFor(a, n)
	if r == nil {
		panic(fmt.Sprintf("memory: read of %d bytes at %#x outside any region", n, a))
	}
	m.Reads++
	m.BytesRead += uint64(n)
	out := make([]byte, n)
	if r.data != nil {
		copy(out, r.data[a-r.Base:])
	}
	return out
}

// notify fires watchers registered on any cache line overlapped by the
// write [a, a+n). Watchers may cancel themselves (or others) from inside
// the callback, so iteration works on a snapshot.
func (m *Memory) notify(a Addr, n int) {
	if len(m.watchers) == 0 {
		return
	}
	first, last := lineOf(a), lineOf(a+Addr(n)-1)
	for line := first; line <= last; line++ {
		ws := m.watchers[line]
		if len(ws) == 0 {
			continue
		}
		snapshot := make([]*Watcher, len(ws))
		copy(snapshot, ws)
		for _, w := range snapshot {
			if !w.dead {
				w.fn(a, n)
			}
		}
	}
}

// Watch registers fn to be invoked whenever a write touches the cache line
// containing a. This models arming Monitor/MWait on the completion cell:
// the paper notes wake-up happens in as little as one clock cycle, so the
// simulation treats the callback as free and leaves any modeled wake
// latency to the caller.
func (m *Memory) Watch(a Addr, fn func(addr Addr, n int)) *Watcher {
	w := &Watcher{line: lineOf(a), fn: fn, mem: m}
	m.watchers[w.line] = append(m.watchers[w.line], w)
	return w
}

// RegionCount returns the number of regions allocated so far (for
// bounded-memory tests).
func (m *Memory) RegionCount() int { return len(m.regions) }

// WatcherCount returns the number of live watchers (for leak tests).
func (m *Memory) WatcherCount() int {
	n := 0
	for _, ws := range m.watchers {
		n += len(ws)
	}
	return n
}

// CompletionCell is a cache-line-aligned pair of u64 slots in host memory:
// the completed buffer's head address and its completed length. This is
// precisely the layout the paper prescribes for RVMA completion
// notification ("typically these two completion addresses will be
// consecutive and be aligned to a single cache line", §III-B).
type CompletionCell struct {
	mem *Memory
	reg *Region
}

// NewCompletionCell allocates and zeroes a completion cell.
func NewCompletionCell(m *Memory) *CompletionCell {
	// A full cache line so the cell never shares a line with another cell:
	// false sharing would make MWait wake-ups ambiguous.
	r := m.Alloc(CacheLineSize)
	return &CompletionCell{mem: m, reg: r}
}

// Addr returns the cell's address (the completion pointer address handed to
// the NIC when a buffer is posted).
func (c *CompletionCell) Addr() Addr { return c.reg.Base }

// Set writes (bufferHead, length) into the cell. In the model this is the
// NIC's PCIe write; watchers on the line observe it.
func (c *CompletionCell) Set(head Addr, length int) {
	var b [16]byte
	putU64(b[0:8], uint64(head))
	putU64(b[8:16], uint64(length))
	c.mem.Write(c.reg.Base, b[:])
}

// Get reads the cell, returning the last completed buffer's head address
// and length. A zero head means "no completion yet this epoch".
func (c *CompletionCell) Get() (head Addr, length int) {
	b := c.mem.Read(c.reg.Base, 16)
	return Addr(getU64(b[0:8])), int(getU64(b[8:16]))
}

// Clear zeroes the cell (used when re-arming a buffer for a new epoch).
func (c *CompletionCell) Clear() { c.Set(0, 0) }

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Poller models host software polling a memory location at a fixed
// interval, the fallback notification scheme for architectures without
// MWait (§IV-C: "the memory location can be polled for change; this
// provides a similarly low latency but expends more energy"). It invokes
// check every interval until check returns true or the poller is stopped,
// then calls done with the completion time.
type Poller struct {
	stopped bool
	Polls   int
}

// StartPoller begins polling. The first check happens one interval from
// now (the poller was presumably checked synchronously before arming).
// The tick events carry the caller's component label, so poll traffic is
// attributed to the endpoint that armed the poller, not to this package.
func StartPoller(e sim.Tagged, interval sim.Time, check func() bool, done func()) *Poller {
	if interval <= 0 {
		panic("memory: poll interval must be positive")
	}
	p := &Poller{}
	var tick func()
	tick = func() {
		if p.stopped {
			return
		}
		p.Polls++
		if check() {
			done()
			return
		}
		e.Schedule(interval, tick)
	}
	e.Schedule(interval, tick)
	return p
}

// Stop cancels future polls.
func (p *Poller) Stop() { p.stopped = true }
