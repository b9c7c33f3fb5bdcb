//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Process is a cooperatively scheduled simulation actor, in the style of
// process-oriented kernels (SimPy, OMNeT++ activities). A process body runs
// as a coroutine (iter.Pull): resuming it switches directly from the
// engine to the body and parking switches straight back, so exactly one
// of them — the engine loop or one process — runs at any instant, process
// code needs no locking, and the simulation stays deterministic.
//
// Processes make protocol code read sequentially: a motif rank can write
// "put; wait for completion; compute; next iteration" instead of a hand-
// rolled state machine.
type Process struct {
	eng   *Engine
	name  string
	label Label                   // stamped on spawn/Sleep/resume events (Tagged.Spawn)
	next  func() (struct{}, bool) // engine -> process: run until the next park
	yield func(struct{}) bool     // process -> engine: park
	// wake is p.resume bound once at spawn: every spawn, Sleep and Wait
	// schedules or registers this one func value instead of a fresh
	// closure, so a process switch allocates nothing.
	wake func()
	done bool
	err  any // panic value captured from the body, re-raised on the engine
}

// Spawn starts a new process executing body at the current simulated time.
// The body begins running when the engine reaches the spawn event; Spawn
// itself returns immediately.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	return e.spawn(name, NoLabel, body)
}

func (e *Engine) spawn(name string, label Label, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name, label: label}
	p.wake = p.resume
	e.procs++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				p.err = r
			}
		}()
		body(p)
	})
	e.schedule(0, 0, label, p.wake)
	return p
}

// resume runs the process body until it parks again (or finishes). It must
// only be called from the engine's side, i.e. from inside an event.
func (p *Process) resume() {
	if p.done {
		return
	}
	if _, running := p.next(); running {
		return
	}
	p.done = true
	p.eng.procs--
	if p.err != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.err))
	}
}

// park suspends the process and returns control to the engine. The caller
// must have arranged for a future event to call resume.
func (p *Process) park() { p.yield(struct{}{}) }

// Name returns the name given at Spawn time, for diagnostics.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.Now() }

// Sleep suspends the process for d simulated time.
//
//rvmalint:hot
func (p *Process) Sleep(d Time) {
	p.eng.schedule(d, 0, p.label, p.wake)
	p.park()
}

// Wait suspends the process until the future completes. If the future is
// already complete it returns immediately without yielding.
//
//rvmalint:hot
func (p *Process) Wait(f *Future) {
	if f.Done() {
		return
	}
	f.OnComplete(p.wake)
	p.park()
}

// WaitAll suspends the process until every future completes.
func (p *Process) WaitAll(fs ...*Future) {
	for _, f := range fs {
		p.Wait(f)
	}
}

// Future is a one-shot completion handle: it transitions from pending to
// done exactly once and then invokes every registered callback, at the
// simulated time of completion. Futures are how the NIC models hand
// asynchronous completions (DMA done, message delivered, threshold reached)
// back to host-side code.
type Future struct {
	done  bool
	at    Time
	value any
	// first is the first registered callback, held inline because almost
	// every future has exactly one (a waiting process's resume); later
	// callbacks go to more, in registration order.
	first func()
	more  []func()
}

// NewFuture returns a pending future.
func NewFuture() *Future { return &Future{} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Value returns the value passed to Complete, or nil while pending.
func (f *Future) Value() any { return f.value }

// CompletedAt returns the simulated time Complete was called. It is only
// meaningful once Done reports true.
func (f *Future) CompletedAt() Time { return f.at }

// Complete marks the future done with the given value and runs callbacks
// synchronously (in registration order) at the current simulated time.
// Completing an already-complete future panics: completions in the models
// represent unique hardware events.
//
//rvmalint:hot
func (f *Future) Complete(e *Engine, value any) {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.value = value
	f.at = e.Now()
	first, more := f.first, f.more
	f.first, f.more = nil, nil
	if first != nil {
		first()
	}
	for _, cb := range more {
		cb()
	}
}

// OnComplete registers a callback to run when the future completes. If the
// future is already done the callback runs immediately.
//
//rvmalint:hot
func (f *Future) OnComplete(cb func()) {
	if f.done {
		cb()
		return
	}
	if f.first == nil {
		f.first = cb
		return
	}
	//rvmalint:allow hotalloc -- overflow only: a future's first callback is held inline, and futures with a second waiter are rare
	f.more = append(f.more, cb)
}

// Gate is a counting barrier: it opens (completing its future) when Arrive
// has been called count times. Motifs use gates to wait for "all neighbor
// messages of this wavefront step".
type Gate struct {
	remaining int
	f         *Future
}

// NewGate returns a gate expecting count arrivals. A gate with count <= 0
// is already open.
func NewGate(e *Engine, count int) *Gate {
	g := &Gate{remaining: count, f: NewFuture()}
	if count <= 0 {
		g.f.Complete(e, nil)
	}
	return g
}

// Arrive records one arrival; the count-th arrival opens the gate.
func (g *Gate) Arrive(e *Engine) {
	if g.remaining <= 0 {
		panic("sim: Gate.Arrive after gate opened")
	}
	g.remaining--
	if g.remaining == 0 {
		g.f.Complete(e, nil)
	}
}

// Future returns the future that completes when the gate opens.
func (g *Gate) Future() *Future { return g.f }
