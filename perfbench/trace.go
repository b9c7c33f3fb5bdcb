package main

import (
	"time"

	"rvma/internal/ledger"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/sim"
)

// heartbeatEvery is how often, in executed events, the traced run samples
// the engine's pending-event count.
const heartbeatEvery = 256

// tracer is everything a traced run attaches from outside the model: the
// ledger's per-label host-time profiler, a heartbeat sampler of queue
// depth, and timing wrappers around every rank's transport. It
// accumulates across the cells of one traced pass.
type tracer struct {
	rec   *ledger.Recorder
	canon *ledger.CanonicalRecorder

	labelEvents map[string]uint64
	labelHostNS map[string]int64
	pending     []int

	sends, recvs   uint64
	sendNS, recvNS int64
	recvWait       metrics.Histogram // sim time from Recv to completion
}

func newTracer() *tracer {
	return &tracer{labelEvents: map[string]uint64{}, labelHostNS: map[string]int64{}}
}

// attach arms the recorder and wraps every transport of a freshly built
// cluster. Call before the motif runs.
func (t *tracer) attach(c *motif.Cluster, cellRecvs *uint64) {
	if c.Group != nil {
		t.canon = ledger.NewCanonicalRecorder(ledger.Options{Profile: true})
		t.canon.AttachGroup(c.Group)
	} else {
		t.rec = ledger.NewRecorder(ledger.Options{Profile: true})
		t.rec.Attach(c.Eng)
	}
	for rank, tp := range c.Transports {
		c.Transports[rank] = &timedTransport{Transport: tp, eng: c.TagFor(rank).Engine, t: t, cellRecvs: cellRecvs}
	}
}

// armHeartbeat turns e's heartbeat into the pending-depth sampler.
func (t *tracer) armHeartbeat(e *sim.Engine) {
	e.SetHeartbeat(heartbeatEvery, func() { t.pending = append(t.pending, e.Pending()) })
}

// detach folds the cell's host-time profile into the pass totals and
// returns the cell's ledger chain head.
func (t *tracer) detach() string {
	var (
		l    *ledger.Ledger
		prof *ledger.ProfileReport
	)
	switch {
	case t.rec != nil:
		l, prof = t.rec.Finalize(), t.rec.Profile()
	case t.canon != nil:
		l, prof = t.canon.Finalize(), t.canon.Profile()
	default:
		return ""
	}
	t.rec, t.canon = nil, nil
	for _, e := range prof.Components {
		t.labelEvents[e.Label] += e.Events
		t.labelHostNS[e.Label] += e.HostNS
	}
	return l.ChainHead
}

// timedTransport times the synchronous part of Send and Recv on the host
// clock and the Recv-to-completion wait on the simulated clock. The
// completion callback only reads the clock, so the model's event stream
// is unchanged.
type timedTransport struct {
	motif.Transport
	eng       *sim.Engine
	t         *tracer
	cellRecvs *uint64
}

func (w *timedTransport) Send(dst, size int) *sim.Future {
	start := time.Now()
	f := w.Transport.Send(dst, size)
	w.t.sendNS += time.Since(start).Nanoseconds()
	w.t.sends++
	return f
}

func (w *timedTransport) Recv(src, size int) *sim.Future {
	issued := w.eng.Now()
	start := time.Now()
	f := w.Transport.Recv(src, size)
	w.t.recvNS += time.Since(start).Nanoseconds()
	w.t.recvs++
	*w.cellRecvs++
	wait := &w.t.recvWait
	f.OnComplete(func() { wait.ObserveTime(f.CompletedAt() - issued) })
	return f
}
