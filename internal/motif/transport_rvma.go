package motif

import (
	"fmt"

	"rvma/internal/recovery"
	"rvma/internal/rvma"
	"rvma/internal/sim"
)

// rvmaTransport maps each in-neighbor to one mailbox (virtual address =
// the sender's rank), configured as an EPOCH_OPS window with threshold 1:
// the number of operations per message is known a priori (exactly one),
// which is the case the paper's Sweep3D analysis highlights — "the number
// of expected incoming operations is known a priori" (§V-B1).
//
// The transport keeps `depth` buffers posted per mailbox and reposts on
// every completion, which is precisely the pattern RVMA_Win_get_epoch is
// designed for ("system software may want to guarantee that a constant
// number of buffers are always posted", §III-C). Reposting reuses the
// completed buffers themselves, so a mailbox owns depth + history
// buffers for the whole run. Senders never wait for anything:
// receiver-managed buffering removes all per-message coordination.
type rvmaTransport struct {
	ep    *rvma.Endpoint
	ranks int
	depth int
	// history is the endpoint's Rewind history depth: how many completed
	// buffers each window retains before one can be reposted.
	history int
	boxes   map[int]*mailboxState
	// rec, when non-nil, puts every Send under the recovery layer's
	// timeout/retransmit policy (acked puts instead of fire-and-forget)
	// and arms receiver-side window guards on Recv.
	rec *recovery.Manager
	// rng, when non-nil, supplies NACK-retry backoff from a rank-private
	// stream instead of the engine's shared stream, so the backoff sequence
	// depends only on this rank's own NACKs and survives resharding.
	rng *sim.RNG
}

// mailboxState tracks one in-neighbor's window and its consumption queue.
type mailboxState struct {
	win *rvma.Window
	// guard reclaims holed buffers past the sender's retry horizon
	// (non-nil only under recovery).
	guard *recovery.WindowGuard
	// available counts completed-but-unconsumed messages; waiters are
	// Recv futures waiting for the next completion, FIFO.
	available int
	waiters   []*sim.Future
	maxMsg    int
	// retired are the completed buffers the window may still hold in its
	// Rewind history, oldest first.
	retired []*rvma.Buffer
}

func newRVMATransport(ep *rvma.Endpoint, ranks, depth int, rec *recovery.Manager) *rvmaTransport {
	return &rvmaTransport{ep: ep, ranks: ranks, depth: depth, history: ep.Config().HistoryDepth,
		boxes: make(map[int]*mailboxState), rec: rec}
}

// Rank implements Transport.
func (t *rvmaTransport) Rank() int { return t.ep.Node() }

// Ranks implements Transport.
func (t *rvmaTransport) Ranks() int { return t.ranks }

// Prepare implements Transport: create one window per in-neighbor and
// keep `depth` buffers posted. RVMA senders need no preparation at all —
// that is the point of virtual addressing.
func (t *rvmaTransport) Prepare(inPeers, outPeers []int, maxMsg int) *sim.Future {
	f := sim.NewFuture()
	for _, src := range inPeers {
		if _, ok := t.boxes[src]; ok {
			continue
		}
		win, err := t.ep.InitWindow(rvma.VAddr(src), 1, rvma.EpochOps)
		if err != nil {
			panic(fmt.Sprintf("motif: rank %d window for src %d: %v", t.Rank(), src, err))
		}
		box := &mailboxState{win: win, maxMsg: maxMsg}
		if t.rec != nil {
			box.guard = t.rec.GuardWindow(win)
		}
		t.boxes[src] = box
		for i := 0; i < t.depth; i++ {
			t.postOne(box)
		}
		// Observe every epoch completion: repost a buffer to keep the
		// posted depth constant, then hand the message to a waiting Recv
		// (or bank it). SetCompletionHandler cannot miss back-to-back
		// completions, unlike re-arming one-shot waiters. The count is
		// read first: reposting b resets it.
		win.SetCompletionHandler(func(b *rvma.Buffer) {
			delivered := b.Count >= win.Threshold()
			t.repost(box, b)
			if !delivered {
				// A guard reclaim (IncEpoch on a holed buffer): the buffer
				// was salvaged and reposted, but no message completed, so
				// there is nothing to deliver to a Recv.
				return
			}
			if len(box.waiters) > 0 {
				w := box.waiters[0]
				n := copy(box.waiters, box.waiters[1:])
				box.waiters[n] = nil
				box.waiters = box.waiters[:n]
				w.Complete(t.ep.Engine(), nil)
			} else {
				box.available++
			}
		})
	}
	f.Complete(t.ep.Engine(), nil)
	return f
}

// postOne posts a fresh buffer to the mailbox.
func (t *rvmaTransport) postOne(box *mailboxState) {
	if _, err := box.win.PostBuffer(box.maxMsg); err != nil {
		panic(fmt.Sprintf("motif: rank %d post: %v", t.Rank(), err))
	}
}

// repost replaces the just-completed buffer b in the mailbox's queue. It
// reuses the buffer b's completion pushed out of the window's Rewind
// history (b itself when no history is kept); until the history has
// filled, nothing has left it yet and a fresh buffer is posted.
func (t *rvmaTransport) repost(box *mailboxState, b *rvma.Buffer) {
	box.retired = append(box.retired, b)
	if len(box.retired) <= t.history {
		t.postOne(box)
		return
	}
	old := box.retired[0]
	copy(box.retired, box.retired[1:])
	box.retired = box.retired[:len(box.retired)-1]
	if err := box.win.Repost(old); err != nil {
		panic(fmt.Sprintf("motif: rank %d repost: %v", t.Rank(), err))
	}
}

// Send implements Transport: a bare put to the receiver's mailbox for this
// sender's rank. No credit, no handshake, no completion message. If the
// receiver's mailbox is momentarily out of posted buffers the put is
// NACKed (§III-C) and the initiator retries after a backoff — the
// receiver stays in control of its resources, and a temporarily
// overwhelmed mailbox costs the *sender* time rather than wedging the
// receiver.
func (t *rvmaTransport) Send(dst, size int) *sim.Future {
	if t.rec != nil {
		return t.sendReliable(dst, size)
	}
	op := t.ep.PutN(dst, rvma.VAddr(t.Rank()), 0, size)
	t.retryOnNack(op, dst, size)
	return op.Local
}

// sendReliable puts the message under the recovery layer: an acked put
// whose NACKs (closed mailbox, no posted buffer) and ack timeouts both
// feed the same bounded-backoff retransmit loop. The returned future
// keeps Send's local-completion semantics — it resolves when the first
// attempt leaves the NIC, not at the ack.
func (t *rvmaTransport) sendReliable(dst, size int) *sim.Future {
	eng := t.ep.Engine()
	local := sim.NewFuture()
	var rp *rvma.ReliablePut
	t.rec.Run(func(try int) recovery.Attempt {
		var at *rvma.PutAttempt
		if try == 0 {
			rp, at = t.ep.PutNAcked(dst, rvma.VAddr(t.Rank()), 0, size)
			at.Local.OnComplete(func() {
				if !local.Done() {
					local.Complete(eng, nil)
				}
			})
		} else {
			at = t.ep.Retransmit(rp)
		}
		return recovery.Attempt{Acked: at.Acked, Nack: at.Nack}
	}, func() { t.ep.AbandonPut(rp) })
	return local
}

// retryOnNack arms a single retry for a NACKed put; retries rearm.
func (t *rvmaTransport) retryOnNack(op *rvma.PutOp, dst, size int) {
	op.Nack.OnComplete(func() {
		eng := t.ep.Engine().Tag("motif")
		rng := t.rng
		if rng == nil {
			rng = eng.RNG()
		}
		backoff := rng.Jitter(2*sim.Microsecond, 0.5)
		eng.Schedule(backoff, func() {
			retry := t.ep.PutN(dst, rvma.VAddr(t.Rank()), 0, size)
			t.retryOnNack(retry, dst, size)
		})
	})
}

// Recv implements Transport: consume the next completed epoch on the
// mailbox for src. The completion was observed by the host through the
// buffer's completion pointer (the NextCompletion future resolves at the
// NIC's cell write); consuming an already-banked completion is free.
func (t *rvmaTransport) Recv(src, size int) *sim.Future {
	box := t.boxes[src]
	if box == nil {
		panic(fmt.Sprintf("motif: rank %d Recv from unprepared src %d", t.Rank(), src))
	}
	if size > box.maxMsg {
		panic(fmt.Sprintf("motif: rank %d Recv size %d exceeds prepared max %d", t.Rank(), size, box.maxMsg))
	}
	if box.guard != nil {
		// Every expected message arms one reclaim deadline for the epoch
		// open right now; epochs that complete in time make it a no-op.
		box.guard.Expect()
	}
	f := sim.NewFuture()
	if box.available > 0 {
		box.available--
		f.Complete(t.ep.Engine(), nil)
		return f
	}
	box.waiters = append(box.waiters, f)
	return f
}
