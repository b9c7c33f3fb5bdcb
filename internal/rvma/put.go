package rvma

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/sim"
)

// PutOp tracks one initiated put. It is the put's only host-side state:
// the futures and the wire command live inside it, and the endpoint keeps
// no registry of unacknowledged puts, so a PutOp is garbage as soon as its
// caller and its in-flight packets drop it. A NACK finds its operation
// through the command it echoes (command.put), not through a lookup.
type PutOp struct {
	// Local completes when the initiating NIC has handed the last packet
	// to the fabric (the local buffer is reusable).
	Local *sim.Future
	// Nack completes only if the target NACKed the operation (closed or
	// unknown mailbox, buffer overrun); its value is the error. Puts to
	// healthy mailboxes never resolve Nack — RVMA puts are unacknowledged,
	// which is exactly why they need no return traffic on the critical
	// path.
	Nack *sim.Future

	local, nack sim.Future // what Local and Nack point at
	cmd         command    // the message's wire payload, shared by its packets
}

// Put initiates a transfer of data to mailbox vaddr on node dst, placing
// it at the given offset within the target's active buffer (the paper's
// RVMA_Put; the offset is the mechanism that makes placement independent
// of packet arrival order, §IV-D). No handshake precedes the put: the
// initiator needs only (node, vaddr), never a physical address.
//
// Host software overhead (one post) is charged before the NIC pipeline.
func (ep *Endpoint) Put(dst int, vaddr VAddr, offset int, data []byte) *PutOp {
	return ep.put(dst, vaddr, offset, len(data), data)
}

// PutN is Put without payload bytes: only sizes and timing flow through
// the simulation. Large-scale motif runs use it to avoid materializing
// gigabytes of payload.
func (ep *Endpoint) PutN(dst int, vaddr VAddr, offset, size int) *PutOp {
	return ep.put(dst, vaddr, offset, size, nil)
}

func (ep *Endpoint) put(dst int, vaddr VAddr, offset, size int, data []byte) *PutOp {
	if size < 0 || offset < 0 {
		panic(fmt.Sprintf("rvma: put with negative size %d or offset %d", size, offset))
	}
	ep.Stats.PutsInitiated++
	op := &PutOp{}
	op.Local, op.Nack = &op.local, &op.nack
	op.cmd = command{op: opPut, msgID: ep.nextMsgID, vaddr: vaddr, msgOffset: offset, total: size, put: op}
	if ep.cfg.CarryData {
		op.cmd.data = data
	}
	ep.nextMsgID++

	eng := ep.eng
	sp := ep.reg.BeginSpan(eng.Now(), metrics.SpanKey{Node: ep.Node(), ID: op.cmd.msgID}, "rvma.put", ep.Node())
	post := ep.nic.Profile().HostPostOverhead
	eng.Schedule(post, func() {
		sp.Stage(eng.Now(), "host_post")
		// NIC queue depth at post time: the part of the nic_tx stage the
		// message spends behind earlier sends rather than being pipelined.
		txWait := ep.nic.SendBacklog() + ep.nic.DMABacklog()
		ep.nic.SendMessage(dst, size, &op.cmd, func() {
			sp.StageWait(eng.Now(), "nic_tx", txWait)
			op.Local.Complete(eng.Engine, nil)
		})
	})
	return op
}

// ReliablePut tracks a put whose target acknowledges full placement — the
// sender-side handle the recovery layer drives. The wire protocol is the
// ordinary unacknowledged put plus one NIC-generated ack control packet
// on full reassembly, so the data path the paper argues for is unchanged;
// only senders that opt into timeout/retransmit pay for return traffic.
type ReliablePut struct {
	dst    int
	vaddr  VAddr
	offset int
	size   int
	msgID  uint64

	attempt *PutAttempt
}

// MsgID returns the operation's wire message id (stable across attempts:
// retransmits reuse it so the target can deduplicate packets).
func (rp *ReliablePut) MsgID() uint64 { return rp.msgID }

// PutAttempt is one wire attempt of a reliable put. Each attempt gets
// fresh futures because futures are one-shot and every attempt can fail
// independently.
type PutAttempt struct {
	// Local completes when the initiating NIC has handed the attempt's
	// last packet to the fabric.
	Local *sim.Future
	// Acked completes when the target acknowledged full placement of the
	// message (any attempt's packets may have contributed).
	Acked *sim.Future
	// Nack completes if the target rejected a packet of this operation;
	// its value is the error.
	Nack *sim.Future
}

// PutNAcked initiates a reliable put (no payload bytes, like PutN) and
// returns the operation handle plus its first attempt. The target window
// must be Steered: offset-carrying packets are what make retransmitted
// duplicates exact re-hits the receiver can discard.
func (ep *Endpoint) PutNAcked(dst int, vaddr VAddr, offset, size int) (*ReliablePut, *PutAttempt) {
	if size < 0 || offset < 0 {
		panic(fmt.Sprintf("rvma: put with negative size %d or offset %d", size, offset))
	}
	rp := &ReliablePut{dst: dst, vaddr: vaddr, offset: offset, size: size, msgID: ep.nextMsgID}
	ep.nextMsgID++
	ep.pendingRel[rp.msgID] = rp
	sp := ep.reg.BeginSpan(ep.Engine().Now(), metrics.SpanKey{Node: ep.Node(), ID: rp.msgID}, "rvma.put", ep.Node())
	return rp, ep.sendAttempt(rp, sp)
}

// Retransmit re-sends a reliable put that has neither been acked nor
// abandoned, reusing the message id so the target deduplicates against
// packets of earlier attempts, and returns the fresh attempt. The attempt
// rides the message's existing span with an incremented attempt tag — no
// orphan spans — unless the span already ended (the target completed it
// off an earlier attempt whose ack is still in flight), in which case the
// attempt is unrecorded by design.
func (ep *Endpoint) Retransmit(rp *ReliablePut) *PutAttempt {
	if _, ok := ep.pendingRel[rp.msgID]; !ok {
		panic(fmt.Sprintf("rvma: retransmit of msg %d that is not pending", rp.msgID))
	}
	sp := ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: rp.msgID})
	sp.NextAttempt(ep.Engine().Now())
	return ep.sendAttempt(rp, sp)
}

// AbandonPut drops a reliable put the recovery layer has given up on, so
// a straggler ack cannot resolve a retired operation. The message's span
// (if still open) closes with status "abandoned" instead of leaking.
func (ep *Endpoint) AbandonPut(rp *ReliablePut) {
	delete(ep.pendingRel, rp.msgID)
	ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: rp.msgID}).EndAbandoned(ep.Engine().Now())
}

// sendAttempt issues one wire attempt of rp. The first attempt opens the
// message span; retransmits ride the existing one.
func (ep *Endpoint) sendAttempt(rp *ReliablePut, sp *metrics.Span) *PutAttempt {
	ep.Stats.PutsInitiated++
	at := &PutAttempt{Local: sim.NewFuture(), Acked: sim.NewFuture(), Nack: sim.NewFuture()}
	rp.attempt = at

	eng := ep.eng
	post := ep.nic.Profile().HostPostOverhead
	eng.Schedule(post, func() {
		sp.Stage(eng.Now(), "host_post")
		txWait := ep.nic.SendBacklog() + ep.nic.DMABacklog()
		cmd := &command{
			op:        opPut,
			msgID:     rp.msgID,
			vaddr:     rp.vaddr,
			msgOffset: rp.offset,
			total:     rp.size,
			wantAck:   true,
		}
		ep.nic.SendMessage(rp.dst, rp.size, cmd, func() {
			sp.StageWait(eng.Now(), "nic_tx", txWait)
			at.Local.Complete(eng.Engine, nil)
		})
	})
	return at
}

// GetOp tracks one initiated get.
type GetOp struct {
	// Done completes when the full reply has arrived; in CarryData mode
	// its value is the fetched []byte.
	Done *sim.Future
	// Nack completes if the target refused the get.
	Nack *sim.Future

	getID uint64
}

// Get fetches length bytes at offset from the *active* buffer of mailbox
// vaddr on node dst. The paper names get/read as part of a comprehensive
// RVMA specification (§III-C); like Put it needs no pre-negotiated
// physical address. The target NIC reads the region over its bus and
// streams a (possibly multi-packet) reply.
func (ep *Endpoint) Get(dst int, vaddr VAddr, offset, length int) *GetOp {
	if length <= 0 || offset < 0 {
		panic(fmt.Sprintf("rvma: get with length %d offset %d", length, offset))
	}
	op := &GetOp{Done: sim.NewFuture(), Nack: sim.NewFuture(), getID: ep.nextMsgID}
	ep.nextMsgID++
	ep.pendingGets[op.getID] = op

	eng := ep.eng
	post := ep.nic.Profile().HostPostOverhead
	eng.Schedule(post, func() {
		ep.nic.SendMessage(dst, 0, &command{
			op:        opGetReq,
			msgID:     op.getID,
			vaddr:     vaddr,
			msgOffset: offset,
			length:    length,
		}, nil)
	})
	return op
}
