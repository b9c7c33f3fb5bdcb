package rvma

import (
	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// handlePacket is the NIC-side receive path (Figure 3 of the paper): the
// nic layer has already charged per-packet receive processing and the
// single LUT lookup; this function performs translation, DMA placement,
// counter update and the completion check.
func (ep *Endpoint) handlePacket(pkt *fabric.Packet) {
	cmd, ok := pkt.Payload.(*command)
	if !ok {
		panic("rvma: foreign payload on RVMA endpoint")
	}
	switch cmd.op {
	case opPut:
		ep.handlePut(pkt, cmd)
	case opNack:
		ep.handleNack(cmd)
	case opGetReq:
		ep.handleGetReq(pkt, cmd)
	case opGetReply:
		ep.handleGetReply(pkt, cmd)
	case opAck:
		ep.handleAck(cmd)
	default:
		panic("rvma: unknown opcode")
	}
	if sim.DebugEnabled {
		ep.debugCheckEndpoint()
	}
}

// handlePut places one put packet. Steps follow Figure 3: (2) address
// translation via the LUT, (3-4) DMA of the payload into the active
// buffer at head+offset, then the completion check: bump the counter and,
// at threshold, (5) write the completion pointer and rotate the buffer.
func (ep *Endpoint) handlePut(pkt *fabric.Packet, cmd *command) {
	if sim.DebugEnabled {
		ep.dbg.putBytesArrived += uint64(pkt.Size)
	}
	w := ep.lut[cmd.vaddr]
	if w == nil || w.closed {
		if ep.catchAll != nil && !ep.catchAll.closed {
			ep.Stats.CatchAllHits++
			w = ep.catchAll
		} else {
			if sim.DebugEnabled {
				ep.dbg.putBytesDropped += uint64(pkt.Size)
			}
			ep.reject(pkt.Src, cmd, ErrNoWindow)
			return
		}
	}
	buf := w.Head()
	if buf == nil {
		if sim.DebugEnabled {
			ep.dbg.putBytesDropped += uint64(pkt.Size)
		}
		ep.reject(pkt.Src, cmd, ErrNoBuffer)
		return
	}

	size := pkt.Size
	eng := ep.eng
	key := nic.MsgKey{Src: pkt.Src, MsgID: cmd.msgID}

	// Reliable (wantAck) puts pass through the duplicate-aware assembler
	// before any placement or counting — but after every reject check, so
	// a rejected packet's bytes are never marked seen and its retransmit
	// counts fresh. Duplicates from overlapping attempts are discarded
	// here: they must not inflate counters, high-water marks or epoch-ops
	// progress, or a retransmit could falsely complete a holed buffer.
	var relDone bool
	if cmd.wantAck {
		if w.mode != Steered {
			panic("rvma: reliable put into a managed window (retransmit dedup needs offset placement)")
		}
		if cmd.msgOffset+pkt.Offset+size > buf.Region.Size() {
			if sim.DebugEnabled {
				ep.dbg.putBytesDropped += uint64(size)
			}
			ep.reject(pkt.Src, cmd, ErrNoBuffer)
			return
		}
		_, done, dup := ep.relAsm.Add(key, pkt.Offset, size, cmd.total)
		if dup {
			if sim.DebugEnabled {
				ep.dbg.putBytesDuplicate += uint64(size)
			}
			ep.Stats.DupPackets++
			if ep.relAsm.Done(key) {
				// Straggler of an already-placed message: the earlier ack
				// may itself have been lost, so re-ack.
				ep.sendAck(pkt.Src, cmd.msgID)
			}
			return
		}
		relDone = done
	}

	// Issue the payload DMA. The bus resource is FIFO, so the completion
	// write issued below (if any) is ordered after this data write, which
	// is the PCIe ordering guarantee the completion pointer relies on.
	// The steering decision, counter update and threshold check all happen
	// now, in NIC pipeline (packet-arrival) order — only the data DMA and
	// the completion-pointer write land later, in bus order. A hardware
	// completion unit works the same way: it cannot let a packet's bus
	// latency reorder its bookkeeping against the next packet's.
	busWait := ep.nic.Bus().Backlog(eng.Engine)
	dmaDone := ep.nic.Bus().TransferTime(eng.Engine, size)

	switch w.mode {
	case Steered:
		place := cmd.msgOffset + pkt.Offset
		if place+size > buf.Region.Size() {
			if sim.DebugEnabled {
				ep.dbg.putBytesDropped += uint64(size)
			}
			ep.reject(pkt.Src, cmd, ErrNoBuffer)
			return
		}
		if sim.DebugEnabled {
			ep.dbg.putBytesPlaced += uint64(size)
		}
		if ep.cfg.CarryData && cmd.data != nil {
			data := cmd.data[pkt.Offset : pkt.Offset+size]
			base := buf.Region.Base + memory.Addr(place)
			eng.At(dmaDone, func() { ep.Memory().Write(base, data) })
		}
		if end := place + size; end > buf.HighWater {
			buf.HighWater = end
		}
		if w.etype == EpochBytes {
			w.counter += int64(size)
		}

	case Managed:
		// Stream placement: append at the fill pointer, splitting the
		// packet across segment buffers when it straddles a boundary —
		// the byte-counting NIC behavior §IV-B describes for sockets
		// semantics. Completions rotate buffers mid-packet as thresholds
		// are crossed.
		remaining := size
		dataOff := pkt.Offset // offset of the unplaced rest within the message
		for remaining > 0 {
			head := w.Head()
			if head == nil {
				// Out of posted segments mid-packet: the tail is lost.
				if sim.DebugEnabled {
					ep.dbg.putBytesDropped += uint64(remaining)
				}
				ep.reject(pkt.Src, cmd, ErrNoBuffer)
				break
			}
			space := head.Region.Size() - head.Fill
			if space <= 0 {
				// A full-but-uncompleted segment means the threshold
				// exceeds the buffer size; nothing can ever complete it.
				if sim.DebugEnabled {
					ep.dbg.putBytesDropped += uint64(remaining)
				}
				ep.reject(pkt.Src, cmd, ErrNoBuffer)
				break
			}
			take := remaining
			if take > space {
				take = space
			}
			if sim.DebugEnabled {
				ep.dbg.putBytesPlaced += uint64(take)
			}
			if ep.cfg.CarryData && cmd.data != nil {
				chunk := cmd.data[dataOff : dataOff+take]
				base := head.Region.Base + memory.Addr(head.Fill)
				eng.At(dmaDone, func() { ep.Memory().Write(base, chunk) })
			}
			head.Fill += take
			if head.Fill > head.HighWater {
				head.HighWater = head.Fill
			}
			if w.etype == EpochBytes {
				w.counter += int64(take)
			}
			remaining -= take
			dataOff += take
			w.maybeComplete() // may rotate to the next segment
		}
	}

	msgDone := relDone
	if !cmd.wantAck {
		msgDone = ep.asm.Add(key, size, cmd.total)
	} else if relDone {
		ep.sendAck(pkt.Src, cmd.msgID)
	}
	if w.etype == EpochOps && msgDone {
		w.counter++
	}
	if msgDone {
		ep.Stats.PutsPlaced++
		ep.Stats.BytesPlaced += uint64(cmd.total)
		w.MessagesPlaced++
		w.BytesPlaced += uint64(cmd.total)
		// The initiator's span crosses to this node: the wire stage ends at
		// last-packet arrival, the place stage at the payload DMA; the
		// completion unit ends the span when this window's epoch completes.
		if sp := ep.reg.Span(metrics.SpanKey{Node: pkt.Src, ID: cmd.msgID}); sp != nil {
			sp.SetNode(ep.Node())
			// Wire wait is the fabric queueing the last packet accumulated;
			// place wait is the receive-bus backlog ahead of the payload DMA.
			sp.StageWait(eng.Now(), "wire", pkt.QueueWait)
			eng.At(dmaDone, func() { sp.StageWait(eng.Now(), "place", busWait) })
			w.pendingSpans = append(w.pendingSpans, sp)
		}
	}
	if !w.hwCounter {
		ep.Stats.CounterSpills++
		ep.mSpills.Add(1)
	}
	w.maybeComplete()
}

// reject drops a put/get and, when enabled, NACKs the initiator (§III-C:
// operations on closed mailboxes "are automatically discarded and may
// result in a NACK notification").
func (ep *Endpoint) reject(src int, cmd *command, reason error) {
	ep.Stats.Drops++
	ep.mDrops.Add(1)
	if reason == ErrNoBuffer {
		ep.mBufExhaust.Add(1)
	}
	if ep.tracer != nil {
		ep.tracer.Eventf(trace.CatRVMA, "node %d reject msg %d from %d: %v",
			ep.Node(), cmd.msgID, src, reason)
	}
	if !ep.cfg.NACKEnabled {
		return
	}
	ep.Stats.Nacks++
	ep.mNacks.Add(1)
	ep.nic.SendMessage(src, 0, &command{op: opNack, msgID: cmd.msgID, status: reason, length: int(cmd.op), put: cmd.put}, nil)
}

// sendAck emits the NIC-generated placement ack for a reliable put. Like
// RDMA's put-ack it rides InjectControl: no host bus crossing, just the
// send pipeline and the wire.
func (ep *Endpoint) sendAck(src int, msgID uint64) {
	ep.Stats.AcksSent++
	ep.nic.InjectControl(src, &command{op: opAck, msgID: msgID})
}

// handleAck resolves a reliable put. Duplicate acks (retransmit raced the
// first ack) find no pending operation and are ignored.
func (ep *Endpoint) handleAck(cmd *command) {
	rp, ok := ep.pendingRel[cmd.msgID]
	if !ok {
		return
	}
	delete(ep.pendingRel, cmd.msgID)
	at := rp.attempt
	if !at.Acked.Done() {
		at.Acked.Complete(ep.Engine(), nil)
	}
}

// handleNack resolves the pending operation's Nack future.
func (ep *Endpoint) handleNack(cmd *command) {
	eng := ep.eng
	if opcode(cmd.length) == opGetReq {
		if op, ok := ep.pendingGets[cmd.msgID]; ok {
			delete(ep.pendingGets, cmd.msgID)
			op.Nack.Complete(eng.Engine, cmd.status)
		}
		return
	}
	if rp, ok := ep.pendingRel[cmd.msgID]; ok {
		// Reliable puts survive NACKs: the operation stays pending (a
		// retransmit may land once the target posts a buffer); only the
		// current attempt learns of the rejection. Several packets of one
		// attempt can each draw a NACK, and a straggler NACK from an old
		// attempt can land after a retransmit started — both just re-fire
		// the recovery layer's bounded retry, so the guard is a cheap
		// Done check rather than attempt bookkeeping.
		if at := rp.attempt; !at.Nack.Done() {
			at.Nack.Complete(eng.Engine, cmd.status)
		}
		return
	}
	// An unacknowledged put: every rejected packet of a multi-packet put
	// draws a NACK, and the first one resolves the operation.
	if op := cmd.put; op != nil && !op.Nack.Done() {
		// A NACKed put never completes at the target; close its span here.
		ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: cmd.msgID}).EndNacked(eng.Now())
		op.Nack.Complete(eng.Engine, cmd.status)
	}
}

// handleGetReq serves a get: read the requested span of the active buffer
// over the bus, then stream the reply.
func (ep *Endpoint) handleGetReq(pkt *fabric.Packet, cmd *command) {
	w := ep.lut[cmd.vaddr]
	if w == nil || w.closed {
		ep.reject(pkt.Src, cmd, ErrNoWindow)
		return
	}
	buf := w.Head()
	if buf == nil || cmd.msgOffset+cmd.length > buf.Region.Size() {
		ep.reject(pkt.Src, cmd, ErrNoBuffer)
		return
	}
	ep.Stats.GetsServed++
	eng := ep.eng
	var data []byte
	if ep.cfg.CarryData {
		data = ep.Memory().Read(buf.Region.Base+memory.Addr(cmd.msgOffset), cmd.length)
	}
	// Bus read of the payload, then reply through the send pipeline.
	readDone := ep.nic.Bus().TransferTime(eng.Engine, cmd.length)
	src := pkt.Src
	getID := cmd.msgID
	length := cmd.length
	eng.At(readDone, func() {
		ep.nic.SendMessage(src, length, &command{op: opGetReply, msgID: getID, total: length, data: data}, nil)
	})
}

// handleGetReply assembles reply packets and resolves the get.
func (ep *Endpoint) handleGetReply(pkt *fabric.Packet, cmd *command) {
	op, ok := ep.pendingGets[cmd.msgID]
	if !ok {
		return // stale or duplicate
	}
	if ep.cfg.CarryData && cmd.data != nil {
		buf := ep.getBuf[cmd.msgID]
		if buf == nil {
			buf = make([]byte, cmd.total)
			ep.getBuf[cmd.msgID] = buf
		}
		copy(buf[pkt.Offset:], cmd.data[pkt.Offset:pkt.Offset+pkt.Size])
	}
	if ep.getAsm.Add(nic.MsgKey{Src: pkt.Src, MsgID: cmd.msgID}, pkt.Size, cmd.total) ||
		(cmd.total == 0) {
		eng := ep.eng
		data := ep.getBuf[cmd.msgID]
		delete(ep.getBuf, cmd.msgID)
		delete(ep.pendingGets, cmd.msgID)
		// Landing the fetched bytes in host memory costs one bus transfer.
		done := ep.nic.Bus().TransferTime(eng.Engine, cmd.total)
		eng.At(done, func() { op.Done.Complete(eng.Engine, data) })
	}
}
