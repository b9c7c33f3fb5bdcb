package rdma

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/sim"
)

// RegOp tracks a buffer-negotiation handshake (Figure 1, steps 1-3).
type RegOp struct {
	// Done resolves with the RemoteBuffer once the target has allocated,
	// registered, and replied.
	Done *sim.Future
}

// RequestRemoteBuffer performs the RDMA setup handshake the paper's
// Figure 1 describes: ask dst for a buffer of the given size; the target
// allocates and registers it (paying registration cost) and replies with
// the (address, length, key) the initiator must retain. This round trip —
// absent in RVMA — is the setup cost Figure 6 amortizes.
func (ep *Endpoint) RequestRemoteBuffer(dst, size int) *RegOp {
	if size <= 0 {
		panic(fmt.Sprintf("rdma: remote buffer size %d", size))
	}
	op := &RegOp{Done: sim.NewFuture()}
	msgID := ep.nextMsgID
	ep.nextMsgID++
	ep.pendingRegs[msgID] = op

	eng := ep.eng
	if ep.mHandshake != nil {
		start := eng.Now()
		op.Done.OnComplete(func() { ep.mHandshake.ObserveTime(eng.Now() - start) })
	}
	eng.Schedule(ep.nic.Profile().HostPostOverhead, func() {
		ep.nic.SendMessage(dst, 0, &command{op: opRegRequest, msgID: msgID, size: size}, nil)
	})
	return op
}

// PutOp tracks one initiated RDMA put.
type PutOp struct {
	// Local resolves when the last data packet (and the trailing fence
	// send, if any) has been handed to the fabric.
	Local *sim.Future
}

// Put writes data into the remote buffer at offset using the given
// target-side completion scheme. With CompleteSendRecv a 1-byte send is
// issued immediately after the put on the same (ordered) flow, which is
// what the paper's modified perftest does to be specification-compliant
// on adaptively routed networks (§V-A1).
func (ep *Endpoint) Put(rb RemoteBuffer, offset int, data []byte, scheme CompletionScheme) *PutOp {
	return ep.put(rb, offset, len(data), data, scheme)
}

// PutN is Put without payload bytes (timing-only, for motif scale).
func (ep *Endpoint) PutN(rb RemoteBuffer, offset, size int, scheme CompletionScheme) *PutOp {
	return ep.put(rb, offset, size, nil, scheme)
}

func (ep *Endpoint) put(rb RemoteBuffer, offset, size int, data []byte, scheme CompletionScheme) *PutOp {
	if offset < 0 || size < 0 || offset+size > rb.Size {
		panic(fmt.Sprintf("rdma: put [%d,%d) exceeds remote buffer of %d", offset, offset+size, rb.Size))
	}
	ep.Stats.PutsInitiated++
	op := &PutOp{Local: sim.NewFuture()}
	msgID := ep.nextMsgID
	ep.nextMsgID++

	eng := ep.eng
	prof := ep.nic.Profile()
	sp := ep.reg.BeginSpan(eng.Now(), metrics.SpanKey{Node: ep.Node(), ID: msgID}, "rdma.put", ep.Node())
	eng.Schedule(prof.HostPostOverhead, func() {
		sp.Stage(eng.Now(), "host_post")
		txWait := ep.nic.SendBacklog() + ep.nic.DMABacklog()
		wantAck := scheme == CompleteSendRecv && !ep.cfg.PipelinedFence
		cmd := &command{op: opPutData, msgID: msgID, rkey: rb.RKey, msgOffset: offset, total: size, wantAck: wantAck}
		if ep.cfg.CarryData {
			cmd.data = data
		}
		ep.nic.SendMessage(rb.Node, size, cmd, func() {
			sp.StageWait(eng.Now(), "nic_tx", txWait)
			if scheme != CompleteSendRecv {
				op.Local.Complete(eng.Engine, nil)
			}
		})
		ep.sentBytes[rb.Node] += uint64(size)
		if scheme != CompleteSendRecv {
			return
		}
		fence := ep.sentBytes[rb.Node]
		postFenceSend := func() {
			sendID := ep.nextMsgID
			ep.nextMsgID++
			ep.nic.SendMessage(rb.Node, 1, &command{op: opSend, msgID: sendID, qp: FenceQP, total: 1, fenceBytes: fence}, func() {
				op.Local.Complete(eng.Engine, nil)
			})
		}
		if ep.cfg.PipelinedFence {
			// Aggressive runtime: post the send right behind the data (one
			// extra post) and let the target's transport hold it until the
			// put's bytes have all landed.
			eng.Schedule(prof.HostPostOverhead, postFenceSend)
			return
		}
		// Conservative (perftest-style) sequence on an unordered network:
		// reap the write's local completion — which for a reliable
		// transport means the responder's ACK has returned — and only then
		// post the 1-byte send. That is: ACK round trip + CQ poll + a
		// second post, all on the critical path.
		ep.pendingAcks[msgID] = func() {
			eng.Schedule(prof.PollInterval+prof.CQProcessOverhead+prof.HostPostOverhead, postFenceSend)
		}
	})
	return op
}

// PutWithImmediate is the special small-payload command that generates a
// target-side completion event directly (§I): a single-packet write that
// consumes a posted receive at the target. Payloads above MaxImmediate
// are rejected, matching the hardware limitation the paper describes.
func (ep *Endpoint) PutWithImmediate(rb RemoteBuffer, offset int, data []byte) (*PutOp, error) {
	size := len(data)
	if size > MaxImmediate {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, size, MaxImmediate)
	}
	if offset < 0 || offset+size > rb.Size {
		return nil, fmt.Errorf("%w: [%d,%d) in %d", ErrOutOfBounds, offset, offset+size, rb.Size)
	}
	ep.Stats.PutsInitiated++
	op := &PutOp{Local: sim.NewFuture()}
	msgID := ep.nextMsgID
	ep.nextMsgID++
	eng := ep.eng
	eng.Schedule(ep.nic.Profile().HostPostOverhead, func() {
		var chunk []byte
		if ep.cfg.CarryData {
			chunk = data
		}
		cmd := &command{
			op:        opPutData,
			msgID:     msgID,
			rkey:      rb.RKey,
			msgOffset: offset,
			total:     size,
			data:      chunk,
			imm:       &immediateInfo{rkey: rb.RKey},
		}
		ep.nic.SendMessage(rb.Node, size, cmd, func() { op.Local.Complete(eng.Engine, nil) })
		ep.sentBytes[rb.Node] += uint64(size)
	})
	return op, nil
}

// SendOp tracks a two-sided send.
type SendOp struct {
	Local *sim.Future
}

// Send issues a two-sided message of the given size to dst on the given
// QP index, consuming a posted receive there. Sends on the fence QP obey
// the fence rule: they are delivered only after all previously issued put
// bytes to that destination have landed (per-QP operation ordering).
// Control QPs (qp != FenceQP) carry no fence.
func (ep *Endpoint) Send(dst, qp, size int) *SendOp {
	op := &SendOp{Local: sim.NewFuture()}
	msgID := ep.nextMsgID
	ep.nextMsgID++
	eng := ep.eng
	eng.Schedule(ep.nic.Profile().HostPostOverhead, func() {
		var fence uint64
		if qp == FenceQP {
			fence = ep.sentBytes[dst]
		}
		ep.nic.SendMessage(dst, size, &command{op: opSend, msgID: msgID, qp: qp, total: size, fenceBytes: fence}, func() {
			op.Local.Complete(eng.Engine, nil)
		})
	})
	return op
}

// RecvOp tracks a posted receive. Done resolves (with the send's size)
// after the matching send is deliverable (fence satisfied), a CQ entry is
// generated, and host software reaps it at its polling cadence.
type RecvOp struct {
	Done *sim.Future
}

// PostRecv posts a receive for sends arriving from src on the given QP
// index; sends and receives match in FIFO order per queue pair.
func (ep *Endpoint) PostRecv(src, qp int) *RecvOp {
	op := &RecvOp{Done: sim.NewFuture()}
	k := qpKey{src: src, qp: qp}
	ep.recvQueues[k] = append(ep.recvQueues[k], op)
	ep.matchSends(k)
	return op
}

// byteWait is a cumulative-byte poll used by applications that reuse one
// registered buffer for a stream of transfers: "poll the last byte of the
// n-th message", expressed as "wait until target cumulative put bytes from
// src have landed". Like last-byte polling it is only sound when the
// network preserves byte order (static routing).
type byteWait struct {
	src    int
	target uint64
	done   *sim.Future
}

// WaitBytes returns a future that resolves (after a poll tick and host
// processing) once the cumulative put payload bytes received from src
// reach target. If they already have, it resolves after one poll tick.
func (ep *Endpoint) WaitBytes(src int, target uint64) *sim.Future {
	f := sim.NewFuture()
	w := &byteWait{src: src, target: target, done: f}
	eng := ep.eng
	prof := ep.nic.Profile()
	if ep.recvBytes[src] >= target {
		eng.Schedule(prof.PollInterval+prof.HostCompletionOverhead, func() {
			f.Complete(eng.Engine, nil)
		})
		return f
	}
	ep.byteWaits = append(ep.byteWaits, w)
	return f
}

// LastByteWait is target software polling the final byte of an expected
// transfer (the "cheat" completion valid only under static routing).
type LastByteWait struct {
	// Done resolves when the poll observes the last byte written. Its
	// value is a bool: whether the full span had actually arrived at that
	// moment. On byte-ordered networks it is always true; under adaptive
	// routing it can be false — the premature-completion data corruption
	// the paper warns about (§II, §IV-D).
	Done *sim.Future

	mr     *MemoryRegion
	length int
	fired  bool
}

// WaitLastByte arms a last-byte poll on mr for a transfer expected to fill
// length bytes from the region's start.
func (ep *Endpoint) WaitLastByte(mr *MemoryRegion, length int) *LastByteWait {
	if length <= 0 || length > mr.Region.Size() {
		panic(fmt.Sprintf("rdma: last-byte wait length %d in region %d", length, mr.Region.Size()))
	}
	w := &LastByteWait{Done: sim.NewFuture(), mr: mr, length: length}
	ep.lastByteWaits = append(ep.lastByteWaits, w)
	return w
}

// ReadOp tracks an RDMA read.
type ReadOp struct {
	// Done resolves with the fetched bytes (CarryData mode) when the full
	// reply has landed locally.
	Done *sim.Future
}

// Read fetches size bytes at offset from the remote buffer (RDMA read /
// get). Reads are initiator-completed: the paper notes RDMA gets don't
// help the target-side notification problem, but the verb exists and the
// baseline models it.
func (ep *Endpoint) Read(rb RemoteBuffer, offset, size int) *ReadOp {
	if offset < 0 || size <= 0 || offset+size > rb.Size {
		panic(fmt.Sprintf("rdma: read [%d,%d) exceeds remote buffer of %d", offset, offset+size, rb.Size))
	}
	op := &ReadOp{Done: sim.NewFuture()}
	msgID := ep.nextMsgID
	ep.nextMsgID++
	ep.pendingReads[msgID] = op
	eng := ep.eng
	eng.Schedule(ep.nic.Profile().HostPostOverhead, func() {
		ep.nic.SendMessage(rb.Node, 0, &command{op: opReadReq, msgID: msgID, rkey: rb.RKey, msgOffset: offset, size: size}, nil)
	})
	return op
}
