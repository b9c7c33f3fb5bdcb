// Package nic provides the NIC machinery shared by the RVMA and RDMA
// models: a timed send pipeline (doorbell, payload DMA, per-packet
// processing, injection), a timed receive pipeline, message segmentation
// and reassembly, and the timing profile abstraction the experiments
// parameterize ("verbs"-like and "ucx"-like host interfaces in the paper's
// Figures 4 and 5).
//
// Both protocol models sit on identical plumbing, which is the paper's
// methodological point: "The new RVMA and RDMA models ... both use the
// identical timing for non-RDMA related traffic considerations" (§V-B).
// Only the protocol state machines above this package differ.
package nic

import (
	"fmt"

	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// Profile holds host-software and NIC-pipeline timing parameters. The
// microbenchmark host interfaces (Verbs, UCX) are Profiles; the motif
// transports reuse them.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// HostPostOverhead is the host CPU cost to build and post one work
	// request (ibv_post_send / ucp_put_nbx and friends).
	HostPostOverhead sim.Time
	// HostCompletionOverhead is the host CPU cost to observe and act on a
	// lightweight completion: a known memory location changing (RVMA's
	// completion pointer, RDMA's last-byte poll).
	HostCompletionOverhead sim.Time
	// CQProcessOverhead is the host CPU cost to reap one entry from a
	// shared completion queue through the runtime (CQ poll hit, entry
	// decode, tag match / callback dispatch). The paper's §IV-C argues
	// this path is inherently heavier than a per-buffer completion
	// pointer; UCX's progress engine makes it heavier still.
	CQProcessOverhead sim.Time
	// SendPacketProc is NIC per-packet send-side processing.
	SendPacketProc sim.Time
	// RecvPacketProc is NIC per-packet receive-side processing.
	RecvPacketProc sim.Time
	// LookupLatency is the receive-side steering lookup: the RVMA mailbox
	// LUT or the RDMA MR/QP validation. The paper argues both are small and
	// comparable (§IV-A); they default equal so neither model is favored.
	LookupLatency sim.Time
	// PollInterval is the host's completion polling cadence.
	PollInterval sim.Time
	// MWaitWake is the wake-from-MWait latency when a watched line is
	// written ("as little as one clock cycle", §IV-C).
	MWaitWake sim.Time
	// RegistrationBase is the fixed host cost of registering a memory
	// region (ibv_reg_mr syscall and setup).
	RegistrationBase sim.Time
	// RegistrationPerPage is the added pinning cost per 4 KiB page.
	RegistrationPerPage sim.Time
	// DoorbellBytes is the size of the MMIO doorbell write.
	DoorbellBytes int
}

// DefaultProfile returns a generic high-performance NIC profile used by
// tests; the experiment profiles live in package hostif.
func DefaultProfile() Profile {
	return Profile{
		Name:                   "default",
		HostPostOverhead:       100 * sim.Nanosecond,
		HostCompletionOverhead: 75 * sim.Nanosecond,
		CQProcessOverhead:      150 * sim.Nanosecond,
		SendPacketProc:         40 * sim.Nanosecond,
		RecvPacketProc:         40 * sim.Nanosecond,
		LookupLatency:          25 * sim.Nanosecond,
		PollInterval:           20 * sim.Nanosecond,
		MWaitWake:              5 * sim.Nanosecond,
		RegistrationBase:       900 * sim.Nanosecond,
		RegistrationPerPage:    15 * sim.Nanosecond,
		DoorbellBytes:          8,
	}
}

// RegistrationTime returns the modeled cost of registering size bytes.
func (p Profile) RegistrationTime(size int) sim.Time {
	pages := (size + 4095) / 4096
	return p.RegistrationBase + sim.Scale(pages, p.RegistrationPerPage)
}

// Handler consumes a protocol packet payload on the receive side, after the
// NIC receive pipeline has accounted its processing time. The packet is
// only valid until the handler returns: the NIC then frees it to the
// fabric's pool, so a handler copies out the scalars it needs and keeps no
// reference to the packet. The payload is the sender's per-message command
// and must not be mutated.
type Handler func(pkt *fabric.Packet)

// NIC is one node's network interface: bus, pipelines and dispatch.
type NIC struct {
	node int
	eng  sim.Tagged
	net  *fabric.Network
	mem  *memory.Memory
	bus  *pcie.Bus
	prof Profile

	sendPipe *sim.Resource
	recvPipe *sim.Resource
	handler  Handler

	// injectFn and dispatchFn are the packet steps this NIC schedules,
	// bound once so the per-packet path allocates nothing.
	injectFn   func(*fabric.Packet)
	dispatchFn func(*fabric.Packet)

	tracer *trace.Tracer

	// Metric handles (nil when no registry is attached).
	mMsgs     *metrics.Counter
	mPkts     *metrics.Counter
	mBytes    *metrics.Counter
	mCtrlPkts *metrics.Counter

	// Stats.
	MessagesSent    uint64
	PacketsSent     uint64
	PacketsReceived uint64
	BytesSent       uint64
}

// New attaches a NIC to node on net, with its own memory and bus.
func New(eng *sim.Engine, net *fabric.Network, node int, busCfg pcie.Config, prof Profile) *NIC {
	n := &NIC{
		node:     node,
		eng:      eng.Tag("nic"),
		net:      net,
		mem:      memory.New(),
		bus:      pcie.New(busCfg),
		prof:     prof,
		sendPipe: sim.NewResource(fmt.Sprintf("nic%d.send", node)),
		recvPipe: sim.NewResource(fmt.Sprintf("nic%d.recv", node)),
	}
	n.injectFn = net.Inject
	n.dispatchFn = n.dispatch
	net.AttachHost(node, n.deliver)
	return n
}

// Node returns the attached node id.
func (n *NIC) Node() int { return n.node }

// Engine returns the simulation engine.
func (n *NIC) Engine() *sim.Engine { return n.eng.Engine }

// Memory returns the node's host memory.
func (n *NIC) Memory() *memory.Memory { return n.mem }

// Bus returns the node's PCIe bus model.
func (n *NIC) Bus() *pcie.Bus { return n.bus }

// Profile returns the timing profile.
func (n *NIC) Profile() Profile { return n.prof }

// Network returns the fabric this NIC injects into.
func (n *NIC) Network() *fabric.Network { return n.net }

// MTU returns the fabric's maximum payload per packet.
func (n *NIC) MTU() int { return n.net.MTU() }

// SetTracer attaches a tracer; send/receive pipeline activity goes to
// trace.CatNIC. A nil tracer detaches.
func (n *NIC) SetTracer(t *trace.Tracer) { n.tracer = t }

// SetMetrics attaches a metrics registry. Message/packet/byte counters are
// shared across every NIC on the registry; per-node pipeline occupancy is
// sampled by a collector. A nil registry detaches the counters.
func (n *NIC) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		n.mMsgs, n.mPkts, n.mBytes, n.mCtrlPkts = nil, nil, nil, nil
		return
	}
	n.mMsgs = reg.Counter("nic.messages_sent")
	n.mPkts = reg.Counter("nic.packets_sent")
	n.mBytes = reg.Counter("nic.bytes_sent")
	n.mCtrlPkts = reg.Counter("nic.control_packets_sent")
	reg.AddCollector(func() {
		reg.Gauge(fmt.Sprintf("nic%d.send_queue_ns", n.node)).Set(n.sendPipe.Backlog(n.eng.Engine).Nanoseconds())
		reg.Gauge(fmt.Sprintf("nic%d.recv_queue_ns", n.node)).Set(n.recvPipe.Backlog(n.eng.Engine).Nanoseconds())
	})
}

// SendBacklog returns how long a packet entering the send pipeline now
// would wait before processing starts (telemetry: NIC pipeline backlog).
func (n *NIC) SendBacklog() sim.Time { return n.sendPipe.Backlog(n.eng.Engine) }

// RecvBacklog returns how long a packet entering the receive pipeline now
// would wait before processing starts.
func (n *NIC) RecvBacklog() sim.Time { return n.recvPipe.Backlog(n.eng.Engine) }

// DMABacklog returns how long a DMA issued now would wait for the host
// bus data path (telemetry: in-flight DMA).
func (n *NIC) DMABacklog() sim.Time { return n.bus.Backlog(n.eng.Engine) }

// SetHandler installs the protocol's receive dispatch. Exactly one protocol
// owns a NIC.
func (n *NIC) SetHandler(h Handler) {
	if n.handler != nil {
		panic(fmt.Sprintf("nic: node %d handler set twice", n.node))
	}
	n.handler = h
}

// deliver is the fabric callback: account receive-pipeline time, then hand
// the packet to the protocol.
//
//rvmalint:hot
func (n *NIC) deliver(pkt *fabric.Packet) {
	n.PacketsReceived++
	//rvmalint:allow hotalloc -- packet tracing is opt-in; untraced runs never enter this block
	if n.tracer != nil {
		n.tracer.Eventf(trace.CatNIC, "nic%d rx #%d from %d %dB", n.node, pkt.ID, pkt.Src, pkt.Size)
	}
	done := n.recvPipe.Acquire(n.eng.Engine, n.prof.RecvPacketProc+n.prof.LookupLatency)
	n.eng.At(done, pkt.Then(n.dispatchFn))
}

// dispatch runs the protocol handler on a received packet, then frees the
// packet: the handler's return ends its life.
//
//rvmalint:hot
func (n *NIC) dispatch(pkt *fabric.Packet) {
	if n.handler == nil {
		panic(fmt.Sprintf("nic: node %d received packet with no protocol handler", n.node))
	}
	n.handler(pkt)
	n.net.Free(pkt)
}

// noSent is the local-completion step of a message whose sender does not
// wait for it.
func noSent() {}

// SendMessage segments a message of total payload bytes to dst and pushes
// it through the send pipeline: one doorbell write, then per packet a
// payload DMA read over the bus and NIC processing, then fabric injection.
// Every packet carries the same per-message payload plus its own Offset
// and Size within the message; receivers slice per-packet data out of the
// payload and must not mutate it. onSent (nil for none) runs when the last
// packet has been handed to the fabric (local send completion); remote
// delivery semantics belong to the protocols.
//
// The caller is responsible for modeling host software overhead
// (Profile.HostPostOverhead) before invoking SendMessage; the protocols do
// this so that zero-copy paths and doorbell batching can be modeled
// distinctly later.
//
//rvmalint:hot
func (n *NIC) SendMessage(dst, total int, payload any, onSent func()) {
	if total < 0 {
		panic("nic: negative message size")
	}
	n.MessagesSent++
	n.BytesSent += uint64(total)
	n.mMsgs.Add(1)
	n.mBytes.Add(uint64(total))
	//rvmalint:allow hotalloc -- packet tracing is opt-in; untraced runs never enter this block
	if n.tracer != nil {
		n.tracer.Eventf(trace.CatNIC, "nic%d tx msg dst=%d %dB", n.node, dst, total)
	}

	// Doorbell: a small MMIO write crossing the bus.
	doorbellDone := n.bus.TransferTime(n.eng.Engine, n.prof.DoorbellBytes)

	mtu := n.MTU()
	off := 0
	last := doorbellDone
	for {
		size := total - off
		if size > mtu {
			size = mtu
		}
		// Payload DMA read from host memory (serializes on the bus), then
		// per-packet send processing (serializes on the send pipeline).
		dmaDone := n.bus.TransferTime(n.eng.Engine, size)
		if dmaDone < doorbellDone {
			dmaDone = doorbellDone
		}
		procDone := n.sendPipe.AcquireAt(dmaDone, n.prof.SendPacketProc)
		pkt := n.net.NewPacket(n.node)
		pkt.Dst, pkt.Size, pkt.Offset, pkt.Payload = dst, size, off, payload
		n.PacketsSent++
		n.mPkts.Add(1)
		n.eng.At(procDone, pkt.Then(n.injectFn))
		if procDone > last {
			last = procDone
		}
		off += size
		if off >= total {
			break
		}
	}
	// The completion event is scheduled even with no onSent, so the event
	// stream does not depend on whether the sender waits.
	if onSent == nil {
		onSent = noSent
	}
	n.eng.At(last, onSent)
}

// InjectControl sends a NIC-generated control packet (transport ACK, NACK)
// to dst. Control packets are fabricated by the NIC itself: they pay
// send-pipeline processing but never cross the host bus, unlike
// host-posted messages.
//
//rvmalint:hot
func (n *NIC) InjectControl(dst int, payload any) {
	n.PacketsSent++
	n.mPkts.Add(1)
	n.mCtrlPkts.Add(1)
	//rvmalint:allow hotalloc -- packet tracing is opt-in; untraced runs never enter this block
	if n.tracer != nil {
		n.tracer.Eventf(trace.CatNIC, "nic%d ctrl dst=%d", n.node, dst)
	}
	done := n.sendPipe.Acquire(n.eng.Engine, n.prof.SendPacketProc)
	pkt := n.net.NewPacket(n.node)
	pkt.Dst, pkt.Payload = dst, payload
	n.eng.At(done, pkt.Then(n.injectFn))
}

// MsgKey identifies an in-flight message for reassembly: source node plus
// the source's message id.
type MsgKey struct {
	Src   int
	MsgID uint64
}

// Assembler tracks partially received messages so a protocol can tell when
// every byte of a multi-packet message has arrived regardless of arrival
// order. RDMA's send/recv-fenced completion needs it to model transport
// resequencing; RVMA's EPOCH_OPS counting needs it to count an operation
// exactly once.
type Assembler struct {
	inflight map[MsgKey]asmState
}

type asmState struct {
	received int
	total    int
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{inflight: make(map[MsgKey]asmState)}
}

// Add records size arrived bytes for message key with the given total
// message size, returning true exactly once: when the message completes.
// Single-packet messages (size == total on first Add) complete immediately
// without map traffic.
func (a *Assembler) Add(key MsgKey, size, total int) bool {
	st, ok := a.inflight[key]
	if !ok {
		if size >= total {
			return true
		}
		a.inflight[key] = asmState{received: size, total: total}
		return false
	}
	st.received += size
	if st.received >= st.total {
		delete(a.inflight, key)
		return true
	}
	a.inflight[key] = st
	return false
}

// Pending returns the number of incomplete messages (for leak tests).
func (a *Assembler) Pending() int { return len(a.inflight) }
