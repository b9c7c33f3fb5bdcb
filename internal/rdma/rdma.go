// Package rdma models traditional RDMA as the paper's baseline: physical-
// address windows owned by the initiator, a mandatory buffer-negotiation
// handshake before any transfer (Figure 1), and target-side completion
// that requires either byte-level network ordering (last-byte polling,
// valid only on statically routed networks) or an extra ordered send/recv
// after the data ("the InfiniBand specification states that no RDMA
// operation can be considered complete until a later send/recv operation
// has finished", §IV-D).
//
// The model runs on the same NIC/fabric/bus substrate as package rvma —
// the paper's methodology requires both models to share "identical timing
// for non-RDMA related traffic considerations" (§V-B) — so every
// performance difference between the two packages is structural: the
// handshake, the trailing completion message, and the receiver's inability
// to manage its own buffers.
package rdma

import (
	"errors"
	"fmt"

	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// Errors returned by the API.
var (
	ErrBadRKey     = errors.New("rdma: unknown or revoked rkey")
	ErrOutOfBounds = errors.New("rdma: access outside registered region")
	ErrTooLarge    = errors.New("rdma: payload exceeds immediate limit")
	ErrBadArgument = errors.New("rdma: invalid argument")
)

// MaxImmediate is the largest payload a write-with-immediate may carry.
// The paper notes such completion-generating commands have payloads
// "typically under 64 bytes in size" (§I).
const MaxImmediate = 64

// CompletionScheme selects how the *target* learns a put finished.
type CompletionScheme int

const (
	// CompleteNone delivers data with no target-side notification — the
	// raw RDMA semantic.
	CompleteNone CompletionScheme = iota
	// CompleteLastByte has target software poll the final byte of the
	// expected span. It is only correct on byte-ordered (statically
	// routed) networks; on adaptive networks the last byte can land
	// before earlier ones and the "completion" is premature (§IV-D).
	CompleteLastByte
	// CompleteSendRecv appends a 1-byte send after the put. Transport
	// ordering guarantees the send is delivered only after all prior put
	// bytes, making it the specification-compliant completion on
	// adaptively routed networks — at the cost of an extra message.
	CompleteSendRecv
)

// String returns the scheme's report name.
func (s CompletionScheme) String() string {
	switch s {
	case CompleteNone:
		return "none"
	case CompleteLastByte:
		return "last-byte-poll"
	case CompleteSendRecv:
		return "send-recv-fence"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Config parameterizes an RDMA endpoint.
type Config struct {
	// CarryData moves real bytes (tests); when false only timing flows.
	CarryData bool
	// PipelinedFence changes CompleteSendRecv behavior: when true the
	// 1-byte completion send is posted immediately after the put and the
	// *target* holds it until every put byte has landed (what an
	// aggressive runtime like UCX's progress engine does); when false the
	// initiator conservatively reaps the write's local completion — the
	// responder ACK round trip — before posting the send (what a naive
	// perftest modification does). Both are specification-compliant.
	PipelinedFence bool
}

// DefaultConfig returns the configuration used by tests and benchmarks.
func DefaultConfig() Config { return Config{CarryData: true} }

// MemoryRegion is a locally registered, remotely accessible buffer.
type MemoryRegion struct {
	RKey   uint32
	Region *memory.Region
	// BytesReceived counts put payload bytes landed in this region (model
	// bookkeeping; a real NIC has no such counter, which is the paper's
	// entire point — see rvma).
	BytesReceived int
	revoked       bool
}

// RemoteBuffer is the initiator's handle to a remote registered region:
// exactly the (address, length, key) triple Figure 1's handshake ships
// back, which the initiator must retain for every subsequent operation.
type RemoteBuffer struct {
	Node int
	RKey uint32
	Addr memory.Addr
	Size int
}

// Stats aggregates endpoint counters.
type Stats struct {
	Handshakes     uint64 // buffer negotiations served (target side)
	AcksSent       uint64 // transport ACKs emitted (target side)
	Registrations  uint64
	PutsInitiated  uint64
	PutsPlaced     uint64 // messages fully landed (target side)
	BytesPlaced    uint64
	SendsDelivered uint64
	FencesHeld     uint64 // completion sends that had to wait for data
	Drops          uint64
	ReadsServed    uint64
	DupPackets     uint64 // retransmit duplicates discarded by the receiver
}

// Endpoint is one node's RDMA instance (host verbs library + NIC model).
type Endpoint struct {
	nic *nic.NIC
	eng sim.Tagged // engine handle stamping "rdma" on scheduled events
	cfg Config

	mrs      map[uint32]*MemoryRegion
	nextRKey uint32

	nextMsgID uint64

	// Initiator-side bookkeeping.
	pendingRegs  map[uint64]*RegOp
	pendingAcks  map[uint64]func()     // put msgID -> action on transport ACK
	pendingRel   map[uint64]reliableOp // msgID -> reliable op awaiting ack
	pendingReads map[uint64]*ReadOp
	readBuf      map[uint64][]byte
	readAsm      *nic.Assembler
	sentBytes    map[int]uint64 // per-destination cumulative put payload bytes

	// Target-side bookkeeping. Receive queues are per (source node, QP
	// index): InfiniBand receive queues belong to a queue pair, and
	// applications commonly run several QPs per peer (e.g. one for data
	// and fences, one for control credits).
	recvBytes     map[int]uint64 // per-source cumulative put payload bytes landed
	recvQueues    map[qpKey][]*RecvOp
	pendingSends  map[qpKey][]*pendingSend
	lastByteWaits []*LastByteWait
	byteWaits     []*byteWait
	asm           *nic.Assembler
	relAsm        *nic.RangeAssembler // duplicate-aware reassembly of reliable ops

	tracer *trace.Tracer
	reg    *metrics.Registry

	// Metric handles (nil when no registry is attached).
	mHandshakes *metrics.Counter
	mFencesHeld *metrics.Counter
	mDrops      *metrics.Counter
	mAcks       *metrics.Counter
	mHandshake  *metrics.Histogram // request -> RemoteBuffer in hand, ns
	mRegMR      *metrics.Histogram // memory-registration cost, ns
	mFenceHold  *metrics.Histogram // send enqueue -> fence satisfied, ns

	Stats Stats
}

// qpKey identifies one queue pair: the peer node and a small application-
// chosen QP index.
type qpKey struct {
	src int
	qp  int
}

// FenceQP is the QP index put completion sends and immediates arrive on.
const FenceQP = 0

// pendingSend is a send whose fence (prior put bytes) is not yet satisfied
// or which awaits a posted receive.
type pendingSend struct {
	src        int
	fenceBytes uint64
	size       int
	imm        *immediateInfo
	enq        sim.Time // when the send reached the target (fence-hold metric)
}

type immediateInfo struct {
	rkey uint32
}

// NewEndpoint attaches an RDMA endpoint to the NIC.
func NewEndpoint(n *nic.NIC, cfg Config) *Endpoint {
	ep := &Endpoint{
		nic:          n,
		eng:          n.Engine().Tag("rdma"),
		cfg:          cfg,
		mrs:          make(map[uint32]*MemoryRegion),
		nextRKey:     1,
		pendingRegs:  make(map[uint64]*RegOp),
		pendingAcks:  make(map[uint64]func()),
		pendingRel:   make(map[uint64]reliableOp),
		pendingReads: make(map[uint64]*ReadOp),
		readBuf:      make(map[uint64][]byte),
		readAsm:      nic.NewAssembler(),
		sentBytes:    make(map[int]uint64),
		recvBytes:    make(map[int]uint64),
		recvQueues:   make(map[qpKey][]*RecvOp),
		pendingSends: make(map[qpKey][]*pendingSend),
		asm:          nic.NewAssembler(),
		relAsm:       nic.NewRangeAssembler(),
	}
	n.SetHandler(ep.handlePacket)
	return ep
}

// SetTracer attaches a tracer; registration, fences and acks go to
// trace.CatRDMA. A nil tracer detaches.
func (ep *Endpoint) SetTracer(t *trace.Tracer) { ep.tracer = t }

// SetMetrics attaches a metrics registry: handshake and registration
// latency histograms, fence-hold distribution, drop/ack counters, and
// (when spans are enabled) a per-put host_post -> nic_tx -> wire -> place
// span mirroring the RVMA one, so the two transports' pipelines compare
// stage by stage. A nil registry detaches everything.
func (ep *Endpoint) SetMetrics(reg *metrics.Registry) {
	ep.reg = reg
	if reg == nil {
		ep.mHandshakes, ep.mFencesHeld, ep.mDrops, ep.mAcks = nil, nil, nil, nil
		ep.mHandshake, ep.mRegMR, ep.mFenceHold = nil, nil, nil
		return
	}
	ep.mHandshakes = reg.Counter("rdma.handshakes")
	ep.mFencesHeld = reg.Counter("rdma.fences_held")
	ep.mDrops = reg.Counter("rdma.drops")
	ep.mAcks = reg.Counter("rdma.acks_sent")
	// Named like span histograms so FprintSpans shows the setup path RVMA
	// does not have next to the per-put stages.
	ep.mHandshake = reg.Histogram("span.rdma.handshake/total")
	ep.mRegMR = reg.Histogram("span.rdma.registration/total")
	ep.mFenceHold = reg.Histogram("span.rdma.put/fence_hold")
	node := ep.Node()
	reg.AddCollector(func() {
		held, queued := 0, 0
		for _, ps := range ep.pendingSends {
			held += len(ps)
		}
		for _, rq := range ep.recvQueues {
			queued += len(rq)
		}
		reg.Gauge(fmt.Sprintf("rdma%d.pending_sends", node)).Set(float64(held))
		reg.Gauge(fmt.Sprintf("rdma%d.posted_recvs", node)).Set(float64(queued))
		reg.Gauge(fmt.Sprintf("rdma%d.pending_asm", node)).Set(float64(ep.asm.Pending()))
	})
}

// Node returns the endpoint's node id.
func (ep *Endpoint) Node() int { return ep.nic.Node() }

// PendingRegistrations returns the number of buffer-negotiation handshakes
// this endpoint has initiated that have not yet received their RemoteBuffer
// reply (telemetry probe: outstanding registrations).
func (ep *Endpoint) PendingRegistrations() int { return len(ep.pendingRegs) }

// PendingSendsHeld returns the number of target-side sends currently held
// for an unsatisfied fence or a missing posted receive.
func (ep *Endpoint) PendingSendsHeld() int {
	held := 0
	for _, ps := range ep.pendingSends {
		held += len(ps)
	}
	return held
}

// NIC returns the underlying NIC model.
func (ep *Endpoint) NIC() *nic.NIC { return ep.nic }

// Memory returns the node's host memory.
func (ep *Endpoint) Memory() *memory.Memory { return ep.nic.Memory() }

// Engine returns the simulation engine.
func (ep *Endpoint) Engine() *sim.Engine { return ep.nic.Engine() }

// RegisterBuffer allocates and registers a region of the given size,
// paying the profile's registration cost (syscall + page pinning). The
// future resolves with the *MemoryRegion when registration completes.
func (ep *Endpoint) RegisterBuffer(size int) *sim.Future {
	if size <= 0 {
		panic(fmt.Sprintf("rdma: register size %d", size))
	}
	f := sim.NewFuture()
	eng := ep.eng
	cost := ep.nic.Profile().RegistrationTime(size)
	ep.mRegMR.ObserveTime(cost)
	if ep.tracer != nil {
		ep.tracer.Eventf(trace.CatRDMA, "node %d register %dB (%v)", ep.Node(), size, cost)
	}
	eng.Schedule(cost, func() {
		mr := &MemoryRegion{RKey: ep.nextRKey, Region: ep.Memory().Alloc(size)}
		ep.nextRKey++
		ep.mrs[mr.RKey] = mr
		ep.Stats.Registrations++
		f.Complete(eng.Engine, mr)
	})
	return f
}

// RegionByKey returns the locally registered region with the given rkey,
// or nil. Targets use it to find the region a negotiated handle refers to.
func (ep *Endpoint) RegionByKey(rkey uint32) *MemoryRegion { return ep.mrs[rkey] }

// Deregister revokes a region; subsequent remote accesses are dropped.
// This is the "binary" resource control the paper critiques: a region is
// either remotely accessible or not (§II).
func (ep *Endpoint) Deregister(mr *MemoryRegion) {
	mr.revoked = true
	delete(ep.mrs, mr.RKey)
}

// wire opcodes.
type opcode int

const (
	opRegRequest opcode = iota
	opRegReply
	opPutData
	opPutAck
	opSend
	opReadReq
	opReadReply
)

// command is the wire payload: one per message, shared by all of its
// packets, each of which carries its own offset within the message
// (fabric.Packet.Offset). Receivers only read it.
type command struct {
	op    opcode
	msgID uint64

	// registration
	size int
	rb   RemoteBuffer

	// put
	rkey      uint32
	msgOffset int
	total     int
	data      []byte // the whole message's payload (nil when !CarryData)
	// wantAck asks the target NIC to emit a transport acknowledgment when
	// the whole message has landed (RC write completion semantics).
	wantAck bool
	// reliable marks packets of a recovery-layer operation: the target
	// deduplicates them by offset (retransmits reuse the msgID) and counts
	// only unique bytes, so retransmitted packets can never falsely
	// satisfy a fence or double-deliver a send.
	reliable bool

	// qp is the queue-pair index a send belongs to.
	qp int
	// send fence: cumulative put bytes sent on this (src,dst) pair before
	// this send was issued; the target may not deliver the send until that
	// many bytes have landed (transport resequencing).
	fenceBytes uint64
	imm        *immediateInfo
}
