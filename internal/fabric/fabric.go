// Package fabric turns a topology into a timed packet network: links with
// bandwidth and latency, switches with finite crossbar bandwidth and
// per-output-port queues, and static, adaptive or Valiant routing.
//
// The model follows the paper's simulation setup (§V-B): switch crossbar
// bandwidth is scaled with link bandwidth ("crossbar bandwidth is always
// 50% greater than link bandwidth"), host injection always keeps the NIC
// fed at line rate, and queue depths are ample so full-queue stalls never
// constrain results. Adaptive routing chooses the least-backlogged
// candidate output port; on dragonfly it may additionally take a one-shot
// Valiant detour when minimal queues are congested (UGAL-style), after
// which the packet routes minimally. Because different packets of one
// message can take different paths, adaptive routing reorders packet
// arrivals — exactly the property that breaks last-byte polling for RDMA
// and that RVMA's offset placement plus threshold counting tolerates.
package fabric

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/sim"
	"rvma/internal/telemetry"
	"rvma/internal/topology"
	"rvma/internal/trace"
)

// RoutingMode selects how the fabric picks among candidate output ports.
type RoutingMode int

const (
	// RouteStatic always takes the deterministic first candidate. Packet
	// order between one source and destination is preserved end to end,
	// which is the property last-byte polling depends on.
	RouteStatic RoutingMode = iota
	// RouteAdaptive picks the least-backlogged candidate, with a one-shot
	// Valiant detour on topologies that support it. Delivery order is not
	// guaranteed.
	RouteAdaptive
	// RouteValiant always detours through a random intermediate group/path
	// when the topology supports it, then routes minimally.
	RouteValiant
)

// String returns the mode's report name.
func (m RoutingMode) String() string {
	switch m {
	case RouteStatic:
		return "static"
	case RouteAdaptive:
		return "adaptive"
	case RouteValiant:
		return "valiant"
	default:
		return fmt.Sprintf("routing(%d)", int(m))
	}
}

// Ordered reports whether the mode preserves per-flow packet order.
func (m RoutingMode) Ordered() bool { return m == RouteStatic }

// HeaderBytes is the per-packet wire header (route, transport and RVMA/RDMA
// command fields). 64 bytes is in line with Portals/IB header budgets and
// with the paper's observation that an RVMA LUT entry needs 24 bytes of
// addressing state carried per command.
const HeaderBytes = 64

// Config sets the fabric's timing parameters.
type Config struct {
	// LinkGbps is the link data rate in gigabits per second. The paper
	// sweeps 100, 200, 400 and 2000 Gbps.
	LinkGbps float64
	// LinkLatency is the propagation delay of one cable (time of flight +
	// SerDes). ~50 ns for short copper/optical at these scales.
	LinkLatency sim.Time
	// SwitchLatency is the pipeline latency of one switch traversal
	// (arbitration + lookup), paid per hop in addition to crossbar time.
	SwitchLatency sim.Time
	// XbarFactor scales crossbar bandwidth relative to link bandwidth; the
	// paper fixes this at 1.5.
	XbarFactor float64
	// MTU is the maximum packet payload size in bytes.
	MTU int
	// Routing selects static/adaptive/valiant port selection.
	Routing RoutingMode
	// AdaptiveJitter, when positive under non-static routing, scales link
	// latency by a random factor in [1-j, 1+j] to model path-length and
	// congestion variation between alternative routes. It makes packet
	// reordering observable even on lightly loaded networks.
	AdaptiveJitter float64
	// ValiantBias is the backlog advantage (in time) a non-minimal path
	// must offer before an adaptive packet detours. Zero uses one MTU
	// serialization time.
	ValiantBias sim.Time
	// DropRate is a per-packet loss probability in [0, 1] (failure
	// injection; 1 is a total blackout). Real HPC fabrics are lossless in
	// steady state, but the paper's fault-tolerance argument (§IV-F) is
	// about exactly the moments they are not; tests use this to show
	// RVMA's threshold counting never falsely completes a holed buffer,
	// while last-byte polling does. Loss fires at destination ingress
	// after the packet has paid its full path cost (see fault.go), and
	// the drop decision draws from a dedicated RNG stream so routing
	// choices stay identical packet-for-packet whether or not faults are
	// enabled.
	DropRate float64
	// Faults layers burst loss and per-link degradation windows on top of
	// DropRate (the two uniform rates combine by max). Nil injects only
	// DropRate.
	Faults *FaultPlan
}

// DefaultConfig returns the baseline used across experiments: 100 Gbps
// links, 50 ns cables, 100 ns switch pipeline, 1.5x crossbar, 2 KiB MTU.
func DefaultConfig() Config {
	return Config{
		LinkGbps:      100,
		LinkLatency:   50 * sim.Nanosecond,
		SwitchLatency: 100 * sim.Nanosecond,
		XbarFactor:    1.5,
		MTU:           2048,
		Routing:       RouteStatic,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LinkGbps <= 0 {
		return fmt.Errorf("fabric: link bandwidth must be positive, got %v", c.LinkGbps)
	}
	if c.MTU <= 0 {
		return fmt.Errorf("fabric: MTU must be positive, got %d", c.MTU)
	}
	if c.XbarFactor <= 0 {
		return fmt.Errorf("fabric: crossbar factor must be positive, got %v", c.XbarFactor)
	}
	if c.LinkLatency < 0 || c.SwitchLatency < 0 {
		return fmt.Errorf("fabric: negative latency")
	}
	if c.DropRate < 0 || c.DropRate > 1 {
		return fmt.Errorf("fabric: drop rate %v outside [0, 1]", c.DropRate)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Packet is one wire packet. Payload semantics belong to the NIC protocol
// layers; the fabric only reads Size (payload bytes, excluding header) and
// the addressing fields.
//
// Packets are pooled (see pool.go): Network.NewPacket hands one out and
// Network.Free takes it back, so a *Packet is only valid until it is
// freed. A packet built as a literal and never freed is ordinary garbage.
type Packet struct {
	ID     uint64
	Src    int
	Dst    int
	Size   int // payload bytes; HeaderBytes is added on the wire
	Offset int // payload offset within the packet's message
	// Payload is the protocol's per-message command, shared by every
	// packet of the message; receivers must treat it as read-only.
	Payload any

	// Bookkeeping maintained by the fabric.
	Injected sim.Time
	Hops     int
	// QueueWait accumulates the time this packet spent queued for
	// contended resources (host injection link, switch crossbars, output
	// ports) rather than being serialized or on a cable. The receiving
	// protocol layer reads it to attribute the wire stage's wait
	// component.
	QueueWait sim.Time
	misrouted bool

	// hop is the switch the pending atSwitch event runs at, or the node
	// the pending deliver event hands the packet to.
	hop int
	// next is the step the pre-bound runner executes; run is that runner,
	// built once per packet object (see Then).
	next  func(*Packet)
	run   func()
	state uint8 // pool lifecycle: pktLive / pktFree
}

// WireSize returns payload plus header bytes.
func (p *Packet) WireSize() int { return p.Size + HeaderBytes }

// DeliverFunc receives a packet at its destination node at the current
// simulated time.
type DeliverFunc func(pkt *Packet)

// Stats aggregates fabric-level counters for experiment reports.
type Stats struct {
	PacketsInjected  uint64
	PacketsDelivered uint64
	PacketsDropped   uint64
	BytesDelivered   uint64
	BytesDropped     uint64
	TotalHops        uint64
	TotalLatency     sim.Time
	ValiantDetours   uint64
}

// Network is an instantiated fabric over a topology.
type Network struct {
	eng   sim.Tagged
	topo  topology.Topology
	cfg   Config
	hosts []DeliverFunc

	outPorts [][]*sim.Resource // per switch, per port: link transmitter
	xbars    []*sim.Resource   // per switch crossbar
	hostTx   []*sim.Resource   // per node injection link

	nonMin topology.NonMinimalRouter // nil if unsupported

	// Failure injection (see fault.go). faultRNG is a dedicated stream —
	// nil when the effective plan cannot drop — so drop draws never
	// perturb the shared routing/jitter stream. burstLeft counts the
	// remaining forced drops of an in-progress burst, per destination.
	faults    FaultPlan
	faultRNG  *sim.RNG
	burstLeft []int

	nextID uint64
	Stats  Stats
	tracer *trace.Tracer

	// pools holds one packet free list and routing scratch per shard (one
	// in single-heap mode); see pool.go. atSwitchFn and deliverFn are the
	// packet steps, bound once so scheduling a hop allocates nothing.
	pools      []packetPool
	atSwitchFn func(*Packet)
	deliverFn  func(*Packet)

	// Metric handles, resolved once at SetMetrics; all nil when no registry
	// is attached, so the hot path pays one nil check per hook.
	mLatency  *metrics.Histogram // injection-to-delivery, ns
	mHops     *metrics.Histogram // switch hops per delivered packet
	mDrops    *metrics.Counter
	mDetours  *metrics.Counter
	mTimeline *metrics.Timeline

	// Sharded execution (see shard.go). group == nil is the legacy
	// single-heap mode; everything below is only populated by NewSharded.
	// Per-locus state (a locus is one node or one switch) is written only
	// by the shard that owns the locus, which is what makes the sharded hot
	// path race-free without locks.
	group     *sim.ShardGroup
	tags      []sim.Tagged // per-shard "fabric" tag
	nodeShard []int        // owning shard per node
	swShard   []int        // owning shard per switch
	numLoci   int          // nodes + switches; priority stride
	priCount  []uint64     // events scheduled per locus (unique priorities)
	nextIDs   []uint64     // per-source packet IDs
	swRNG     []*sim.RNG   // per-switch routing/jitter substreams
	hostRNG   []*sim.RNG   // per-node injection-jitter substreams
	faultSh   []*sim.RNG   // per-destination fault substreams
	statsSh   []Stats      // per-shard counters; TotalStats sums them
	msh       []fabMetrics // per-shard metric handles
}

// SetTracer attaches a tracer; packet-level events go to trace.CatPacket
// and aggregate counters/series are kept regardless of enablement. A nil
// tracer detaches.
func (n *Network) SetTracer(t *trace.Tracer) {
	if t != nil && n.group != nil {
		panic("fabric: packet tracing is not supported on a sharded network (trace buffers are single-writer)")
	}
	n.tracer = t
	if t != nil {
		t.DefineSeries("fabric.delivered_bytes", 10*sim.Microsecond)
	}
}

// maxPerSwitchGauges caps per-switch gauge fan-out: beyond this many
// switches the collector only keeps fabric-wide aggregates, so metrics on
// a large topology don't drown the snapshot in per-switch series.
const maxPerSwitchGauges = 64

// SetMetrics attaches a metrics registry. Packet latency and hop-count
// histograms plus drop/detour counters update per event; queue occupancy
// and link utilization are sampled by a collector at snapshot time. A nil
// registry detaches every hook.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	if reg != nil && n.group != nil {
		panic("fabric: use SetMetricsSharded on a sharded network")
	}
	if reg == nil {
		n.mLatency, n.mHops, n.mDrops, n.mDetours, n.mTimeline = nil, nil, nil, nil, nil
		return
	}
	n.mLatency = reg.Histogram("fabric.packet_latency_ns")
	n.mHops = reg.Histogram("fabric.packet_hops")
	n.mDrops = reg.Counter("fabric.packets_dropped")
	n.mDetours = reg.Counter("fabric.valiant_detours")
	n.mTimeline = reg.Timeline()

	perSwitch := n.topo.NumSwitches() <= maxPerSwitchGauges
	reg.AddCollector(func() {
		var busy, uses float64
		var util, maxUtil float64
		links := 0
		for sw := range n.outPorts {
			var backlog sim.Time
			for _, p := range n.outPorts[sw] {
				backlog += p.Backlog(n.eng.Engine)
				u := p.Utilization(n.eng.Engine)
				util += u
				if u > maxUtil {
					maxUtil = u
				}
				busy += p.BusyTime().Nanoseconds()
				uses += float64(p.Uses())
				links++
			}
			if perSwitch {
				reg.Gauge(fmt.Sprintf("fabric.sw%d.queue_ns", sw)).Set(backlog.Nanoseconds())
			}
		}
		if links > 0 {
			reg.Gauge("fabric.link_util_mean").Set(util / float64(links))
			reg.Gauge("fabric.link_util_max").Set(maxUtil)
			reg.Gauge("fabric.link_busy_ns_total").Set(busy)
			reg.Gauge("fabric.link_uses_total").Set(uses)
		}
		var hostUtil float64
		for _, h := range n.hostTx {
			hostUtil += h.Utilization(n.eng.Engine)
		}
		if len(n.hostTx) > 0 {
			reg.Gauge("fabric.host_tx_util_mean").Set(hostUtil / float64(len(n.hostTx)))
		}
	})
}

// TelemetryHeatmapPrefix selects the per-switch utilization columns the
// congestion heatmap is built from (Sampler.WriteHeatmapCSV prefix).
const TelemetryHeatmapPrefix = "fabric.util.sw"

// RegisterTelemetry registers the fabric's time-series probes on s:
// fabric-wide output-queue depth and link-utilization aggregates always,
// plus — up to the same per-switch cap the metrics collector uses — one
// windowed-utilization and one queue-depth column per switch. Per-switch
// utilization is computed over the sample window (busy-time delta divided
// by elapsed time, averaged over the switch's ports), which is what a
// congestion heatmap wants; the window state lives in the probe closures,
// never in model state.
func (n *Network) RegisterTelemetry(s *telemetry.Sampler) {
	if s == nil {
		return
	}
	if n.group != nil {
		panic("fabric: use RegisterTelemetrySharded on a sharded network")
	}
	s.Register("fabric.queue_ns_total", func() float64 {
		var backlog sim.Time
		for sw := range n.outPorts {
			for _, p := range n.outPorts[sw] {
				backlog += p.Backlog(n.eng.Engine)
			}
		}
		return backlog.Nanoseconds()
	})
	s.Register("fabric.queue_ns_max", func() float64 {
		var worst sim.Time
		for sw := range n.outPorts {
			for _, p := range n.outPorts[sw] {
				if b := p.Backlog(n.eng.Engine); b > worst {
					worst = b
				}
			}
		}
		return worst.Nanoseconds()
	})
	s.Register("fabric.packets_delivered", func() float64 {
		return float64(n.Stats.PacketsDelivered)
	})
	s.Register("fabric.valiant_detours", func() float64 {
		return float64(n.Stats.ValiantDetours)
	})
	if len(n.outPorts) > maxPerSwitchGauges {
		return
	}
	for sw := range n.outPorts {
		ports := n.outPorts[sw]
		s.Register(fmt.Sprintf("fabric.queue_ns.sw%03d", sw), func() float64 {
			var backlog sim.Time
			for _, p := range ports {
				backlog += p.Backlog(n.eng.Engine)
			}
			return backlog.Nanoseconds()
		})
		var prevBusy, prevAt sim.Time
		s.Register(fmt.Sprintf("%s%03d", TelemetryHeatmapPrefix, sw), func() float64 {
			var busy sim.Time
			for _, p := range ports {
				busy += p.BusyTime()
			}
			now := n.eng.Now()
			dt, db := now-prevAt, busy-prevBusy
			prevBusy, prevAt = busy, now
			if dt <= 0 || len(ports) == 0 {
				return 0
			}
			return sim.Ratio(db, dt) / float64(len(ports))
		})
	}
}

// New builds a network over topo with the given config.
func New(eng *sim.Engine, topo topology.Topology, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		eng:   eng.Tag("fabric"),
		topo:  topo,
		cfg:   cfg,
		hosts: make([]DeliverFunc, topo.NumNodes()),
	}
	n.outPorts = make([][]*sim.Resource, topo.NumSwitches())
	n.xbars = make([]*sim.Resource, topo.NumSwitches())
	for sw := 0; sw < topo.NumSwitches(); sw++ {
		ports := topo.Ports(sw)
		n.outPorts[sw] = make([]*sim.Resource, len(ports))
		for pi := range ports {
			n.outPorts[sw][pi] = sim.NewResource(fmt.Sprintf("sw%d.p%d", sw, pi))
		}
		n.xbars[sw] = sim.NewResource(fmt.Sprintf("sw%d.xbar", sw))
	}
	n.hostTx = make([]*sim.Resource, topo.NumNodes())
	for i := range n.hostTx {
		n.hostTx[i] = sim.NewResource(fmt.Sprintf("host%d.tx", i))
	}
	n.nonMin, _ = topo.(topology.NonMinimalRouter)
	n.bindPackets(1)
	n.faults = cfg.effectivePlan()
	if n.faults.Enabled() {
		// Seed the fault stream with one draw from the shared stream:
		// deterministic for a given engine seed, and fault-free runs stay
		// byte-identical with builds that predate fault injection.
		n.faultRNG = sim.NewRNG(eng.RNG().Uint64())
		n.burstLeft = make([]int, topo.NumNodes())
	}
	return n, nil
}

// Engine returns the engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng.Engine }

// Topology returns the underlying topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Config returns the fabric configuration.
func (n *Network) Config() Config { return n.cfg }

// MTU returns the maximum payload per packet.
func (n *Network) MTU() int { return n.cfg.MTU }

// AttachHost registers the delivery callback for node's NIC. Each node must
// attach exactly once before receiving traffic.
func (n *Network) AttachHost(node int, fn DeliverFunc) {
	if n.hosts[node] != nil {
		panic(fmt.Sprintf("fabric: node %d attached twice", node))
	}
	n.hosts[node] = fn
}

// Inject hands a packet to node src's injection link at the current time.
// The packet serializes onto the host link (which always runs at line rate,
// per the paper's host-bus assumption), then traverses the fabric. In
// sharded mode the caller must be executing on the source node's shard
// (NICs are constructed on their node's shard engine, so this holds by
// construction).
//
//rvmalint:hot
func (n *Network) Inject(pkt *Packet) {
	if pkt.Src < 0 || pkt.Src >= len(n.hostTx) || pkt.Dst < 0 || pkt.Dst >= len(n.hosts) {
		panic(fmt.Sprintf("fabric: inject with bad endpoints src=%d dst=%d", pkt.Src, pkt.Dst))
	}
	e, shard := n.nodeCtx(pkt.Src)
	rng := n.eng.RNG()
	if n.group != nil {
		// Per-source IDs and a per-node jitter substream keep both a pure
		// function of the node's own history, independent of partitioning.
		pkt.ID = n.nextIDs[pkt.Src]
		n.nextIDs[pkt.Src]++
		rng = n.hostRNG[pkt.Src]
	} else {
		pkt.ID = n.nextID
		n.nextID++
	}
	now := e.Now()
	pkt.Injected = now
	n.statsAt(shard).PacketsInjected++
	//rvmalint:allow hotalloc -- packet tracing is opt-in; untraced runs never enter this block
	if n.tracer != nil {
		n.tracer.Count("fabric.packets_injected", 1)
		n.tracer.Eventf(trace.CatPacket, "inject #%d %d->%d %dB", pkt.ID, pkt.Src, pkt.Dst, pkt.Size)
	}

	ser := sim.SerializationTime(pkt.WireSize(), n.cfg.LinkGbps)
	txDone := n.hostTx[pkt.Src].AcquireAt(now, ser)
	pkt.QueueWait += txDone - now - ser
	arrive := txDone + n.linkDelayFrom(rng)
	sw, _ := n.topo.HostPort(pkt.Src)
	pkt.hop = sw
	n.sched(shard, n.nodeLocus(pkt.Src), n.switchShard(sw), arrive, pkt.Then(n.atSwitchFn))
}

// MaxQueueBacklog returns the largest backlog any switch output port
// holds at the current time — the attribution layer samples it as the
// "switch congestion right now" context for tail operations.
func (n *Network) MaxQueueBacklog() sim.Time {
	var max sim.Time
	for _, ports := range n.outPorts {
		for _, p := range ports {
			if b := p.Backlog(n.eng.Engine); b > max {
				max = b
			}
		}
	}
	return max
}

// linkDelayFrom returns the (possibly jittered) cable latency for one hop,
// drawing from rng — the shared engine stream in legacy mode, the sending
// locus's substream in sharded mode.
func (n *Network) linkDelayFrom(rng *sim.RNG) sim.Time {
	d := n.cfg.LinkLatency
	if n.cfg.AdaptiveJitter > 0 && n.cfg.Routing != RouteStatic {
		d = rng.Jitter(d, n.cfg.AdaptiveJitter)
	}
	return d
}

// atSwitch processes a packet's arrival at switch sw at the current time:
// route selection, crossbar transit, output serialization, link traversal.
// In sharded mode it executes on the switch's owning shard.
//
//rvmalint:hot
func (n *Network) atSwitch(sw int, pkt *Packet) {
	e, shard := n.swCtx(sw)
	pkt.Hops++
	if sim.DebugEnabled {
		n.debugCheckHop(e, sw, pkt)
	}
	rng := n.eng.RNG()
	if n.group != nil {
		rng = n.swRNG[sw]
	}
	outPort := n.selectPort(e, shard, rng, sw, pkt)
	ports := n.topo.Ports(sw)
	port := ports[outPort]

	now := e.Now()
	xbarHold := sim.SerializationTime(pkt.WireSize(), n.cfg.LinkGbps*n.cfg.XbarFactor)
	xbarDone := n.xbars[sw].AcquireAt(now, xbarHold)
	ser := sim.SerializationTime(pkt.WireSize(), n.cfg.LinkGbps)
	txDone := n.outPorts[sw][outPort].AcquireAt(xbarDone+n.cfg.SwitchLatency, ser)
	pkt.QueueWait += (xbarDone - now - xbarHold) + (txDone - xbarDone - n.cfg.SwitchLatency - ser)
	arrive := txDone + n.linkDelayFrom(rng)

	switch port.Kind {
	case topology.HostPort:
		pkt.hop = port.Node
		n.sched(shard, n.switchLocus(sw), n.nodeShardOf(port.Node), arrive, pkt.Then(n.deliverFn))
	case topology.SwitchPort:
		pkt.hop = port.PeerSwitch
		n.sched(shard, n.switchLocus(sw), n.switchShard(port.PeerSwitch), arrive, pkt.Then(n.atSwitchFn))
	default:
		panic(fmt.Sprintf("fabric: routed to unused port %d of switch %d", outPort, sw))
	}
}

// selectPort applies the routing mode to the candidate set. e is the
// engine executing switch sw and rng the stream routing draws come from.
func (n *Network) selectPort(e *sim.Engine, shard int, rng *sim.RNG, sw int, pkt *Packet) int {
	pool := &n.pools[shard]
	cands := n.topo.Candidates(sw, pkt.Dst, pool.cands[:0])
	pool.cands = cands
	if len(cands) == 0 {
		panic(fmt.Sprintf("fabric: no route from switch %d to node %d", sw, pkt.Dst))
	}
	switch n.cfg.Routing {
	case RouteStatic:
		return cands[0]
	case RouteValiant:
		if !pkt.misrouted && n.nonMin != nil {
			nm := n.nonMin.NonMinimalCandidates(sw, pkt.Dst, pool.nonMin[:0])
			pool.nonMin = nm
			if len(nm) > 0 {
				pkt.misrouted = true
				n.statsAt(shard).ValiantDetours++
				n.detoursAt(shard).Add(1)
				return nm[rng.Intn(len(nm))]
			}
		}
		pkt.misrouted = true // minimal from here on
		return n.leastBacklogged(e, sw, cands)
	case RouteAdaptive:
		best := n.leastBacklogged(e, sw, cands)
		if !pkt.misrouted && n.nonMin != nil {
			bias := n.cfg.ValiantBias
			if bias == 0 {
				bias = sim.SerializationTime(n.cfg.MTU+HeaderBytes, n.cfg.LinkGbps)
			}
			minBacklog := n.outPorts[sw][best].Backlog(e)
			if minBacklog > bias {
				nm := n.nonMin.NonMinimalCandidates(sw, pkt.Dst, pool.nonMin[:0])
				pool.nonMin = nm
				if len(nm) > 0 {
					alt := n.leastBacklogged(e, sw, nm)
					// UGAL: detour when twice the non-minimal backlog still
					// beats the minimal backlog.
					if 2*n.outPorts[sw][alt].Backlog(e)+bias < minBacklog {
						pkt.misrouted = true
						n.statsAt(shard).ValiantDetours++
						n.detoursAt(shard).Add(1)
						n.mTimeline.Instant(pkt.Src, "fabric", "detour", e.Now())
						//rvmalint:allow hotalloc -- packet tracing is opt-in; untraced runs never enter this block
						if n.tracer != nil {
							n.tracer.Count("fabric.valiant_detours", 1)
							n.tracer.Eventf(trace.CatPacket, "detour #%d at sw%d", pkt.ID, sw)
						}
						return alt
					}
				}
			}
		}
		return best
	default:
		panic("fabric: unknown routing mode")
	}
}

// leastBacklogged returns the candidate whose output queue frees soonest,
// breaking ties in favor of the earliest candidate (keeping selection
// deterministic for a given simulation state).
func (n *Network) leastBacklogged(e *sim.Engine, sw int, cands []int) int {
	best := cands[0]
	bestBacklog := n.outPorts[sw][best].Backlog(e)
	for _, c := range cands[1:] {
		if b := n.outPorts[sw][c].Backlog(e); b < bestBacklog {
			best, bestBacklog = c, b
		}
	}
	return best
}

// deliver hands the packet to the destination host at the current time,
// unless failure injection claims it. Drops fire here — at destination
// ingress, after the packet consumed its full path budget of injection
// serialization, crossbar time, output queues and link hops — modeling a
// receiver-side CRC discard. A dropped packet therefore still congests
// the fabric and still influences adaptive-routing backlogs exactly as a
// delivered one; what changed from earlier builds is that the drop draw
// comes from the dedicated fault stream, so loss sweeps no longer shift
// the routing RNG and skew detour decisions for surviving packets. The
// fabric frees a dropped packet itself; a delivered one belongs to the
// host callback.
//
//rvmalint:hot
func (n *Network) deliver(node int, pkt *Packet) {
	e, shard := n.nodeCtx(node)
	fn := n.hosts[node]
	if fn == nil {
		panic(fmt.Sprintf("fabric: packet for unattached node %d", node))
	}
	fRNG := n.faultRNG
	if n.group != nil && n.faultSh != nil {
		fRNG = n.faultSh[node]
	}
	st := n.statsAt(shard)
	if fRNG != nil && n.dropPacket(node, e, fRNG) {
		st.PacketsDropped++
		st.BytesDropped += uint64(pkt.Size)
		n.dropsAt(shard).Add(1)
		n.mTimeline.Instant(node, "fabric", "drop", e.Now())
		//rvmalint:allow hotalloc -- packet tracing is opt-in; untraced runs never enter this block
		if n.tracer != nil {
			n.tracer.Count("fabric.packets_dropped", 1)
			n.tracer.Eventf(trace.CatPacket, "DROP #%d for node %d", pkt.ID, node)
		}
		n.Free(pkt)
		return
	}
	st.PacketsDelivered++
	st.BytesDelivered += uint64(pkt.Size)
	if sim.DebugEnabled {
		n.debugCheckDeliver(e, pkt)
	}
	st.TotalHops += uint64(pkt.Hops)
	st.TotalLatency += e.Now() - pkt.Injected
	mm := n.metricsAt(shard)
	mm.latency.ObserveTime(e.Now() - pkt.Injected)
	mm.hops.Observe(float64(pkt.Hops))
	//rvmalint:allow hotalloc -- packet tracing is opt-in; untraced runs never enter this block
	if n.tracer != nil {
		n.tracer.Count("fabric.packets_delivered", 1)
		n.tracer.Add("fabric.delivered_bytes", float64(pkt.Size))
		n.tracer.Eventf(trace.CatPacket, "deliver #%d at node %d after %d hops", pkt.ID, node, pkt.Hops)
	}
	fn(pkt)
}

// MeanPacketLatency returns the average injection-to-delivery latency.
func (n *Network) MeanPacketLatency() sim.Time {
	s := n.TotalStats()
	if s.PacketsDelivered == 0 {
		return 0
	}
	return s.TotalLatency / sim.Time(s.PacketsDelivered)
}

// MeanHops returns the average switch hops per delivered packet.
func (n *Network) MeanHops() float64 {
	s := n.TotalStats()
	if s.PacketsDelivered == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.PacketsDelivered)
}
