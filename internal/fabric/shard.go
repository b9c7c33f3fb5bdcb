// Sharded fabric construction: the same packet network, partitioned
// across a sim.ShardGroup so independent regions of the topology execute
// concurrently.
//
// The partitioning rules exist to keep the sharded run byte-identical to
// its shards=1 twin:
//
//   - Every locus (one node or one switch) is owned by exactly one shard,
//     and every piece of mutable fabric state — resource queues, RNG
//     substreams, priority counters, packet-ID counters, per-shard stats —
//     is touched only by its owner's window. No locks, no atomics, no
//     races.
//   - Every fabric-scheduled event carries a priority unique to its
//     sending locus (pri = -(1 + count*numLoci + locus)), so cross-shard
//     handoffs can never tie with any other event at the same timestamp:
//     heap order, and therefore execution order, is a pure function of
//     model state, independent of the shard count.
//   - Random draws come from per-locus substreams derived with
//     sim.SeedFor, so a switch's jitter sequence depends on the packets
//     that switch saw, not on global execution order.
//
// Cross-shard posts are always at least one link delay in the future,
// which is exactly the group's lookahead (LookaheadFor), so conservative
// synchronization never stalls a legal event.
package fabric

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/sim"
	"rvma/internal/telemetry"
	"rvma/internal/topology"
)

// fabMetrics is one shard's set of per-event metric handles. All handles
// are nil-safe, so an unattached registry costs one nil check per hook,
// same as the legacy path.
type fabMetrics struct {
	latency *metrics.Histogram
	hops    *metrics.Histogram
	drops   *metrics.Counter
	detours *metrics.Counter
}

// LookaheadFor returns the minimum simulated time any packet spends on a
// cable under cfg — the conservative synchronization window a sharded run
// of this fabric can use. Static routing never jitters, so the window is
// the full link latency; jittered routing can shrink a hop to
// ScaleF(latency, 1-jitter) (the exact floor of sim.RNG.Jitter). An error
// means the configuration leaves no usable window (e.g. jitter >= 1).
func LookaheadFor(cfg Config) (sim.Time, error) {
	la := cfg.LinkLatency
	if cfg.AdaptiveJitter > 0 && cfg.Routing != RouteStatic {
		la = sim.ScaleF(cfg.LinkLatency, 1-cfg.AdaptiveJitter)
	}
	if la < 1 {
		return 0, fmt.Errorf("fabric: config leaves no sharding lookahead (link latency %v, jitter %v); need a positive minimum link delay",
			cfg.LinkLatency, cfg.AdaptiveJitter)
	}
	return la, nil
}

// NewSharded builds a network over topo that executes on the shard group
// g. seed feeds the per-locus RNG substreams (pass the same model seed the
// group was built from; the substreams are derived, never shared, so the
// draw sequences are identical at any shard count). The group's lookahead
// must not exceed LookaheadFor(cfg), or conservative synchronization would
// be unsound.
func NewSharded(g *sim.ShardGroup, topo topology.Topology, cfg Config, seed uint64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	la, err := LookaheadFor(cfg)
	if err != nil {
		return nil, err
	}
	if g.Lookahead() > la {
		return nil, fmt.Errorf("fabric: shard group lookahead %v exceeds minimum link delay %v", g.Lookahead(), la)
	}
	nodes, switches := topo.NumNodes(), topo.NumSwitches()
	n := &Network{
		eng:   g.Shard(0).Tag("fabric"),
		topo:  topo,
		cfg:   cfg,
		hosts: make([]DeliverFunc, nodes),
		group: g,
	}
	n.outPorts = make([][]*sim.Resource, switches)
	n.xbars = make([]*sim.Resource, switches)
	for sw := 0; sw < switches; sw++ {
		ports := topo.Ports(sw)
		n.outPorts[sw] = make([]*sim.Resource, len(ports))
		for pi := range ports {
			n.outPorts[sw][pi] = sim.NewResource(fmt.Sprintf("sw%d.p%d", sw, pi))
		}
		n.xbars[sw] = sim.NewResource(fmt.Sprintf("sw%d.xbar", sw))
	}
	n.hostTx = make([]*sim.Resource, nodes)
	for i := range n.hostTx {
		n.hostTx[i] = sim.NewResource(fmt.Sprintf("host%d.tx", i))
	}
	n.nonMin, _ = topo.(topology.NonMinimalRouter)
	n.bindPackets(g.Shards())

	n.tags = make([]sim.Tagged, g.Shards())
	for i := range n.tags {
		n.tags[i] = g.Shard(i).Tag("fabric")
	}
	n.nodeShard, n.swShard = shardPlan(topo, g.Shards())
	n.numLoci = nodes + switches
	n.priCount = make([]uint64, n.numLoci)
	n.nextIDs = make([]uint64, nodes)

	n.swRNG = make([]*sim.RNG, switches)
	for sw := range n.swRNG {
		n.swRNG[sw] = sim.NewRNG(sim.SeedFor(seed, "fabric-switch", sw))
	}
	n.hostRNG = make([]*sim.RNG, nodes)
	for i := range n.hostRNG {
		n.hostRNG[i] = sim.NewRNG(sim.SeedFor(seed, "fabric-host", i))
	}
	n.faults = cfg.effectivePlan()
	if n.faults.Enabled() {
		n.faultSh = make([]*sim.RNG, nodes)
		for i := range n.faultSh {
			n.faultSh[i] = sim.NewRNG(sim.SeedFor(seed, "fabric-fault", i))
		}
		n.burstLeft = make([]int, nodes)
	}
	n.statsSh = make([]Stats, g.Shards())
	return n, nil
}

// shardPlan assigns loci to shards: nodes in contiguous rank blocks
// (node*k/nodes, matching how motifs lay communication out), and each
// switch with attached hosts to the shard of its lowest-numbered host —
// keeping a node's first/last hop on its own shard so only inter-switch
// hops cross. Hostless (spine) switches spread evenly.
func shardPlan(topo topology.Topology, k int) (nodeShard, swShard []int) {
	nodes, switches := topo.NumNodes(), topo.NumSwitches()
	nodeShard = make([]int, nodes)
	for i := range nodeShard {
		nodeShard[i] = i * k / nodes
	}
	swShard = make([]int, switches)
	for sw := 0; sw < switches; sw++ {
		host := -1
		for _, p := range topo.Ports(sw) {
			if p.Kind == topology.HostPort && (host == -1 || p.Node < host) {
				host = p.Node
			}
		}
		if host >= 0 {
			swShard[sw] = nodeShard[host]
		} else {
			swShard[sw] = sw * k / switches
		}
	}
	return nodeShard, swShard
}

// Sharded reports whether the network executes on a shard group.
func (n *Network) Sharded() bool { return n.group != nil }

// Group returns the shard group, or nil in legacy single-heap mode.
func (n *Network) Group() *sim.ShardGroup { return n.group }

// NodeShard returns the shard owning node's locus (0 in legacy mode).
// Higher layers use it to place per-node components (NIC, endpoints) on
// the engine that will execute their events.
func (n *Network) NodeShard(node int) int {
	if n.group == nil {
		return 0
	}
	return n.nodeShard[node]
}

// nodeCtx returns the engine and shard executing node-side events.
func (n *Network) nodeCtx(node int) (*sim.Engine, int) {
	if n.group == nil {
		return n.eng.Engine, 0
	}
	s := n.nodeShard[node]
	return n.group.Shard(s), s
}

// swCtx returns the engine and shard executing switch sw's events.
func (n *Network) swCtx(sw int) (*sim.Engine, int) {
	if n.group == nil {
		return n.eng.Engine, 0
	}
	s := n.swShard[sw]
	return n.group.Shard(s), s
}

func (n *Network) nodeShardOf(node int) int {
	if n.group == nil {
		return 0
	}
	return n.nodeShard[node]
}

func (n *Network) switchShard(sw int) int {
	if n.group == nil {
		return 0
	}
	return n.swShard[sw]
}

// nodeLocus and switchLocus map components onto the unique-priority index
// space: nodes first, then switches.
func (n *Network) nodeLocus(node int) int { return node }
func (n *Network) switchLocus(sw int) int { return len(n.hosts) + sw }

// sched books fn at absolute time at on dstShard, on behalf of srcLocus
// (whose owner srcShard must be the currently executing shard). Legacy
// mode schedules on the single engine with default priority — unchanged
// event stream. Sharded mode allocates a locus-unique negative priority so
// the event can never tie with another at the same timestamp, which is
// what makes the merged execution order independent of the shard count.
func (n *Network) sched(srcShard, srcLocus, dstShard int, at sim.Time, fn func()) {
	if n.group == nil {
		n.eng.At(at, fn)
		return
	}
	pri := -(1 + int(n.priCount[srcLocus])*n.numLoci + srcLocus)
	n.priCount[srcLocus]++
	if srcShard == dstShard {
		n.tags[dstShard].AtP(at, pri, fn)
		return
	}
	n.group.Post(srcShard, dstShard, at, pri, n.tags[dstShard].Label(), fn)
}

// statsAt returns the counter block the given shard may write.
func (n *Network) statsAt(shard int) *Stats {
	if n.group == nil {
		return &n.Stats
	}
	return &n.statsSh[shard]
}

// TotalStats aggregates fabric counters across shards; in legacy mode it
// returns the single Stats block. In sharded mode call it only while the
// group is quiescent (before Run or after it returns).
func (n *Network) TotalStats() Stats {
	if n.group == nil {
		return n.Stats
	}
	var t Stats
	for i := range n.statsSh {
		s := &n.statsSh[i]
		t.PacketsInjected += s.PacketsInjected
		t.PacketsDelivered += s.PacketsDelivered
		t.PacketsDropped += s.PacketsDropped
		t.BytesDelivered += s.BytesDelivered
		t.BytesDropped += s.BytesDropped
		t.TotalHops += s.TotalHops
		t.TotalLatency += s.TotalLatency
		t.ValiantDetours += s.ValiantDetours
	}
	return t
}

func (n *Network) metricsAt(shard int) fabMetrics {
	if n.msh == nil {
		return fabMetrics{latency: n.mLatency, hops: n.mHops, drops: n.mDrops, detours: n.mDetours}
	}
	return n.msh[shard]
}

func (n *Network) dropsAt(shard int) *metrics.Counter {
	if n.msh == nil {
		return n.mDrops
	}
	return n.msh[shard].drops
}

func (n *Network) detoursAt(shard int) *metrics.Counter {
	if n.msh == nil {
		return n.mDetours
	}
	return n.msh[shard].detours
}

// SetMetricsSharded attaches per-shard registries for the per-event
// handles (latency/hops histograms, drop/detour counters — each shard
// writes only its own, and the harness merges registries after the run)
// plus snapshot-time aggregate collectors on primary. The aggregate
// collectors read resource state directly, which is only safe while the
// group is quiescent — exactly when metrics snapshots are taken.
func (n *Network) SetMetricsSharded(primary *metrics.Registry, shards []*metrics.Registry) {
	if n.group == nil {
		panic("fabric: SetMetricsSharded on a single-heap network")
	}
	if len(shards) != n.group.Shards() {
		panic(fmt.Sprintf("fabric: %d shard registries for %d shards", len(shards), n.group.Shards()))
	}
	n.msh = make([]fabMetrics, len(shards))
	for i, reg := range shards {
		n.msh[i] = fabMetrics{
			latency: reg.Histogram("fabric.packet_latency_ns"),
			hops:    reg.Histogram("fabric.packet_hops"),
			drops:   reg.Counter("fabric.packets_dropped"),
			detours: reg.Counter("fabric.valiant_detours"),
		}
	}
	e := n.eng.Engine // clocks are synchronized whenever collectors run
	perSwitch := n.topo.NumSwitches() <= maxPerSwitchGauges
	primary.AddCollector(func() {
		var busy, uses float64
		var util, maxUtil float64
		links := 0
		for sw := range n.outPorts {
			var backlog sim.Time
			for _, p := range n.outPorts[sw] {
				backlog += p.Backlog(e)
				u := p.Utilization(e)
				util += u
				if u > maxUtil {
					maxUtil = u
				}
				busy += p.BusyTime().Nanoseconds()
				uses += float64(p.Uses())
				links++
			}
			if perSwitch {
				primary.Gauge(fmt.Sprintf("fabric.sw%d.queue_ns", sw)).Set(backlog.Nanoseconds())
			}
		}
		if links > 0 {
			primary.Gauge("fabric.link_util_mean").Set(util / float64(links))
			primary.Gauge("fabric.link_util_max").Set(maxUtil)
			primary.Gauge("fabric.link_busy_ns_total").Set(busy)
			primary.Gauge("fabric.link_uses_total").Set(uses)
		}
		var hostUtil float64
		for _, h := range n.hostTx {
			hostUtil += h.Utilization(e)
		}
		if len(n.hostTx) > 0 {
			primary.Gauge("fabric.host_tx_util_mean").Set(hostUtil / float64(len(n.hostTx)))
		}
	})
}

// RegisterTelemetrySharded registers the fabric's probes on a shard set.
// Cross-shard columns are declared with a merge kind (integer-sum in
// picoseconds for backlog, plain sum for counters, max for the worst
// queue) so the merged CSV is byte-identical to what a shards=1 run
// writes; per-switch columns live on the switch's owning shard only.
func (n *Network) RegisterTelemetrySharded(ss *telemetry.ShardSet) {
	if n.group == nil {
		panic("fabric: RegisterTelemetrySharded on a single-heap network")
	}
	if ss == nil {
		return
	}
	swByShard := make([][]int, n.group.Shards())
	for sw, s := range n.swShard {
		swByShard[s] = append(swByShard[s], sw)
	}
	ss.Register("fabric.queue_ns_total", telemetry.KindSumPS, func(shard int) float64 {
		e := n.group.Shard(shard)
		var backlog sim.Time
		for _, sw := range swByShard[shard] {
			for _, p := range n.outPorts[sw] {
				backlog += p.Backlog(e)
			}
		}
		return backlog.Picoseconds()
	})
	ss.Register("fabric.queue_ns_max", telemetry.KindMax, func(shard int) float64 {
		e := n.group.Shard(shard)
		var worst sim.Time
		for _, sw := range swByShard[shard] {
			for _, p := range n.outPorts[sw] {
				if b := p.Backlog(e); b > worst {
					worst = b
				}
			}
		}
		return worst.Nanoseconds()
	})
	ss.Register("fabric.packets_delivered", telemetry.KindSum, func(shard int) float64 {
		return float64(n.statsSh[shard].PacketsDelivered)
	})
	ss.Register("fabric.valiant_detours", telemetry.KindSum, func(shard int) float64 {
		return float64(n.statsSh[shard].ValiantDetours)
	})
	if n.topo.NumSwitches() > maxPerSwitchGauges {
		return
	}
	for sw := range n.outPorts {
		sw := sw
		ports := n.outPorts[sw]
		owner := n.swShard[sw]
		e := n.group.Shard(owner)
		ss.RegisterLocal(fmt.Sprintf("fabric.queue_ns.sw%03d", sw), owner, func() float64 {
			var backlog sim.Time
			for _, p := range ports {
				backlog += p.Backlog(e)
			}
			return backlog.Nanoseconds()
		})
		var prevBusy, prevAt sim.Time
		ss.RegisterLocal(fmt.Sprintf("%s%03d", TelemetryHeatmapPrefix, sw), owner, func() float64 {
			var busy sim.Time
			for _, p := range ports {
				busy += p.BusyTime()
			}
			now := e.Now()
			dt, db := now-prevAt, busy-prevBusy
			prevBusy, prevAt = busy, now
			if dt <= 0 || len(ports) == 0 {
				return 0
			}
			return sim.Ratio(db, dt) / float64(len(ports))
		})
	}
}
