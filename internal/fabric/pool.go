package fabric

import "rvma/internal/sim"

// Packet pooling. A packet's life runs from Network.NewPacket on its
// source node's shard to Network.Free on its destination node's shard:
// the receiving NIC frees it once the protocol handler returns, and the
// fabric frees a dropped packet itself. Each shard pushes to and pops from
// only its own free list, so packets migrate between shards with the
// handoffs that carry them and no list is ever shared. This mirrors the
// engine's Event free list: a freed *Packet may already back another
// message, so holding one past Free is a use-after-free, and simdebug
// builds assert against the detectable cases (see debug.go).

// Packet pool lifecycle states. The zero value is pktLive, so a packet
// built as a literal behaves exactly like one from NewPacket.
const (
	pktLive uint8 = iota
	pktFree
)

// packetPool is one shard's packet free list plus the routing scratch
// buffers its switches share (candidate lists live only within one
// selectPort call).
type packetPool struct {
	free      []*Packet
	allocated int // packet objects this shard ever created (pool misses)
	cands     []int
	nonMin    []int
}

// bindPackets sizes the per-shard pools and binds the hop steps once, so
// scheduling a packet's next hop allocates nothing.
func (n *Network) bindPackets(shards int) {
	n.pools = make([]packetPool, shards)
	n.atSwitchFn = func(p *Packet) { n.atSwitch(p.hop, p) }
	n.deliverFn = func(p *Packet) { n.deliver(p.hop, p) }
}

// Then arms the packet's pre-bound runner to call fn(p) and returns the
// runner, ready to schedule. The runner is built once per packet object
// and reused across hops and pool lives, which is sound because a packet
// sits in at most one scheduled event at a time.
func (p *Packet) Then(fn func(*Packet)) func() {
	if p.run == nil {
		//rvmalint:allow hotalloc -- one runner per packet object, built on its first hop and reused for every later hop and pool life
		p.run = p.step
	}
	p.next = fn
	return p.run
}

// step is the runner body: execute the armed step exactly once.
func (p *Packet) step() {
	if sim.DebugEnabled {
		sim.Assertf(p.state == pktLive, "fabric: packet #%d (%d->%d) dispatched after Free (use-after-free)",
			p.ID, p.Src, p.Dst)
	}
	fn := p.next
	p.next = nil
	fn(p)
}

// NewPacket returns a live packet from src with every other field zeroed,
// taken from the free list of src's shard. In sharded mode the caller must
// be executing on that shard, as for Inject.
//
//rvmalint:hot
func (n *Network) NewPacket(src int) *Packet {
	pool := &n.pools[n.nodeShardOf(src)]
	var p *Packet
	if k := len(pool.free); k > 0 {
		p = pool.free[k-1]
		pool.free[k-1] = nil
		pool.free = pool.free[:k-1]
		*p = Packet{run: p.run}
	} else {
		pool.allocated++
		//rvmalint:allow hotalloc -- pool miss: frees refill the list, so this runs O(peak packets in flight) times, not per packet
		p = &Packet{}
	}
	p.Src = src
	return p
}

// Free returns a delivered or dropped packet to the free list of its
// destination node's shard, which must be the executing shard. The packet
// must not be touched afterwards.
//
//rvmalint:hot
func (n *Network) Free(p *Packet) {
	if sim.DebugEnabled {
		sim.Assertf(p.state == pktLive, "fabric: packet #%d (%d->%d) freed twice", p.ID, p.Src, p.Dst)
	}
	p.state = pktFree
	p.Payload = nil // never pin a protocol command from the pool
	pool := &n.pools[n.nodeShardOf(p.Dst)]
	//rvmalint:allow hotalloc -- free-list growth is amortized; capacity stabilizes at peak packets in flight
	pool.free = append(pool.free, p)
}

// PacketPoolStats reports how many packet objects the pools ever created
// and how many sit on free lists now, summed over shards. Once a run has
// drained and every packet came from NewPacket, the two are equal. In
// sharded mode call it only while the group is quiescent.
func (n *Network) PacketPoolStats() (allocated, free int) {
	for i := range n.pools {
		allocated += n.pools[i].allocated
		free += len(n.pools[i].free)
	}
	return allocated, free
}
