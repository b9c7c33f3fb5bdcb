package fabric

import (
	"testing"

	"rvma/internal/sim"
	"rvma/internal/topology"
)

// pooledNet builds a dragonfly with adaptive routing (jitter and Valiant
// detours enabled, so every routing branch's scratch buffers are
// exercised) whose hosts free each packet on delivery, like the NIC does.
func pooledNet(t testing.TB) (*sim.Engine, *Network) {
	t.Helper()
	topo, err := topology.ForNodeCount(topology.KindDragonfly, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Routing = RouteAdaptive
	cfg.AdaptiveJitter = 0.2
	eng := sim.NewEngine(3)
	net, err := New(eng, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < topo.NumNodes(); n++ {
		net.AttachHost(n, net.Free)
	}
	return eng, net
}

// injectBurst sends one packet from every node to the node half the
// machine away and runs the network dry.
func injectBurst(eng *sim.Engine, net *Network) {
	nodes := net.Topology().NumNodes()
	for src := 0; src < nodes; src++ {
		pkt := net.NewPacket(src)
		pkt.Dst = (src + nodes/2) % nodes
		pkt.Size = 2048
		net.Inject(pkt)
	}
	eng.Run()
}

// TestPacketPathAllocationFree is the steady-state allocation gate of the
// packet path: once the packet pool, the engine's event pool and the
// routing scratch are warm, a packet's whole life — NewPacket, Inject,
// every adaptive hop, delivery and Free — allocates nothing.
func TestPacketPathAllocationFree(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate covers release builds")
	}
	eng, net := pooledNet(t)
	for i := 0; i < 4; i++ {
		injectBurst(eng, net)
	}
	if allocs := testing.AllocsPerRun(20, func() { injectBurst(eng, net) }); allocs != 0 {
		t.Fatalf("warm packet path allocates %.1f times per %d-packet burst, want 0", allocs, net.Topology().NumNodes())
	}
	allocated, free := net.PacketPoolStats()
	if allocated == 0 || allocated != free {
		t.Fatalf("drained network: %d packets allocated, %d on free lists", allocated, free)
	}
	if s := net.TotalStats(); s.PacketsDelivered != s.PacketsInjected {
		t.Fatalf("delivered %d of %d packets", s.PacketsDelivered, s.PacketsInjected)
	}
}

// TestNewPacketResetsRecycledPacket checks a recycled packet carries
// nothing over from its previous life.
func TestNewPacketResetsRecycledPacket(t *testing.T) {
	eng, net := twoNodeNet(t, DefaultConfig())
	net.AttachHost(0, net.Free)
	net.AttachHost(1, net.Free)
	first := net.NewPacket(0)
	first.Dst, first.Size, first.Offset, first.Payload = 1, 512, 4096, "cmd"
	net.Inject(first)
	eng.Run()
	if first.Payload != nil {
		t.Fatal("Free must drop the payload so the pool never pins a command")
	}
	again := net.NewPacket(1)
	if again != first {
		t.Fatal("NewPacket on the destination's shard should reuse the freed packet")
	}
	if again.Src != 1 || again.Dst != 0 || again.Size != 0 || again.Offset != 0 || again.Payload != nil ||
		again.ID != 0 || again.Injected != 0 || again.Hops != 0 || again.QueueWait != 0 ||
		again.misrouted || again.next != nil || again.state != pktLive {
		t.Fatalf("recycled packet not reset: %+v", *again)
	}
}

// BenchmarkPacketPath measures one packet's life through a warm
// dragonfly/adaptive fabric: NewPacket, injection, every switch hop,
// delivery and Free. Run with -benchmem; steady state is 0 allocs/op.
func BenchmarkPacketPath(b *testing.B) {
	eng, net := pooledNet(b)
	injectBurst(eng, net)
	nodes := net.Topology().NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % nodes
		pkt := net.NewPacket(src)
		pkt.Dst = (src + nodes/2) % nodes
		pkt.Size = 2048
		net.Inject(pkt)
		if src == nodes-1 {
			eng.Run()
		}
	}
	eng.Run()
}
