package motif

import (
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/topology"
)

// smallTopo returns a compact dragonfly for motif tests.
func smallTopo(t *testing.T, nodes int) topology.Topology {
	t.Helper()
	topo, err := topology.ForNodeCount(topology.KindDragonfly, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func runSweep(t *testing.T, kind TransportKind, routing fabric.RoutingMode, nodes int) sim.Time {
	t.Helper()
	topo := smallTopo(t, nodes)
	cfg := DefaultClusterConfig(topo, kind)
	cfg.Routing = routing
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func runHalo(t *testing.T, kind TransportKind, routing fabric.RoutingMode, nodes int) sim.Time {
	t.Helper()
	topo := smallTopo(t, nodes)
	cfg := DefaultClusterConfig(topo, kind)
	cfg.Routing = routing
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := RunHalo3D(c, DefaultHalo3DConfig(topo.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestSweep3DCompletesAllTransports(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		for _, routing := range []fabric.RoutingMode{fabric.RouteStatic, fabric.RouteAdaptive, fabric.RouteValiant} {
			if tm := runSweep(t, kind, routing, 32); tm <= 0 {
				t.Fatalf("%v/%v: zero makespan", kind, routing)
			}
		}
	}
}

func TestHalo3DCompletesAllTransports(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		for _, routing := range []fabric.RoutingMode{fabric.RouteStatic, fabric.RouteAdaptive} {
			if tm := runHalo(t, kind, routing, 32); tm <= 0 {
				t.Fatalf("%v/%v: zero makespan", kind, routing)
			}
		}
	}
}

func TestIncastCompletes(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		topo := smallTopo(t, 32)
		cfg := DefaultClusterConfig(topo, kind)
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := RunIncast(c, DefaultIncastConfig())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if tm <= 0 {
			t.Fatalf("%v: zero makespan", kind)
		}
	}
}

// The paper's central Figure 7 claim, in miniature: RVMA beats RDMA on
// Sweep3D under adaptive routing, and the advantage grows with link speed.
func TestSweepRVMABeatsRDMAAdaptive(t *testing.T) {
	speedupAt := func(gbps float64) float64 {
		topo := smallTopo(t, 64)
		times := map[TransportKind]sim.Time{}
		for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
			cfg := DefaultClusterConfig(topo, kind)
			cfg.Routing = fabric.RouteAdaptive
			cfg.ApplyLinkSpeed(gbps)
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes()))
			if err != nil {
				t.Fatal(err)
			}
			times[kind] = tm
		}
		return stats.Speedup(times[KindRDMA].Seconds(), times[KindRVMA].Seconds())
	}
	slow := speedupAt(100)
	fast := speedupAt(2000)
	if slow <= 1.1 {
		t.Fatalf("speedup at 100G = %.2f, want RVMA clearly ahead", slow)
	}
	if fast <= slow {
		t.Fatalf("speedup must grow with link speed: %.2f @100G vs %.2f @2T", slow, fast)
	}
	if fast < 2 {
		t.Fatalf("speedup at 2T = %.2f, want >= 2x (paper: 4.4x at scale)", fast)
	}
}

// Halo3D: RVMA also wins, by a smaller factor (paper Figure 8).
func TestHaloRVMABeatsRDMA(t *testing.T) {
	rv := runHalo(t, KindRVMA, fabric.RouteAdaptive, 64)
	rd := runHalo(t, KindRDMA, fabric.RouteAdaptive, 64)
	sp := stats.Speedup(rd.Seconds(), rv.Seconds())
	if sp <= 1.0 {
		t.Fatalf("halo speedup = %.2f, want > 1", sp)
	}
	swRv := runSweep(t, KindRVMA, fabric.RouteAdaptive, 64)
	swRd := runSweep(t, KindRDMA, fabric.RouteAdaptive, 64)
	if stats.Speedup(swRd.Seconds(), swRv.Seconds()) <= sp {
		t.Fatalf("latency-bound sweep3d should benefit more than bandwidth-bound halo3d")
	}
}

// Determinism: identical configuration and seed reproduce identical
// makespans — the property a discrete-event simulation must keep.
func TestMotifDeterminism(t *testing.T) {
	a := runSweep(t, KindRVMA, fabric.RouteAdaptive, 32)
	b := runSweep(t, KindRVMA, fabric.RouteAdaptive, 32)
	if a != b {
		t.Fatalf("same seed produced %v then %v", a, b)
	}
}

// Different seeds may differ (adaptive tie-breaks), but must still finish.
func TestMotifSeedVariation(t *testing.T) {
	topo := smallTopo(t, 32)
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultClusterConfig(topo, KindRVMA)
		cfg.Seed = seed
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes())); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRDMAMoreBuffersHelps(t *testing.T) {
	topo := smallTopo(t, 64)
	run := func(bufs int) sim.Time {
		cfg := DefaultClusterConfig(topo, KindRDMA)
		cfg.RDMABuffers = bufs
		cfg.ApplyLinkSpeed(400)
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes()))
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	one, four := run(1), run(4)
	if four >= one {
		t.Fatalf("deeper credit pipelining should help RDMA: 1buf=%v 4buf=%v", one, four)
	}
	// But it must not erase RVMA's advantage (the completion send remains).
	cfg := DefaultClusterConfig(topo, KindRVMA)
	cfg.ApplyLinkSpeed(400)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if rv >= four {
		t.Fatalf("RVMA (%v) should still beat 4-buffer RDMA (%v)", rv, four)
	}
}

func TestSweepConfigValidation(t *testing.T) {
	cfg := DefaultSweep3DConfig(16)
	if err := cfg.Validate(16); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(15); err == nil {
		t.Fatal("grid/rank mismatch should fail")
	}
	bad := cfg
	bad.KBA = 7 // does not divide Nz=64
	if err := bad.Validate(16); err == nil {
		t.Fatal("non-dividing KBA should fail")
	}
	bad = cfg
	bad.Vars = 0
	if err := bad.Validate(16); err == nil {
		t.Fatal("zero vars should fail")
	}
}

func TestHaloConfigValidation(t *testing.T) {
	cfg := DefaultHalo3DConfig(27)
	if cfg.Px*cfg.Py*cfg.Pz != 27 {
		t.Fatalf("cubest(27) gave %dx%dx%d", cfg.Px, cfg.Py, cfg.Pz)
	}
	if err := cfg.Validate(27); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(26); err == nil {
		t.Fatal("mismatch should fail")
	}
}

func TestIncastConfigValidation(t *testing.T) {
	topo := topology.NewSingleSwitch(1)
	cfg := DefaultClusterConfig(topo, KindRVMA)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunIncast(c, DefaultIncastConfig()); err == nil {
		t.Fatal("single-node incast should fail")
	}
}

func TestSquarestAndCubest(t *testing.T) {
	if a, b := squarest(72); a*b != 72 || a > b {
		t.Fatalf("squarest(72) = %d,%d", a, b)
	}
	if a, b := squarest(64); a != 8 || b != 8 {
		t.Fatalf("squarest(64) = %d,%d", a, b)
	}
	if a, b, c := cubest(64); a != 4 || b != 4 || c != 4 {
		t.Fatalf("cubest(64) = %d,%d,%d", a, b, c)
	}
	if a, b, c := cubest(30); a*b*c != 30 {
		t.Fatalf("cubest(30) = %d,%d,%d", a, b, c)
	}
}

func TestApplyLinkSpeedScalesSubstrate(t *testing.T) {
	topo := topology.NewSingleSwitch(2)
	cfg := DefaultClusterConfig(topo, KindRVMA)
	baseProc := cfg.NIC.RecvPacketProc
	cfg.ApplyLinkSpeed(2000)
	if cfg.Fabric.LinkGbps != 2000 {
		t.Fatal("link speed not applied")
	}
	if cfg.NIC.RecvPacketProc >= baseProc {
		t.Fatal("NIC pipeline must speed up with the link")
	}
	if cfg.PCIe.GBps < 2000/8*1.5 {
		t.Fatalf("bus bandwidth %v GB/s cannot feed a 2Tbps link", cfg.PCIe.GBps)
	}
}

func TestApplyLinkSpeedInvalidPanics(t *testing.T) {
	cfg := DefaultClusterConfig(topology.NewSingleSwitch(2), KindRVMA)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive speed should panic")
		}
	}()
	cfg.ApplyLinkSpeed(0)
}

// TestRVMANoBufferRetryDeliversEveryMessage drives the RVMA transport's
// NACK retry path: a sender posts a burst of puts without waiting for any
// of them into a mailbox that keeps one buffer posted, so most of the
// burst finds the mailbox empty before the completion handler reposts,
// draws a no-buffer NACK and is retried after a backoff. Every message
// must still arrive, exactly once.
func TestRVMANoBufferRetryDeliversEveryMessage(t *testing.T) {
	cfg := DefaultClusterConfig(topology.NewSingleSwitch(2), KindRVMA)
	cfg.RVMADepth = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const msgs, size = 16, 4096
	rx, tx := c.Transports[0], c.Transports[1]
	received := 0
	c.Tag.Spawn("rx", func(p *sim.Process) {
		p.Wait(rx.Prepare([]int{1}, nil, size))
		for i := 0; i < msgs; i++ {
			p.Wait(rx.Recv(1, size))
			received++
		}
	})
	c.Tag.Spawn("tx", func(p *sim.Process) {
		p.Wait(tx.Prepare(nil, []int{0}, size))
		sent := make([]*sim.Future, msgs)
		for i := range sent {
			sent[i] = tx.Send(0, size)
		}
		p.WaitAll(sent...)
	})
	c.run()
	if received != msgs {
		t.Fatalf("received %d of %d messages", received, msgs)
	}
	if c.NACKTotal() == 0 {
		t.Fatal("the burst drew no NACKs; the retry path went unexercised")
	}
	if got := c.rvmaEPs[0].Stats.PutsPlaced; got != msgs {
		t.Fatalf("receiver placed %d messages, want %d", got, msgs)
	}
}
