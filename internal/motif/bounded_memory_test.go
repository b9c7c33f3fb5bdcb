package motif

import (
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/recovery"
	"rvma/internal/topology"
)

// regionsPerNode returns each RVMA endpoint's allocated region count.
func regionsPerNode(c *Cluster) []int {
	out := make([]int, len(c.rvmaEPs))
	for i, ep := range c.rvmaEPs {
		out[i] = ep.Memory().RegionCount()
	}
	return out
}

// checkSameRegions fails unless two runs that differ only in length end
// with identical per-node region counts: buffers are reposted, never
// minted per message, so host memory does not grow with the run.
func checkSameRegions(t *testing.T, short, long []int) {
	t.Helper()
	if len(short) == 0 || len(short) != len(long) {
		t.Fatalf("node counts %d vs %d", len(short), len(long))
	}
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("node %d: %d regions after the short run, %d after the long one", i, short[i], long[i])
		}
	}
}

// TestSweep3DRegionsBounded: a Sweep3D RVMA cell at 4 iterations ends with
// the same region count on every node as at 1 iteration.
func TestSweep3DRegionsBounded(t *testing.T) {
	run := func(iters int) ([]int, int) {
		topo := smallTopo(t, 32)
		c, err := NewCluster(DefaultClusterConfig(topo, KindRVMA))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultSweep3DConfig(topo.NumNodes())
		cfg.Iterations = iters
		if _, err := RunSweep3D(c, cfg); err != nil {
			t.Fatal(err)
		}
		var completions int
		for _, ep := range c.rvmaEPs {
			completions += int(ep.Stats.Completions)
		}
		return regionsPerNode(c), completions
	}
	short, n1 := run(1)
	long, n4 := run(4)
	if n4 != 4*n1 || n1 == 0 {
		t.Fatalf("completions %d at 1 iteration, %d at 4: the longer run did not do 4x the work", n1, n4)
	}
	checkSameRegions(t, short, long)
}

// TestKVRegionsBoundedUnderRecovery: the KV cell with loss and recovery
// (history depth 2, window-guard reclaims) ends with the same per-node
// region count at 128 ops/proxy as at 32.
func TestKVRegionsBoundedUnderRecovery(t *testing.T) {
	run := func(ops int) ([]int, uint64) {
		topo, err := topology.ForNodeCount(topology.KindDragonfly, 16)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultClusterConfig(topo, KindRVMA)
		cfg.Faults = &fabric.FaultPlan{DropRate: 0.05}
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kcfg := DefaultKVConfig(topo.NumNodes())
		kcfg.Seed = cfg.Seed
		kcfg.OpsPerProxy = ops
		_, res, err := RunKV(c, kcfg)
		if err != nil {
			t.Fatalf("RunKV at %d ops/proxy: %v", ops, err)
		}
		if want := uint64(res.Proxies * ops); res.Completed != want {
			t.Fatalf("%d ops/proxy: completed %d of %d", ops, res.Completed, want)
		}
		return regionsPerNode(c), c.RecoveryStats().Retransmits
	}
	short, _ := run(32)
	long, rexmit := run(128)
	if rexmit == 0 {
		t.Fatal("no retransmits at 5% loss: recovery was not exercised")
	}
	checkSameRegions(t, short, long)
}
