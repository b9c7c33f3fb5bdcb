package motif

import (
	"fmt"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/recovery"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// poolRunOut is what one drained Halo3D cell reports about its packets.
type poolRunOut struct {
	makespan        sim.Time
	stats           fabric.Stats
	allocated, free int
}

func runPooledHalo(t *testing.T, kind TransportKind, shards int, faults bool) poolRunOut {
	t.Helper()
	topo, err := topology.ForNodeCount(topology.KindDragonfly, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(topo, kind)
	cfg.Shards = shards
	if faults {
		cfg.Faults = &fabric.FaultPlan{DropRate: 0.05}
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hc := DefaultHalo3DConfig(topo.NumNodes())
	hc.Iterations = 3
	mk, err := RunHalo3D(c, hc)
	if err != nil {
		t.Fatal(err)
	}
	out := poolRunOut{makespan: mk, stats: c.Net.TotalStats()}
	out.allocated, out.free = c.Net.PacketPoolStats()
	return out
}

// TestPacketPoolsDrainAcrossShards checks the sharded packet pools leak
// nothing: packets are allocated on the source node's shard and freed on
// the destination's (delivered by the NIC, dropped by the fabric), so
// after a drained Halo3D cell every packet object ever created sits on
// some shard's free list. Results must match the shards=1 run exactly.
func TestPacketPoolsDrainAcrossShards(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faults=%v", kind, faults), func(t *testing.T) {
				var base poolRunOut
				for _, shards := range []int{1, 4} {
					got := runPooledHalo(t, kind, shards, faults)
					if got.allocated == 0 || got.allocated != got.free {
						t.Errorf("shards=%d: %d packets allocated, %d on free lists after drain",
							shards, got.allocated, got.free)
					}
					if faults && got.stats.PacketsDropped == 0 {
						t.Errorf("shards=%d: lossy run dropped nothing; the fabric's own Free is untested", shards)
					}
					if shards == 1 {
						base = got
						continue
					}
					if got.makespan != base.makespan {
						t.Errorf("shards=%d makespan %v, want %v", shards, got.makespan, base.makespan)
					}
					if got.stats != base.stats {
						t.Errorf("shards=%d stats %+v, want %+v", shards, got.stats, base.stats)
					}
				}
			})
		}
	}
}
