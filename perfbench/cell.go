package main

import (
	"fmt"
	"time"

	"rvma/internal/attrib"
	"rvma/internal/fabric"
	"rvma/internal/harness"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/pcie"
	"rvma/internal/recovery"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// cellSpec is one simulation the benchmark builds and runs itself through
// the public motif API, configured the way the harness configures a
// figure cell.
type cellSpec struct {
	Label   string
	Motif   string // "sweep3d", "halo3d" or "kv"
	Kind    motif.TransportKind
	Topo    topology.Kind
	Routing fabric.RoutingMode
	Nodes   int
	Gbps    float64
	// Drop > 0 injects uniform receiver-ingress loss and enables the
	// recovery layer with its default policy.
	Drop float64
	KV   harness.KVParams
	// Spans attaches a span-enabled metrics registry, and Attrib the
	// latency-attribution collector on top of it: the observers every
	// harness figure cell carries.
	Spans, Attrib bool
}

// cellRun is what one cell run produced: the simulated outputs that make
// up the fingerprint, the op accounting, and the host time of each phase.
type cellRun struct {
	Err      error // run error or recovered panic; nil on success
	Makespan sim.Time
	Events   uint64
	Fabric   fabric.Stats
	NACKs    uint64
	Rewinds  uint64
	Recovery recovery.Stats
	KV       *motif.KVResult

	// Recvs counts Transport.Recv calls; Expected is the message count
	// the motif's definition implies (Sweep3D/Halo3D) or twice the
	// completed ops (KV: one request and one reply each).
	Recvs, Expected      uint64
	Attempted, Completed uint64

	// Host seconds: topology build, cluster build, motif planning up to
	// the engine's first event, and the engine run from there on.
	TopoS, ClusterS, PlanS, RunS float64

	// Chain is the ledger chain head of a traced run ("" untraced).
	Chain   string
	Cluster *motif.Cluster
	Reg     *metrics.Registry
}

// SetupS is the host time before the engine executed its first event.
func (r *cellRun) SetupS() float64 { return r.TopoS + r.ClusterS + r.PlanS }

// WallS is the cell's host time from topology build to results.
func (r *cellRun) WallS() float64 { return r.SetupS() + r.RunS }

// countingTransport counts Recv calls and nothing else, so the untraced
// run's op accounting costs one increment and no allocation per call.
type countingTransport struct {
	motif.Transport
	recvs *uint64
}

func (t countingTransport) Recv(src, size int) *sim.Future {
	*t.recvs++
	return t.Transport.Recv(src, size)
}

// runCell builds and runs one cell. With tr == nil it is the untraced
// run; otherwise tr attaches the ledger profiler, the heartbeat depth
// sampler and the timing transport wrappers, and accumulates what they
// record. A panic anywhere in the run is recovered into Err.
func runCell(spec cellSpec, seed uint64, tr *tracer) (run cellRun) {
	t0 := time.Now()
	var firstEvent time.Time
	defer func() {
		if r := recover(); r != nil {
			run.Err = fmt.Errorf("panic: %v", r)
		}
		end := time.Now()
		if firstEvent.IsZero() {
			firstEvent = end
		}
		run.PlanS = firstEvent.Sub(t0).Seconds() - run.TopoS - run.ClusterS
		run.RunS = end.Sub(firstEvent).Seconds()
		run.collect(spec)
		if tr != nil {
			run.Chain = tr.detach()
		}
	}()

	topo, err := topology.ForNodeCount(spec.Topo, spec.Nodes)
	if err != nil {
		run.Err = err
		return run
	}
	run.TopoS = time.Since(t0).Seconds()
	cfg := motif.DefaultClusterConfig(topo, spec.Kind)
	cfg.Routing = spec.Routing
	cfg.Seed = seed
	cfg.PCIe = pcie.Gen4x16()
	cfg.ApplyLinkSpeed(spec.Gbps)
	if spec.Drop > 0 {
		cfg.Faults = &fabric.FaultPlan{DropRate: spec.Drop}
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
	}
	c, err := motif.NewCluster(cfg)
	if err != nil {
		run.Err = err
		return run
	}
	run.Cluster = c
	run.ClusterS = time.Since(t0).Seconds() - run.TopoS

	if spec.Spans {
		run.Reg = metrics.NewRegistry()
		run.Reg.EnableSpans()
		c.AttachShardMetrics(run.Reg)
		if spec.Attrib {
			c.AttachAttribution(run.Reg, attrib.NewCollector(0))
		}
	}
	// The heartbeat fires after the first executed event and stamps the
	// end of setup; a traced run then re-arms it as the depth sampler.
	c.Eng.SetHeartbeat(1, func() {
		firstEvent = time.Now()
		c.Eng.SetHeartbeat(0, nil)
		if tr != nil {
			tr.armHeartbeat(c.Eng)
		}
	})
	if tr != nil {
		tr.attach(c, &run.Recvs)
	} else {
		for i, tp := range c.Transports {
			c.Transports[i] = countingTransport{Transport: tp, recvs: &run.Recvs}
		}
	}

	ranks := len(c.Transports)
	switch spec.Motif {
	case "sweep3d":
		mc := motif.DefaultSweep3DConfig(ranks)
		run.Expected = sweep3DMessages(mc)
		run.Attempted = run.Expected
		run.Makespan, run.Err = motif.RunSweep3D(c, mc)
	case "halo3d":
		mc := motif.DefaultHalo3DConfig(ranks)
		run.Expected = halo3DMessages(mc)
		run.Attempted = run.Expected
		run.Makespan, run.Err = motif.RunHalo3D(c, mc)
	case "kv":
		mc := spec.KV.Config(ranks, seed)
		run.Attempted = uint64(ranks-mc.Servers) * uint64(mc.OpsPerProxy)
		run.Makespan, run.KV, run.Err = motif.RunKV(c, mc)
	default:
		run.Err = fmt.Errorf("unknown motif %q", spec.Motif)
	}
	c.FinishMetrics(run.Reg)
	return run
}

// collect reads the cluster's counters once the run has ended (or failed)
// and settles the op accounting: a cell that errored completes nothing.
func (run *cellRun) collect(spec cellSpec) {
	c := run.Cluster
	if c == nil {
		return
	}
	run.Events = c.EventsExecuted()
	run.Fabric = c.Net.TotalStats()
	run.NACKs = c.NACKTotal()
	run.Rewinds = c.RewindTotal()
	run.Recovery = c.RecoveryStats()
	if run.Err != nil {
		return
	}
	switch spec.Motif {
	case "kv":
		run.Completed = run.KV.Completed
		run.Expected = 2 * run.KV.Completed
	default:
		run.Completed = run.Recvs
	}
}

// checks returns every correctness violation in a finished cell: fabric
// conservation at quiescence, Recv calls against the motif's message
// count, and the KV store/proxy accounting. A failed cell has no outputs
// to check; it is counted as failed instead.
func (run *cellRun) checks(label string) []string {
	if run.Err != nil {
		return nil
	}
	var bad []string
	f := run.Fabric
	if f.PacketsInjected != f.PacketsDelivered+f.PacketsDropped {
		bad = append(bad, fmt.Sprintf("%s: fabric injected %d != delivered %d + dropped %d",
			label, f.PacketsInjected, f.PacketsDelivered, f.PacketsDropped))
	}
	if run.Recvs != run.Expected {
		bad = append(bad, fmt.Sprintf("%s: %d Recv calls, motif defines %d messages", label, run.Recvs, run.Expected))
	}
	if kv := run.KV; kv != nil {
		if kv.ServerApplied != kv.Completed {
			bad = append(bad, fmt.Sprintf("%s: kv servers applied %d, proxies completed %d", label, kv.ServerApplied, kv.Completed))
		}
		if kv.Issued != run.Attempted {
			bad = append(bad, fmt.Sprintf("%s: kv issued %d, plan has %d", label, kv.Issued, run.Attempted))
		}
	}
	if run.Makespan <= 0 {
		bad = append(bad, fmt.Sprintf("%s: non-positive makespan %d", label, run.Makespan))
	}
	return bad
}

// fingerprint renders the cell's simulated outputs. A change that only
// affects host speed must leave it byte-identical.
func (run *cellRun) fingerprint() string {
	if run.Err != nil {
		return "failed: " + run.Err.Error()
	}
	f := run.Fabric
	s := fmt.Sprintf("makespan_ps=%d events=%d injected=%d delivered=%d dropped=%d",
		int64(run.Makespan), run.Events, f.PacketsInjected, f.PacketsDelivered, f.PacketsDropped)
	if kv := run.KV; kv != nil {
		s += fmt.Sprintf(" kv_p50_ns=%.0f kv_p99_ns=%.0f kv_goodput_gbps=%.6f",
			kv.Lat.Quantile(0.50), kv.Lat.Quantile(0.99), kvGoodputGbps(kv, run.Makespan))
	}
	return s
}

// cellOutputs are the simulated outputs a traced run must reproduce.
type cellOutputs struct {
	Makespan    sim.Time
	Events      uint64
	Fabric      fabric.Stats
	Fingerprint string
}

func (run *cellRun) outputs() cellOutputs {
	return cellOutputs{run.Makespan, run.Events, run.Fabric, run.fingerprint()}
}

func kvGoodputGbps(kv *motif.KVResult, makespan sim.Time) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(kv.PayloadBytes) * 8 / makespan.Seconds() / 1e9
}

// sweep3DMessages counts the messages Sweep3D defines: every rank
// receives one message per z-block from each upstream neighbor that
// exists, for each of the 8 sweep corners.
func sweep3DMessages(c motif.Sweep3DConfig) uint64 {
	var n uint64
	blocks := uint64(c.Nz / c.KBA)
	for j := 0; j < c.Py; j++ {
		for i := 0; i < c.Px; i++ {
			for _, d := range [4][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				if ui := i - d[0]; ui >= 0 && ui < c.Px {
					n += 2 * blocks
				}
				if uj := j - d[1]; uj >= 0 && uj < c.Py {
					n += 2 * blocks
				}
			}
		}
	}
	return n * uint64(c.Iterations)
}

// halo3DMessages counts the messages Halo3D defines: one per existing
// face neighbor per rank per iteration.
func halo3DMessages(c motif.Halo3DConfig) uint64 {
	var n uint64
	in := func(v, hi int) uint64 {
		if v >= 0 && v < hi {
			return 1
		}
		return 0
	}
	for z := 0; z < c.Pz; z++ {
		for y := 0; y < c.Py; y++ {
			for x := 0; x < c.Px; x++ {
				n += in(x-1, c.Px) + in(x+1, c.Px) + in(y-1, c.Py) + in(y+1, c.Py) + in(z-1, c.Pz) + in(z+1, c.Pz)
			}
		}
	}
	return n * uint64(c.Iterations)
}
