package main

import (
	"fmt"
	"hash/fnv"
	"time"
)

// profileLabels are the event labels the model stamps, in report order;
// "-" (events scheduled without a label) is reported as "unlabeled".
var profileLabels = []string{"motif", "rvma", "rdma", "nic", "fabric", "recovery", "-"}

// runLayers measures the per-layer metrics: one untraced pass in a child
// process (the engine, Go runtime and setup-phase numbers, which tracing
// would inflate), one traced pass of the same inputs in this process
// (label profile, queue depth, transport timings and layer counters), and
// the layer probes, all at the timed seed (see completingPass). The traced
// pass must reproduce the untraced pass's simulated outputs.
func runLayers(w workload, seed uint64) result {
	timed, base, failed := completingPass(w, seed)

	tr := newTracer()
	specs := fig7Cells(fig7Options(timed))
	if w.cell != nil {
		specs = []cellSpec{*w.cell}
	}
	traced := make([]cellRun, len(specs))
	start := time.Now()
	for i, spec := range specs {
		traced[i] = runCell(spec, timed, tr)
		traced[i].Cluster, traced[i].Reg = nil, nil
	}
	tracedS := time.Since(start).Seconds()
	var r result
	chains := fnv.New64a()
	for i, t := range traced {
		r.violations = append(r.violations, t.checks(specs[i].Label+" (traced)")...)
		fmt.Fprintln(chains, t.Chain)
	}
	r.violations = append(r.violations, invisibility(base, specs, traced)...)
	if len(traced) == 1 {
		r.fingerprint = append(r.fingerprint, "traced ledger chain head: "+traced[0].Chain)
	} else {
		r.fingerprint = append(r.fingerprint, fmt.Sprintf("traced ledger chain heads: fnv64a=%016x over %d cells", chains.Sum64(), len(traced)))
	}

	ops := float64(max(base.Completed, 1))
	events := float64(max(base.Events, 1))
	runS := 0.0
	for _, s := range base.CellRunS {
		runS += s
	}
	pending := make([]float64, len(tr.pending))
	for i, d := range tr.pending {
		pending[i] = float64(d)
	}
	depth := median(pending)

	r.add("sim.events", "count", float64(base.Events))
	r.add("sim.host_ns_per_event", "ns", runS*1e9/events)
	r.add("sim.pending_p50", "count", depth)
	r.add("sim.pending_max", "count", quantile(pending, 1))
	r.add("sim.pop_ns", "ns", probePopNS(int(depth)))
	r.add("sim.switch_ns", "ns", probeSwitchNS())

	r.add("memory.alloc_ns", "ns", probeAllocNS())
	r.add("go.allocs_per_op", "count", float64(base.Mallocs)/ops)
	r.add("go.gc_cycles", "count", float64(base.GCCycles))
	r.add("go.gc_cpu_frac", "frac", base.GCCPUFrac)
	r.add("go.heap_live_end_mb", "MB", base.HeapLiveMB)

	var totalNS int64
	for _, ns := range tr.labelHostNS {
		totalNS += ns
	}
	for _, l := range profileLabels {
		name := l
		if l == "-" {
			name = "unlabeled"
		}
		ev, ns := tr.labelEvents[l], tr.labelHostNS[l]
		r.add(name+".events", "count", float64(ev))
		r.add(name+".host_ns_per_event", "ns", float64(ns)/float64(max(ev, 1)))
		r.add(name+".host_share", "frac", float64(ns)/float64(max(totalNS, 1)))
	}

	r.add("motif.sends", "count", float64(tr.sends))
	r.add("motif.recvs", "count", float64(tr.recvs))
	r.add("motif.send_host_ns", "ns", float64(tr.sendNS)/float64(max(tr.sends, 1)))
	r.add("motif.recv_host_ns", "ns", float64(tr.recvNS)/float64(max(tr.recvs, 1)))
	r.add("motif.recv_wait_us_p50", "us", tr.recvWait.Quantile(0.50)/1e3)
	r.add("motif.recv_wait_us_p99", "us", tr.recvWait.Quantile(0.99)/1e3)

	var injected, dropped, nacks, rewinds, rexmit, timeouts, exhausted, completed uint64
	for _, t := range traced {
		injected += t.Fabric.PacketsInjected
		dropped += t.Fabric.PacketsDropped
		nacks += t.NACKs
		rewinds += t.Rewinds
		rexmit += t.Recovery.Retransmits
		timeouts += t.Recovery.Timeouts
		exhausted += t.Recovery.Exhausted
		completed += t.Completed
	}
	r.add("fabric.packets", "count", float64(injected))
	r.add("fabric.drop_frac", "frac", float64(dropped)/float64(max(injected, 1)))
	r.add("rvma.nacks", "count", float64(nacks))
	r.add("rvma.rewinds", "count", float64(rewinds))
	r.add("recovery.retransmits", "count", float64(rexmit))
	r.add("recovery.timeouts", "count", float64(timeouts))
	r.add("recovery.exhausted", "count", float64(exhausted))
	r.add("recovery.retransmits_per_op", "count", float64(rexmit)/float64(max(completed, 1)))

	r.add("kv.apply_ns", "ns", probeApplyNS())
	var casConflict, p99us, goodput float64
	if kv := traced[0].KV; kv != nil && traced[0].Err == nil {
		casConflict = float64(kv.CASFail) / float64(max(kv.CASOK+kv.CASFail, 1))
		p99us = kv.Lat.Quantile(0.99) / 1e3
		goodput = kvGoodputGbps(kv, traced[0].Makespan)
	}
	r.add("kv.cas_conflict_frac", "frac", casConflict)
	r.add("kv.p99_us", "us", p99us)
	r.add("kv.goodput_gbps", "Gbps", goodput)

	// The harness does not split a figure cell's setup, so fig7-observed
	// takes the phases from its traced cells, which build identically.
	phases := base
	if w.cell == nil {
		phases = &pass{}
		for _, t := range traced {
			phases.TopoS += t.TopoS
			phases.ClusterS += t.ClusterS
			phases.PlanS += t.PlanS
		}
	}
	r.add("topology.build_s", "s", phases.TopoS)
	r.add("motif.cluster_build_s", "s", phases.ClusterS)
	r.add("motif.plan_s", "s", phases.PlanS)

	r.add("harness.cell_run_s_p50", "s", median(base.CellRunS))
	r.add("harness.cell_run_s_max", "s", quantile(base.CellRunS, 1))
	spanEvents, spanOverhead, attribOverhead := observerProbe(timed)
	r.add("metrics.span_events", "count", float64(spanEvents))
	r.add("metrics.span_overhead_frac", "frac", spanOverhead)
	r.add("attrib.overhead_frac", "frac", attribOverhead)

	r.add("trace.overhead_frac", "frac", tracedS/base.WallS-1)

	// The check cell runs last: a panicked cell leaves its simulation's
	// process goroutines parked for the rest of this process.
	r.accountSeeds(failed, seed, base)
	r.accountCheck(w.runCheck(seed), w)
	r.add("ops_failed_frac", "frac", r.failedFrac())
	return r
}

// invisibility checks that tracing changed no simulated output: each
// traced cell must match its untraced run in makespan, event count and
// fabric totals (against the harness bench log for fig7-observed, which
// records makespan and events).
func invisibility(base *pass, specs []cellSpec, traced []cellRun) []string {
	var bad []string
	if base.Fig7 == nil {
		for i := range traced {
			if u, t := base.Outputs[i], traced[i].outputs(); u != t {
				bad = append(bad, fmt.Sprintf("%s: traced run differs: untraced {%s} traced {%s}",
					specs[i].Label, u.Fingerprint, t.Fingerprint))
			}
		}
		return bad
	}
	found := 0
	for _, rec := range base.Fig7 {
		for i, spec := range specs {
			if spec.Label != rec.Cell {
				continue
			}
			found++
			t := &traced[i]
			if t.Err != nil || t.Makespan.Nanoseconds() != rec.SimNS || t.Events != rec.Events {
				bad = append(bad, fmt.Sprintf("%s: traced run differs: harness makespan %gns events %d, traced {%s}",
					spec.Label, rec.SimNS, rec.Events, t.fingerprint()))
			}
		}
	}
	if found != len(base.Fig7) {
		bad = append(bad, fmt.Sprintf("fig7: %d of %d harness cells have a traced counterpart", found, len(base.Fig7)))
	}
	return bad
}
