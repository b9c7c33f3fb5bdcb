package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"rvma/internal/fabric"
	"rvma/internal/harness"
	"rvma/internal/motif"
	"rvma/internal/topology"
)

// workload is one benchmark input. A cell workload runs its cell once per
// pass; fig7-observed (no cell) runs the harness's Figure 7 sweep
// instead. The check cell, when set, runs once per invocation after the
// timed passes: its ops count toward attempted and failed, its time and
// memory do not.
type workload struct {
	name  string
	cell  *cellSpec
	check *cellSpec
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloads() []workload {
	dragonfly := func(m string, kind motif.TransportKind, nodes int) cellSpec {
		return cellSpec{
			Label: fmt.Sprintf("%s|dragonfly/adaptive|%s|100Gbps|%dnodes", m, kind, nodes),
			Motif: m, Kind: kind, Topo: topology.KindDragonfly, Routing: fabric.RouteAdaptive,
			Nodes: nodes, Gbps: 100,
		}
	}
	kvCell := func(kind motif.TransportKind) *cellSpec {
		s := dragonfly("kv", kind, 256)
		s.Label += "|skew0.99|gap500ns|128ops|drop0.05|rec"
		s.Drop = 0.05
		s.KV = harness.KVParams{Skew: 0.99, GapNs: 500, Ops: 128}
		return &s
	}
	sweep := dragonfly("sweep3d", motif.KindRVMA, 1056)
	halo := dragonfly("halo3d", motif.KindRDMA, 1056)
	return []workload{
		{name: "sweep3d-rvma", cell: &sweep},
		{name: "halo3d-rdma", cell: &halo},
		{name: "kv-overload-loss", cell: kvCell(motif.KindRVMA), check: kvCell(motif.KindRDMA)},
		{name: "fig7-observed"},
	}
}

// pass runs the workload once, untraced.
func (w workload) pass(seed uint64) *pass {
	if w.cell == nil {
		return fig7Pass(seed)
	}
	return measure(func(p *pass) { p.addCell(*w.cell, runCell(*w.cell, seed, nil)) })
}

// runCheck runs the workload's check cell, if it has one.
func (w workload) runCheck(seed uint64) *cellRun {
	if w.check == nil {
		return nil
	}
	r := runCell(*w.check, seed, nil)
	return &r
}

// fig7Options is the figure configuration fig7-observed runs: 32 nodes,
// one worker, the harness's default link speeds, spans and attribution.
func fig7Options(seed uint64) harness.Options {
	o := harness.DefaultOptions()
	o.Nodes = 32
	o.Workers = 1
	o.Seed = seed
	o.Bench = &harness.BenchLog{}
	return o
}

// fig7Networks mirrors the harness's Figure 7 sweep points.
var fig7Networks = []struct {
	name    string
	topo    topology.Kind
	routing fabric.RoutingMode
}{
	{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive},
	{"dragonfly/valiant", topology.KindDragonfly, fabric.RouteValiant},
	{"dragonfly/minimal", topology.KindDragonfly, fabric.RouteStatic},
	{"fattree/static", topology.KindFatTree, fabric.RouteStatic},
	{"fattree/adaptive", topology.KindFatTree, fabric.RouteAdaptive},
	{"hyperx/DOR", topology.KindHyperX, fabric.RouteStatic},
	{"hyperx/adaptive", topology.KindHyperX, fabric.RouteAdaptive},
	{"torus3d/DOR", topology.KindTorus3D, fabric.RouteStatic},
	{"torus3d/adaptive", topology.KindTorus3D, fabric.RouteAdaptive},
}

// fig7Cells lists the figure's cells, labelled with the harness's bench
// record names, configured with the observers the harness attaches.
func fig7Cells(o harness.Options) []cellSpec {
	var cells []cellSpec
	for _, nc := range fig7Networks {
		for _, gbps := range o.LinkGbps {
			for _, kind := range []motif.TransportKind{motif.KindRVMA, motif.KindRDMA} {
				cells = append(cells, cellSpec{
					Label: fmt.Sprintf("sweep3d|%s|%s|%gGbps", nc.name, kind, gbps),
					Motif: "sweep3d", Kind: kind, Topo: nc.topo, Routing: nc.routing,
					Nodes: o.Nodes, Gbps: gbps, Spans: true, Attrib: true,
				})
			}
		}
	}
	return cells
}

// fig7Pass runs harness.Fig7 once. One op is one figure cell; a cell that
// errors is missing from the bench log and leaves a SKIPPED note. Setup
// is the elapsed time minus the cells' run walls from the bench log.
func fig7Pass(seed uint64) *pass {
	o := fig7Options(seed)
	var table *harness.Table
	p := measure(func(p *pass) {
		p.Attempted = uint64(len(fig7Cells(o)))
		defer func() {
			if r := recover(); r != nil {
				p.Failures = append(p.Failures, fmt.Sprintf("harness.Fig7: panic: %v", r))
			}
		}()
		table = harness.Fig7(o)
	})
	if table == nil {
		return p
	}
	runS := 0.0
	for _, rec := range o.Bench.Records {
		p.Events += rec.Events
		p.CellRunS = append(p.CellRunS, rec.WallMS/1e3)
		runS += rec.WallMS / 1e3
	}
	p.Completed = uint64(len(o.Bench.Records))
	p.SetupS = p.WallS - runS
	for _, n := range table.Notes {
		if strings.HasPrefix(n, "SKIPPED") {
			p.Checks = append(p.Checks, "fig7 table: "+n)
		}
	}
	var text bytes.Buffer
	table.Fprint(&text)
	h := fnv.New64a()
	h.Write(text.Bytes())
	p.Fingerprint = append(p.Fingerprint,
		fmt.Sprintf("fig7 table: fnv64a=%016x cells=%d events=%d", h.Sum64(), p.Completed, p.Events))
	p.Fig7 = o.Bench.Records
	return p
}
