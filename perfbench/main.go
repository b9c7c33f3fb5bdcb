// Command perfbench is the simulator's benchmark. One invocation runs one
// workload in-process through the public functions of the topology,
// motif, harness, sim, memory, kv and ledger packages, checks the
// simulated outputs, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured on
// untraced runs; with -trace 1 they are the per-layer ones, from one
// untraced run, one traced run of the same inputs and the layer probes.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"

	"rvma/internal/harness"
	"rvma/internal/motif"
)

// minPasses is the fewest untraced passes a -trace 0 run makes; it keeps
// making passes while the next one fits in -seconds.
const minPasses = 3

func main() {
	name := flag.String("workload", "", "workload to run: sweep3d-rvma, halo3d-rdma, kv-overload-loss or fig7-observed")
	seed := flag.Uint64("seed", 42, "simulation seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "host seconds of untraced passes to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	onePass := flag.Bool("pass", false, "run one untraced pass and print it as JSON (the child process of a run)")
	flag.Parse()
	w, ok := workloadNamed(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		flag.Usage()
		os.Exit(2)
	}
	if *onePass {
		runPass(w, *seed)
		return
	}
	fmt.Printf("workload %s seed %d trace %d\n", w.name, *seed, *trace)

	var out result
	if *trace == 0 {
		out = runEndToEnd(w, *seed, time.Duration(*seconds*float64(time.Second)))
	} else {
		out = runLayers(w, *seed)
	}
	out.print()
}

// result is what one invocation reports.
type result struct {
	attempted, failed uint64
	violations        []string
	failures          []string
	fingerprint       []string
	metrics           []metric
}

type metric struct {
	name, unit string
	value      float64
}

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name, unit, value})
}

// account records one execution of the workload: its op totals, the
// failures and correctness violations it produced, and its fingerprint,
// each failure and fingerprint line prefixed with mark.
func (r *result) account(p *pass, mark string) {
	r.attempted += p.Attempted
	r.failed += p.Attempted - p.Completed
	for _, f := range p.Failures {
		r.failures = append(r.failures, mark+f)
	}
	r.violations = append(r.violations, p.Checks...)
	for _, f := range p.Fingerprint {
		r.fingerprint = append(r.fingerprint, mark+f)
	}
}

// accountCheck records the workload's check cell.
func (r *result) accountCheck(check *cellRun, w workload) {
	if check == nil {
		return
	}
	r.attempted += check.Attempted
	r.failed += check.Attempted - check.Completed
	if check.Err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", w.check.Label, check.Err))
	}
	r.violations = append(r.violations, check.checks(w.check.Label)...)
	r.fingerprint = append(r.fingerprint, w.check.Label+": "+check.fingerprint())
}

// accountSeeds records the passes of a run that moved its timed seed:
// each pass at a seed whose cell failed, then the first pass at the timed
// seed, each line marked with its seed when the run moved.
func (r *result) accountSeeds(failed []*pass, seed uint64, first *pass) {
	for i, p := range append(failed, first) {
		mark := ""
		if len(failed) > 0 {
			mark = fmt.Sprintf("seed %d: ", seed+uint64(i))
		}
		r.account(p, mark)
	}
}

func (r *result) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// print writes the human-readable report and then the JSON result line.
func (r *result) print() {
	for _, f := range r.fingerprint {
		fmt.Println("fingerprint", f)
	}
	for _, f := range r.failures {
		fmt.Println("FAILED", f)
	}
	for _, v := range r.violations {
		fmt.Println("CHECK FAILED", v)
	}
	fmt.Printf("ops attempted %d failed %d ops_failed_frac %.6g\n", r.attempted, r.failed, r.failedFrac())
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Printf("%-28s %16.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.violations) == 0, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runEndToEnd makes untraced passes for the given host time (at least
// minPasses) and reports the median of each end-to-end metric over them.
// Each pass runs in a fresh child process, as a user's run would: a pass
// that recycles an earlier pass's heap must zero that memory, which makes
// it slower and makes pages resident that a fresh process never touches.
// The passes run at the timed seed (see completingPass). The workload's
// check cell runs once at the end, in this process, so it counts toward
// failures but not toward time or memory.
func runEndToEnd(w workload, seed uint64, budget time.Duration) result {
	start := time.Now()
	var r result
	timed, first, failed := completingPass(w, seed)
	passes := []*pass{first}
	timedStart := time.Now()
	for {
		p := passes[len(passes)-1]
		fmt.Printf("pass %d: wall %.4fs cpu %.4fs setup %.5fs peak rss %.1fMB ops %d\n",
			len(passes), p.WallS, p.CPUS, p.SetupS, p.PeakRSSMB, p.Completed)
		// The passes after the first estimate how long the next one takes.
		if len(passes) >= minPasses && time.Since(start)+time.Since(timedStart)/time.Duration(len(passes)-1) > budget {
			break
		}
		next, err := childPass(w, timed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		passes = append(passes, next)
	}

	r.accountSeeds(failed, seed, first)
	r.accountCheck(w.runCheck(seed), w)
	for _, p := range passes[1:] {
		if !slices.Equal(p.Fingerprint, passes[0].Fingerprint) {
			r.violations = append(r.violations, "simulated outputs differ between passes of the same seed")
		}
	}
	opsPerS := make([]float64, len(passes))
	setup := make([]float64, len(passes))
	rss := make([]float64, len(passes))
	allocPerOp := make([]float64, len(passes))
	for i, p := range passes {
		opsPerS[i] = float64(p.Completed) / p.WallS
		setup[i] = p.SetupS
		rss[i] = p.PeakRSSMB
		allocPerOp[i] = float64(p.AllocBytes) / float64(max(p.Completed, 1))
	}
	fmt.Printf("passes %d in %.1fs\n", len(passes), time.Since(start).Seconds())
	r.add("ops_per_s", "1/s", median(opsPerS))
	r.add("setup_s", "s", median(setup))
	r.add("peak_rss_mb", "MB", median(rss))
	r.add("alloc_bytes_per_op", "B", median(allocPerOp))
	return r
}

// maxSeedTries bounds how many consecutive seeds completingPass tries.
const maxSeedTries = 16

// completingPass returns the timed seed of a run and its first untraced
// pass: the seed itself, or, when a cell of the workload fails at that
// seed, the next seed up at which every op completes. A failed pass ends
// at its failure, so its host time and memory would not measure the
// workload; the passes at the seeds that failed are returned so that the
// run reports their failures. The failures stay in the result's
// attempted and failed counts and are printed; only the timing moves.
func completingPass(w workload, seed uint64) (timed uint64, first *pass, failed []*pass) {
	for i := uint64(0); i < maxSeedTries; i++ {
		p, err := childPass(w, seed+i)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if p.Completed == p.Attempted && len(p.Failures) == 0 {
			if i > 0 {
				fmt.Printf("timed seed %d: a cell failed at seeds %d to %d\n", seed+i, seed, seed+i-1)
			}
			return seed + i, p, failed
		}
		failed = append(failed, p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s fails at each of seeds %d to %d\n", w.name, seed, seed+maxSeedTries-1)
	os.Exit(1)
	return 0, nil, nil
}

// childPass runs one untraced pass of w in a child process (this binary
// with -pass) and returns what it reported, with the child's peak RSS.
func childPass(w workload, seed uint64) (*pass, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-pass")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pass of %s: %w", w.name, err)
	}
	p := &pass{}
	if err := json.Unmarshal(out, p); err != nil {
		return nil, fmt.Errorf("pass of %s: decoding its report: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	p.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return p, nil
}

// runPass is the child side of childPass: one untraced pass, reported as
// JSON on standard output. The live heap is measured before the pass's
// clusters are dropped.
func runPass(w workload, seed uint64) {
	p := w.pass(seed)
	p.HeapLiveMB = heapLiveMB()
	runtime.KeepAlive(p.keep)
	if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// pass is one untraced execution of a workload with its host-side costs.
type pass struct {
	Attempted, Completed uint64
	Events               uint64
	WallS, SetupS        float64
	// Per-phase setup host seconds, summed over the pass's cells.
	TopoS, ClusterS, PlanS float64
	// CellRunS is each cell's engine-run host time.
	CellRunS []float64

	AllocBytes, Mallocs uint64
	GCCycles            uint32
	GCCPUFrac           float64
	HeapLiveMB          float64
	PeakRSSMB           float64
	CPUS                float64 // the pass process's user plus system time

	Failures, Checks, Fingerprint []string
	// Outputs are each cell's simulated outputs, for the traced run's
	// invisibility check.
	Outputs []cellOutputs
	// Fig7 is the harness bench log of a fig7-observed pass.
	Fig7 []harness.BenchRecord

	keep []*motif.Cluster // reachable until the live heap is measured
}

// addCell folds one cell run into the pass.
func (p *pass) addCell(spec cellSpec, r cellRun) {
	p.Attempted += r.Attempted
	p.Completed += r.Completed
	p.Events += r.Events
	p.SetupS += r.SetupS()
	p.TopoS += r.TopoS
	p.ClusterS += r.ClusterS
	p.PlanS += r.PlanS
	p.CellRunS = append(p.CellRunS, r.RunS)
	if r.Err != nil {
		p.Failures = append(p.Failures, fmt.Sprintf("%s: %v", spec.Label, r.Err))
	}
	p.Checks = append(p.Checks, r.checks(spec.Label)...)
	p.Fingerprint = append(p.Fingerprint, spec.Label+": "+r.fingerprint())
	p.Outputs = append(p.Outputs, r.outputs())
	p.keep = append(p.keep, r.Cluster)
}

// measure runs fn as one pass from a freshly collected heap and records
// its wall time, heap allocation and garbage-collection cost.
func measure(fn func(p *pass)) *pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUSeconds()
	start := time.Now()
	p := &pass{}
	fn(p)
	p.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPUSeconds()
	p.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.Mallocs = m1.Mallocs - m0.Mallocs
	p.GCCycles = m1.NumGC - m0.NumGC
	if cpu1 > cpu0 {
		p.GCCPUFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return p
}

// gcCPUSeconds reads the runtime's estimates of CPU time spent in garbage
// collection and in total.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// heapLiveMB forces a collection and returns the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
