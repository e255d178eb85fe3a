package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics with their units; BENCHMARK.json
// declares the same list.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"pkts_per_cpu_s", "1/s"},
	{"records_per_cpu_s", "1/s"},
	{"service_records_per_cpu_s", "1/s"},
	{"diag_p50_ms", "ms"},
	{"diag_tail_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the traced metrics with their units; BENCHMARK.json
// declares the same list. A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"netsim.self_s", "s"},
	{"netsim.pkts", "count"},
	{"netsim.dropped", "count"},
	{"netsim.events", "count"},
	{"netsim.events_per_pkt", "count"},
	{"netsim.rounds", "count"},
	{"dataplane.hook_s", "s"},
	{"dataplane.hook_calls_per_pkt", "count"},
	{"dataplane.telemetry_bytes_per_pkt", "B"},
	{"dataplane.notifications", "count"},
	{"controlplane.self_s", "s"},
	{"controlplane.diagnoses", "count"},
	{"controlplane.partial", "count"},
	{"controlplane.suppressed", "count"},
	{"controlplane.retries", "count"},
	{"controlplane.records_per_diag", "count"},
	{"rca.analyze_s", "s"},
	{"rca.allocs_per_diag", "count"},
	{"rca.alloc_kb_per_diag", "KB"},
	{"fsm.mine_s", "s"},
	{"fsm.mine_calls", "count"},
	{"sbfl.score_calls", "count"},
	{"pathid.build_s", "s"},
	{"pathid.paths", "count"},
	{"pathid.width_bits", "bit"},
	{"stream.ingest_s", "s"},
	{"stream.close_s", "s"},
	{"stream.windows", "count"},
	{"stream.flows_evicted", "count"},
	{"stream.resident_bytes", "B"},
	{"stream.records_late", "count"},
	{"ctrlchan.frames_per_diag", "count"},
	{"ctrlchan.fragments_sent", "count"},
	{"ctrlchan.retries_per_diag", "count"},
	{"ctrlchan.reasm_dropped", "count"},
	{"ctrlchan.encode_ns_per_record", "ns"},
	{"ctrlchan.decode_ns_per_record", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"outcome.top1_frac", "ratio"},
	{"outcome.detect_sim_ms", "ms"},
	{"trace.untraced_wall_s", "s"},
	{"trace.traced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.self_sum_s", "s"},
	{"trace.unaccounted_s", "s"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	budget   time.Duration // nominal live-phase length, see opsFor
	trace    bool
	// short shrinks the workload for the self-tests: batch-k4 runs its
	// first two trials and stream-k16 runs on a k=4 fabric, one operation
	// each. Only tests set it; the command line cannot.
	short bool
	// corrupt scores operations against a deliberately wrong expected
	// culprit, so the self-tests can check that misses are counted.
	corrupt bool
}

// opSample is what one operation (a trial, a stream run, a deployment
// run) cost.
type opSample struct {
	setup phase
	live  phase
	// pkts are the simulated packets the operation covers; records the
	// telemetry records it handed to diagnosis; serviceCPU the CPU time
	// spent inside the diagnosis service's calls on serviceRecords.
	pkts           int64
	records        int64
	serviceRecords int64
	serviceCPU     time.Duration
	// peakHeap is the largest live heap seen during the operation.
	peakHeap uint64
}

// outcome is everything one workload run measured and checked.
type outcome struct {
	ops []opSample
	// diag holds the diagnosis latencies the metrics use; diagWall the
	// same calls' wall times where diag is CPU time.
	diag      []time.Duration
	diagWall  []time.Duration
	heap      heapPeak
	attempted int
	failed    int
	problems  []string
	// outcomes holds each operation's top-1 hit (1) or miss (0); detect
	// the simulated detection delays in ms. Both are deterministic.
	outcomes []float64
	detect   []float64
	// sim is a rendering of the simulated outcome, equal across traced
	// and untraced runs of one seed.
	sim      string
	gcCycles uint64
	gcFrac   float64
	layers   map[string]float64
	spans    []span
	info     map[string]any
}

func newOutcome() *outcome {
	return &outcome{layers: map[string]float64{}, info: map[string]any{}}
}

// addOp records a finished operation with the heap peak it reached.
func (o *outcome) addOp(op opSample) {
	o.heap.sample()
	op.peakHeap = o.heap.take()
	o.ops = append(o.ops, op)
}

// opsFor is how many operations a run of nominal length budget makes
// when one operation nominally takes opCost, at least one. The count
// depends only on the arguments, never on how fast the operations run, so
// every run of a workload with the same arguments measures the same
// operations and a faster program measures the same work in less time.
func opsFor(budget, opCost time.Duration) int {
	return max(1, int(math.Round(float64(budget)/float64(opCost))))
}

// settle collects the previous operation's garbage before the next one
// starts, so no operation's set-up or live phase pays for another's.
func settle() { runtime.GC() }

// fail records a correctness problem.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// account records the tracing overhead and how much of the traced wall
// time the layers' self times explain, per operation.
func (o *outcome) account(selfPerOp float64, untracedWall []float64) {
	var traced []float64
	for _, op := range o.ops {
		traced = append(traced, op.live.wall.Seconds())
	}
	tw, uw := mean(traced), mean(untracedWall)
	o.layers["trace.untraced_wall_s"] = uw
	o.layers["trace.traced_wall_s"] = tw
	o.layers["trace.overhead_s"] = tw - uw
	o.layers["trace.self_sum_s"] = selfPerOp
	o.layers["trace.unaccounted_s"] = tw - selfPerOp
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// endToEndMetrics reduces the operations to the untraced metrics. Every
// time in them is CPU time, except deploy-loopback's collect latencies,
// which cross sockets: on a shared host the wall clock moves with the CPU
// steal of its neighbours, which the run record reports beside the
// wall-clock figures. Costs per operation are means, rates are
// totals over totals, and setup_s and peak_heap_mb, one reading per
// operation, are medians.
func (o *outcome) endToEndMetrics() map[string]float64 {
	var setup, heap []float64
	var wall, cpu, svcCPU time.Duration
	var alloc uint64
	var pkts, recs, svcRecs int64
	for _, op := range o.ops {
		setup = append(setup, op.setup.cpu.Seconds())
		heap = append(heap, float64(op.peakHeap)/1e6)
		wall += op.live.wall
		cpu += op.live.cpu
		alloc += op.live.alloc
		pkts += op.pkts
		recs += op.records
		svcRecs += op.serviceRecords
		svcCPU += op.serviceCPU
	}
	n := float64(len(o.ops))
	diag := millis(o.diag)
	tailV, tailP := tail(diag)
	o.info["diag_tail_percentile"] = tailP
	o.info["diag_samples"] = len(diag)
	o.info["wall_s"] = wall.Seconds() / n
	o.info["pkts_per_wall_s"] = float64(pkts) / wall.Seconds()
	if len(o.diagWall) > 0 {
		o.info["diag_wall_p50_ms"] = median(millis(o.diagWall))
	}
	return map[string]float64{
		"setup_s":                   median(setup),
		"cpu_s":                     cpu.Seconds() / n,
		"pkts_per_cpu_s":            float64(pkts) / cpu.Seconds(),
		"records_per_cpu_s":         float64(recs) / cpu.Seconds(),
		"service_records_per_cpu_s": float64(svcRecs) / svcCPU.Seconds(),
		"diag_p50_ms":               median(diag),
		"diag_tail_ms":              tailV,
		"alloc_mb":                  float64(alloc) / n / 1e6,
		"peak_heap_mb":              median(heap),
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) *outcome{
	"batch-k4":        runBatch,
	"stream-k16":      runStream,
	"deploy-loopback": runDeploy,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0 when
// every correctness check passed, 1 when one failed, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: batch-k4, stream-k16 or deploy-loopback")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	secs := fs.Float64("seconds", 10, "nominal length of the measured live phase, in seconds; sizes the run's fixed operation count")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "marsbench: unknown workload %q or bad -seconds/-trace; workloads:", *name)
		for _, w := range sortedKeys(workloads) {
			fmt.Fprintf(stderr, " %s", w)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	return runWith(runConfig{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*secs * float64(time.Second)),
		trace:    *trace == 1,
	}, stdout, stderr)
}

// runWith runs the configured workload, prints the run record and the
// result line, and returns the exit code.
func runWith(cfg runConfig, stdout, stderr io.Writer) int {
	rep, o := execute(cfg, workloads[cfg.workload])
	if o.spans != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, o.spans); err != nil {
			fmt.Fprintf(stderr, "marsbench: %v\n", err)
			return 1
		}
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "marsbench: check failed: %s\n", p)
	}
	info, _ := json.Marshal(o.info)
	fmt.Fprintf(stdout, "run %s\n", info)
	line, _ := json.Marshal(rep)
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and builds its report.
func execute(cfg runConfig, runner func(runConfig) *outcome) (report, *outcome) {
	st0, stOK := readCPUStat()
	o := runner(cfg)
	st1, _ := readCPUStat()
	o.info["workload"] = cfg.workload
	o.info["seed"] = cfg.seed
	o.info["trace"] = cfg.trace
	o.info["ops"] = len(o.ops)
	o.info["nproc"] = runtime.NumCPU()
	o.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.info["go"] = runtime.Version()
	o.info["steal_share"] = stealShare(st0, st1, stOK)
	o.info["top1_frac"] = mean(o.outcomes)
	o.info["detect_sim_ms"] = median(o.detect)

	rep := report{
		Correct:   len(o.problems) == 0 && len(o.ops) > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if !cfg.trace {
		vals := o.endToEndMetrics()
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		return rep, o
	}
	o.layers["runtime.gc_cycles"] = float64(o.gcCycles) / float64(max(len(o.ops), 1))
	o.layers["runtime.gc_cpu_frac"] = o.gcFrac
	o.layers["outcome.top1_frac"] = mean(o.outcomes)
	o.layers["outcome.detect_sim_ms"] = median(o.detect)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{Value: o.layers[m.name], Unit: m.unit}
	}
	return rep, o
}

// writeSpans writes the traced run's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //mars:mapiter-ok keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
