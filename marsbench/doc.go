// Command marsbench is the repository's end-to-end benchmark. One
// invocation runs one named workload's fixed set of operations, checks
// every operation's output, and prints as its last line one JSON object
// with the correctness verdict, the operations attempted and failed, and
// the metrics by name with their units:
//
//	bash marsbench/run.sh --workload batch-k4 --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package from the checkout's sources into
// .bench_build/ and runs it. The line before the result ("run {...}")
// records what explains noise: the host's CPU-steal share over the run
// (/proc/stat), nproc and GOMAXPROCS, shards, workers, the seed, the Go
// version, and the tail percentile used with its sample count.
//
// --seconds sizes the run: each workload has a nominal cost per
// operation, and a run makes round(seconds / cost) operations, at least
// one. The count depends on the arguments only, never on how fast the
// operations run, so every run of a workload with the same arguments
// measures the same operations, and a faster program measures the same
// work in less time. At 20 s batch-k4 runs 30 trials, stream-k16 four
// stream runs and deploy-loopback sixteen deployments. Before every
// operation the benchmark collects the previous one's garbage, so no
// operation pays for another's.
//
// The benchmark drives the same public calls the experiment drivers use
// (internal/experiments, internal/deploy) and changes no program code. It
// measures each layer from outside, by timing its calls into that layer's
// public functions and interfaces.
//
// # Workloads
//
// batch-k4 runs MARS-only localization trials on the default k=4
// fat-tree: the five Table-1 fault kinds at the first seeds of `-exp
// table1`'s seed plan, one trial of every kind per round (eight rounds
// before the plan repeats; six at 20 s), over the perfect
// in-simulator control channel. It
// is the path table1, overhead and gray repeat thousands of times. The
// classic single-heap simulator and the per-packet data plane do most of
// the work, and rca.Analyze runs once per collect. It bypasses sockets,
// the wire format and the stream service; path-table setup is
// negligible. One operation is one trial. A trial whose true cause ranks
// outside the top 5 is a failed operation. Every trial's rank, diagnosis
// count and packet count must equal experiments.RunTrial(SysMARS, …),
// which runs after the live phase.
//
// stream-k16 is the `-exp stream -k 16` configuration: the pod-sharded
// simulator, 2048 flows, 15 epochs, windows 4/2/8 and a silent drop in
// epochs [5,10). It uses the same layers differently: the sharded engine
// at low per-link load instead of the congested k=4, rca.AnalyzeWindow
// per unit over incremental windows inside stream.Service.CloseEpoch
// instead of Analyze per collect, and a selective pathid.BuildTable in
// setup. It bypasses the controller, the control channel and sockets.
// One operation is one stream run. A fault window whose drop-class top-1
// is not the injected switch is a failed operation. The simulated outcome
// must equal `-exp stream`'s rendered output for the seed.
//
// deploy-loopback composes an internal/deploy controller node and 4
// switch-group nodes on loopback UDP from the public deploy calls:
// the silent-drop scenario, 0% injected loss, 4x time compression. It is
// the only workload where the ctrlchan wire encoding, UDPTransport and
// the wall-clock controller timers do the work; the simulator runs only
// in setup, to build the replay capture. One operation is one deployment;
// a run cycles through 8 scenario seeds in order so its latency figures do not
// follow one fault placement. A captured collection that never finalizes
// is a failed operation, and the deployment's top-1 culprit must equal
// the simulator capture's. BENCHMARK.json does not list it: its collect
// latencies and CPU cost follow the controller's retry storm, and its
// top-1 does not match the capture on every run, so its figures are not
// steady enough to gate a change. It runs by name like the others.
//
// Every workload uses at most GOMAXPROCS shards and stream workers.
//
// # End-to-end metrics (--trace 0)
//
// The times below are CPU time (getrusage, user+system), not wall time:
// on a shared host the wall clock moves with the CPU steal of the
// neighbours, which in ten batch-k4 runs ranged 5-25% and moved wall time
// per trial by 0.69-1.13 s while CPU time stayed within 0.69-0.79 s. The
// run record still reports the wall-clock figures (wall_s,
// pkts_per_wall_s, diag_wall_p50_ms) next to the steal share. The
// exception is deploy-loopback's collect latency, which crosses sockets
// and timers and exists only as wall time.
//
//   - setup_s: median per operation of the CPU time from its start to the
//     first live event: topology, path table, program, controller and
//     service wiring; for deploy-loopback also the capture Build and
//     sockets.
//   - cpu_s: mean CPU time per operation's live phase. Every run of a
//     workload makes the same operations in the same order, so the mean
//     weighs them alike in every run.
//   - pkts_per_cpu_s: simulated packets per live-phase CPU second; for
//     deploy-loopback the packets of the replayed capture.
//   - records_per_cpu_s: telemetry records handed to diagnosis per
//     live-phase CPU second (collected records in batch-k4 and
//     deploy-loopback, sink records ingested in stream-k16).
//   - service_records_per_cpu_s: those records per CPU second spent in
//     the diagnosis service's calls, timed as for diag_p50_ms, without the
//     traffic source: inside rca.Analyze (batch-k4), inside
//     stream.Service Ingest/CloseEpoch/
//     Finish (stream-k16). In deploy-loopback the whole live phase is the
//     service, the controller and switch nodes fed by replayed
//     notifications.
//   - diag_p50_ms, diag_tail_ms: from handing a layer a finished collect or
//     window to getting the ranked culprit list: the calling thread's CPU
//     time per rca.Analyze call (batch), process CPU time per CloseEpoch
//     or Finish call that closes a window (stream, whose services fan
//     analysis out to workers), and wall time from trigger to finalize from
//     ControllerNode.CollectionLatencies (deploy). The tail is the highest
//     of p99, p95, p90, p75 with at least ten samples beyond it.
//   - alloc_mb: mean bytes allocated per operation's live phase
//     (runtime/metrics /gc/heap/allocs:bytes).
//   - peak_heap_mb: median over operations of the largest live heap
//     (/gc/heap/live:bytes) during the operation, sampled after every GC
//     cycle and at trial, epoch and deployment boundaries.
//
// The deterministic outcome figures, the share of operations whose top-1
// is the true cause (for deploy-loopback, the simulator capture's top-1)
// and the simulated detection delay, vary with the seed
// rather than with the code's speed, so they are reported in the run
// record and as per-layer metrics instead of end-to-end ones.
//
// # Per-layer metrics (--trace 1)
//
// A traced run first makes the run's operations untraced, whose mean wall
// time per operation is the base of the tracing overhead
// (trace.overhead_s) and whose simulated outcomes must equal the traced
// ones; a traced run therefore takes about twice as long as an untraced
// one. It then makes them again and wraps the public seams:
// netsim.Hooks (the data-plane program), dataplane.Notifier (the
// controller), controlplane.Controller.OnDiagnosis (rca.Analyze),
// rca.Config.Miner and Formula, Simulator.Run and Sharded.Run, and the
// stream.Service calls. Spans stay in memory and are written at the end
// to .bench_build/spans/. A layer's self time is its span minus its
// children. Per-packet hooks go into per-shard accumulators that time one
// call in 16, because timing every call costs more than the hook. Each
// per-layer figure is a mean per operation; a layer a workload does not
// exercise reports 0.
//
// trace.self_sum_s is the sum of the self times and trace.unaccounted_s
// what of the traced wall they leave. Both are reported only, never
// checked: in batch-k4 and stream-k16 the self times partition the
// simulator's spans, which cover nearly all of the live phase, so
// self_sum_s is close to the traced wall by construction and says
// nothing about the untraced one; trace.overhead_s is the figure that
// tells how far tracing moved the wall. In stream-k16 the shards run in
// parallel, so the hooks' busy time is summed over shards; the hooks get
// the share of each Sharded.Run span that their busy time is of the
// process CPU time inside the call, capped at the whole span, and
// netsim.self_s the rest. This is an attribution rule, not a
// measurement of the critical path. In deploy-loopback the live phase is
// paced by the replay clock, so most of its wall time is waiting and is
// unaccounted by design.
package main
