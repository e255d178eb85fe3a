package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/experiments"
	"mars/internal/faults"
	"mars/internal/harness"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/topology"
	"mars/internal/workload"
)

// batchTrialsPerKind is how many seeds of each Table-1 fault kind the
// batch-k4 plan holds.
const batchTrialsPerKind = 8

// batchTop is the rank a trial's true cause must reach for the trial to
// count as localized.
const batchTop = 5

// batchPlan is batch-k4's distinct trials in the order they run: every
// Table-1 fault kind at the seeds `-exp table1` would give it for base
// seed `seed`, the kinds interleaved so that every whole round of the
// plan weighs them alike.
func batchPlan(seed int64) []experiments.TrialConfig {
	plan := harness.LegacyPlan{}
	var tcs []experiments.TrialConfig
	for t := 0; t < batchTrialsPerKind; t++ {
		for _, kind := range faults.Kinds() {
			s := plan.TrialSeed(seed, int(kind), t)
			tc := experiments.DefaultTrialConfig(s, kind)
			tc.CtrlSeed = plan.CtrlChanSeed(s)
			tcs = append(tcs, tc)
		}
	}
	return tcs
}

// trialSimConfig is the physical configuration experiments.RunTrial
// gives a trial with no SimCfg override. The reference check fails if
// the two ever drift apart.
func trialSimConfig() netsim.Config {
	return netsim.Config{
		LinkBandwidthBps:     14_000_000,
		HostLinkBandwidthBps: 100_000_000,
		PropDelay:            10 * netsim.Microsecond,
		SwitchProcDelay:      5 * netsim.Microsecond,
		QueueCapacity:        128,
	}
}

// batchOutcome is a trial's simulated result: what the reference
// experiments.RunTrial must agree on, plus the outcome figures.
type batchOutcome struct {
	Rank      int
	Diagnoses int64
	Packets   int64
	Records   int64
	// Scored is the rank of the culprit the run is scored against: the
	// true cause, or a wrong one in a corrupted self-test run.
	Scored int
	// DetectSim is the simulated time from fault start to the first
	// diagnosis whose top-1 culprit is the true cause; -1 if none.
	DetectSim netsim.Time
}

// batchLayers accumulates the per-layer counters of a traced batch run.
type batchLayers struct {
	tr      *tracer
	hooks   []*hookTap
	miner   *minerTap
	scores  atomic.Int64
	build   []time.Duration
	paths   int
	width   int
	telemB  int64
	notes   int64
	dropped int64
	frames  int64
	// encodeNs and decodeNs are ctrlchan wire costs per record, one per
	// trial, on a collect response carrying the trial's collected records.
	encodeNs, decodeNs []float64
	wireErr            error
	ctrl               controlplane.BandwidthStats
	runs               int
	allocs             []float64 // per Analyze call, traced mode
	allocKB            []float64
	analyzeN           int64
}

// runBatchTrial rebuilds what experiments.RunTrial(SysMARS, tc) runs from
// the public constructors, so each layer boundary can be timed from
// outside. lay is nil in untraced runs.
func runBatchTrial(tc experiments.TrialConfig, corrupt bool, lay *batchLayers) (batchOutcome, opSample, []phase) {
	var tr *tracer
	if lay != nil {
		tr = lay.tr
	}
	setup := startProbe()
	ft, err := topology.NewFatTree(tc.K)
	if err != nil {
		panic(err)
	}
	dcfg := dataplane.DefaultProgramConfig()
	b0 := now()
	table, err := pathid.BuildTable(dcfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		panic(err)
	}
	buildDur := since(b0)
	prog := dataplane.New(dcfg, ft.Topology, table, nil)
	var hooks netsim.Hooks = prog
	var tap *hookTap
	if lay != nil {
		tap = &hookTap{inner: prog, nested: tr}
		hooks = tap
	}
	router := netsim.NewECMPRouter(ft.Topology, uint64(tc.Seed))
	sim := netsim.New(ft.Topology, router, hooks, trialSimConfig(), tc.Seed)
	inj := faults.NewInjector(sim, ft, router)
	ch := ctrlchan.New(sim, ctrlchan.Config{Seed: tc.CtrlSeed})
	ccfg := controlplane.DefaultConfig()
	ccfg.Seed = tc.Seed
	ctrl := controlplane.NewWithChannel(ccfg, sim, prog, ch)
	prog.Notifier = ctrl
	if lay != nil {
		prog.Notifier = notifyTap{inner: ctrl, tr: tr}
	}
	ctrl.Start()

	rcfg := rca.DefaultConfig()
	if lay != nil {
		lay.miner.inner = rcfg.Miner
		rcfg.Miner = lay.miner
		rcfg.Formula = countFormula(rcfg.Formula, &lay.scores)
	}
	analyzer := rca.New(rcfg, table, ctrl)

	out := batchOutcome{DetectSim: -1}
	var lists [][]rca.Culprit
	var collected []dataplane.RTRecord
	var lats []phase
	var gt faults.GroundTruth
	ctrl.OnDiagnosis = func(d controlplane.Diagnosis) {
		if d.Time < tc.FaultStart {
			return
		}
		out.Diagnoses++
		out.Records += int64(len(d.Records))
		if lay != nil {
			collected = append(collected, d.Records...)
		}
		var a0, b0 uint64
		if lay != nil {
			a0, b0 = readUint("/gc/heap/allocs:objects"), readUint("/gc/heap/allocs:bytes")
			lay.analyzeN++
		}
		tr.begin(layerRCA, true)
		t0, c0 := now(), threadCPU()
		list := analyzer.Analyze(d)
		lats = append(lats, phase{wall: since(t0), cpu: threadCPU() - c0})
		tr.end()
		if lay != nil {
			lay.allocs = append(lay.allocs, float64(readUint("/gc/heap/allocs:objects")-a0))
			lay.allocKB = append(lay.allocKB, float64(readUint("/gc/heap/allocs:bytes")-b0)/1e3)
		}
		if out.DetectSim < 0 && len(list) > 0 && marsMatches(list[0], gt) {
			out.DetectSim = d.Time - tc.FaultStart
		}
		lists = append(lists, list)
	}
	inj.Chan = ch
	inj.Registers = prog
	workload.RandomBackground(sim, ft, workload.BackgroundConfig{
		NumFlows:      tc.NumFlows,
		RatePPS:       tc.RatePPS,
		RateJitter:    0.2,
		Gaps:          workload.GapExponential,
		Start:         0,
		Stop:          tc.Total,
		CrossPodBias:  1.0,
		RoundRobinSrc: true,
		RoundRobinDst: true,
	}, 1)
	gt = inj.Inject(tc.Fault, tc.FaultStart, tc.FaultDur)
	op := opSample{setup: setup.stop()}

	p := startProbe()
	tr.begin(layerNetsim, true)
	sim.Run(tc.Total)
	tr.end()
	merged := rca.MergeRanked(lists)
	op.live = p.stop()
	out.Rank = rankOf(merged, gt)
	out.Scored = out.Rank
	if corrupt {
		out.Scored = rankOf(merged, wrongCulprit(gt))
	}

	out.Packets = sim.Stats.Sent
	op.pkts = out.Packets
	op.records = out.Records
	op.serviceRecords = out.Records
	for _, l := range lats {
		op.serviceCPU += l.cpu
	}
	if lay != nil {
		lay.hooks = append(lay.hooks, tap)
		lay.build = append(lay.build, buildDur)
		lay.paths, lay.width = table.NumPaths(), int(table.Cfg.Width)
		lay.telemB += prog.Stats.TelemetryLinkBytes
		lay.notes += prog.Stats.Notifications
		lay.dropped += sim.Stats.Dropped
		addBandwidth(&lay.ctrl, ctrl.Bytes)
		lay.frames += ch.Stats.ToController.Sent + ch.Stats.ToSwitch.Sent
		enc, dec, err := wireCost(collected)
		if err != nil {
			lay.wireErr = err
		}
		if enc > 0 {
			lay.encodeNs = append(lay.encodeNs, enc)
			lay.decodeNs = append(lay.decodeNs, dec)
		}
		lay.runs++
	}
	return out, op, lats
}

func addBandwidth(dst *controlplane.BandwidthStats, b controlplane.BandwidthStats) {
	dst.Diagnoses += b.Diagnoses
	dst.PartialDiagnoses += b.PartialDiagnoses
	dst.SuppressedNotifications += b.SuppressedNotifications
	dst.Retries += b.Retries
}

// rankOf is the 1-based rank of the first culprit in list that locates
// gt, or 0.
func rankOf(list []rca.Culprit, gt faults.GroundTruth) int {
	for i, c := range list {
		if marsMatches(c, gt) {
			return i + 1
		}
	}
	return 0
}

// wrongCulprit is a ground truth no culprit can match.
func wrongCulprit(gt faults.GroundTruth) faults.GroundTruth {
	gt.Switch, gt.BurstSrcEdge, gt.BurstSinkEdge = -1, -1, -1
	return gt
}

// marsMatches is Table 1's location rule (experiments.marsMatches): a
// micro-burst is located by naming the offending flow, every other fault
// by naming the faulty switch.
func marsMatches(c rca.Culprit, gt faults.GroundTruth) bool {
	if gt.Kind == faults.MicroBurst {
		return c.Level == rca.LevelFlow &&
			c.Flow == dataplane.FlowID{Src: gt.BurstSrcEdge, Sink: gt.BurstSinkEdge}
	}
	if gt.Kind == faults.ECMPImbalance && c.Cause == rca.CauseECMPImbalance {
		return c.ContainsSwitch(gt.Switch)
	}
	if c.Level == rca.LevelFlow {
		return false
	}
	return c.ContainsSwitch(gt.Switch)
}

// batchTrialCost is the nominal cost of one batch-k4 trial, which sizes a
// run: at 20 s, six trials of every fault kind. That run makes about 120
// rca.Analyze calls, well inside the range (100 to 199) where the tail
// latency is p90 for every seed.
const batchTrialCost = 650 * time.Millisecond

// batchTrials is the run's fixed trial list: the first rounds of
// batchPlan(seed), each round one trial of every fault kind, as many as
// fit the budget at batchTrialCost, around the plan again past its end.
func batchTrials(cfg runConfig) []experiments.TrialConfig {
	plan := batchPlan(cfg.seed)
	if cfg.short {
		return plan[:2]
	}
	kinds := len(faults.Kinds())
	n := kinds * opsFor(cfg.budget, batchTrialCost*time.Duration(kinds))
	trials := make([]experiments.TrialConfig, n)
	for i := range trials {
		trials[i] = plan[i%len(plan)]
	}
	return trials
}

// runBatch is the batch-k4 workload: the run's fixed trial list, then the
// reference check.
func runBatch(cfg runConfig) *outcome {
	// Every trial runs on this goroutine; locked to one thread, its
	// thread CPU time is rca.Analyze's own.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	o := newOutcome()
	trials := batchTrials(cfg)
	o.info["shards"], o.info["workers"] = 1, 1

	var lay *batchLayers
	var base []batchOutcome
	var baseWall []float64
	if cfg.trace {
		// The same trials untraced first: their outcomes must equal the
		// traced ones, and their wall time is the base of the tracing
		// overhead.
		for _, tc := range trials {
			settle()
			res, op, _ := runBatchTrial(tc, cfg.corrupt, nil)
			base = append(base, res)
			baseWall = append(baseWall, op.live.wall.Seconds())
		}
		lay = &batchLayers{tr: newTracer(), miner: &minerTap{}}
	}

	var got []batchOutcome
	gc := startGC()
	o.heap.watch()
	defer o.heap.stop()
	for i, tc := range trials {
		if lay != nil {
			lay.tr.op = i
		}
		settle()
		res, op, lats := runBatchTrial(tc, cfg.corrupt, lay)
		o.addOp(op)
		for _, l := range lats {
			o.diag = append(o.diag, l.cpu)
			o.diagWall = append(o.diagWall, l.wall)
		}
		o.attempted++
		if res.Scored == 0 || res.Scored > batchTop {
			o.failed++
		}
		o.outcomes = append(o.outcomes, float64(boolInt(res.Rank == 1)))
		if res.DetectSim >= 0 {
			o.detect = append(o.detect, float64(res.DetectSim)/1e6)
		}
		got = append(got, res)
	}
	o.gcCycles, o.gcFrac = gc.stop()

	// A trial past the plan's end repeats one and must repeat its outcome;
	// the distinct ones are checked against experiments.RunTrial.
	distinct := min(len(trials), len(batchPlan(cfg.seed)))
	for i := distinct; i < len(got); i++ {
		if got[i] != got[i%distinct] {
			o.fail("trial %d (%v seed %d) changed on its rerun: %+v vs %+v", i%distinct, trials[i].Fault, trials[i].Seed, got[i], got[i%distinct])
		}
	}
	for i, ref := range referenceTrials(trials[:distinct]) {
		if ref.Rank != got[i].Rank || ref.Diagnoses != got[i].Diagnoses || ref.Packets != got[i].Packets {
			o.fail("trial %d (%v seed %d): rank/diagnoses/packets %d/%d/%d, experiments.RunTrial gives %d/%d/%d",
				i, trials[i].Fault, trials[i].Seed, got[i].Rank, got[i].Diagnoses, got[i].Packets, ref.Rank, ref.Diagnoses, ref.Packets)
		}
	}
	o.sim = fmt.Sprint(got)
	if lay != nil {
		if lay.wireErr != nil {
			o.fail("ctrlchan wire format: %v", lay.wireErr)
		}
		for i := range base {
			if base[i] != got[i] {
				o.fail("trial %d: tracing changed the outcome: %+v untraced, %+v traced", i, base[i], got[i])
			}
		}
		batchLayerMetrics(o, lay, baseWall)
	}
	return o
}

// referenceTrials runs experiments.RunTrial(SysMARS, …) on every trial of
// the plan, after the live phase and on GOMAXPROCS workers.
func referenceTrials(plan []experiments.TrialConfig) []experiments.TrialResult {
	out := make([]experiments.TrialResult, len(plan))
	next := make(chan int, len(plan))
	for i := range plan {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		//mars:sync workers drain one shared index channel and write into pre-indexed result slots, so the results do not depend on scheduling
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = experiments.RunTrial(experiments.SysMARS, plan[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// batchLayerMetrics turns a traced batch run's accumulators into the
// per-layer metrics, each a mean per trial.
func batchLayerMetrics(o *outcome, lay *batchLayers, baseWall []float64) {
	n := float64(lay.runs)
	tr := lay.tr
	var hookBusy time.Duration
	var hookCalls int64
	for _, h := range lay.hooks {
		hookBusy += h.estimate()
		hookCalls += h.calls
	}
	var pkts int64
	for _, op := range o.ops {
		pkts += op.pkts
	}
	mine := time.Duration(lay.miner.ns.Load())
	netsimSelf := tr.self[layerNetsim] - hookBusy
	rcaSelf := tr.self[layerRCA] - mine
	m := o.layers
	m["netsim.self_s"] = netsimSelf.Seconds() / n
	m["netsim.pkts"] = float64(pkts) / n
	m["netsim.dropped"] = float64(lay.dropped) / n
	m["dataplane.hook_s"] = hookBusy.Seconds() / n
	m["dataplane.hook_calls_per_pkt"] = float64(hookCalls) / float64(pkts)
	m["dataplane.telemetry_bytes_per_pkt"] = float64(lay.telemB) / float64(pkts)
	m["dataplane.notifications"] = float64(lay.notes) / n
	m["controlplane.self_s"] = tr.self[layerControl].Seconds() / n
	m["controlplane.diagnoses"] = float64(lay.ctrl.Diagnoses) / n
	m["controlplane.partial"] = float64(lay.ctrl.PartialDiagnoses) / n
	m["controlplane.suppressed"] = float64(lay.ctrl.SuppressedNotifications) / n
	m["controlplane.retries"] = float64(lay.ctrl.Retries) / n
	if lay.analyzeN > 0 {
		var recs int64
		for _, op := range o.ops {
			recs += op.records
		}
		m["controlplane.records_per_diag"] = float64(recs) / float64(lay.analyzeN)
		m["rca.allocs_per_diag"] = median(lay.allocs)
		m["rca.alloc_kb_per_diag"] = median(lay.allocKB)
		m["sbfl.score_calls"] = float64(lay.scores.Load()) / n
		m["fsm.mine_calls"] = float64(lay.miner.calls.Load()) / n
	}
	m["rca.analyze_s"] = tr.total[layerRCA].Seconds() / n
	m["fsm.mine_s"] = mine.Seconds() / n
	m["pathid.build_s"] = median(seconds(lay.build))
	m["pathid.paths"] = float64(lay.paths)
	m["pathid.width_bits"] = float64(lay.width)
	if lay.ctrl.Diagnoses > 0 {
		m["ctrlchan.frames_per_diag"] = float64(lay.frames) / float64(lay.ctrl.Diagnoses)
		m["ctrlchan.retries_per_diag"] = float64(lay.ctrl.Retries) / float64(lay.ctrl.Diagnoses)
	}
	m["ctrlchan.encode_ns_per_record"] = median(lay.encodeNs)
	m["ctrlchan.decode_ns_per_record"] = median(lay.decodeNs)
	o.spans = tr.spans
	selfSum := netsimSelf + hookBusy + tr.self[layerControl] + rcaSelf + mine
	o.account(selfSum.Seconds()/n, baseWall)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
