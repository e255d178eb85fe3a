package main

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"mars/internal/dataplane"
	"mars/internal/experiments"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/stream"
	"mars/internal/topology"
	"mars/internal/workload"
)

// streamK is the stream-k16 fabric arity; self-test runs shrink it.
const streamK = 16

// streamLayers accumulates the per-layer counters of a traced stream run.
type streamLayers struct {
	tr                               *tracer
	scores                           atomic.Int64
	runs                             int
	hookNs                           time.Duration // busy shard-time, summed over shards
	runCPU                           time.Duration // process CPU time inside Sharded.Run
	calls                            int64
	pkts                             int64
	dropped                          int64
	events                           int64
	rounds                           int64
	telemB                           int64
	notes                            int64
	build                            []time.Duration
	paths                            int
	width                            int
	windows, evicted, resident, late int64
}

// streamConfig is the `-exp stream` configuration the workload runs.
func streamConfig(cfg runConfig) experiments.StreamTrialConfig {
	k := streamK
	if cfg.short {
		k = 4
	}
	tc := experiments.DefaultStreamTrialConfig(k, runtime.GOMAXPROCS(0), cfg.seed)
	tc.Workers = runtime.GOMAXPROCS(0)
	return tc
}

// runStreamTrial rebuilds experiments.RunStreamTrial from the public
// constructors so the simulator, the data-plane hooks and the stream
// services can be timed from outside. It returns the simulated outcome in
// RunStreamTrial's own rendering. lay is nil in untraced runs.
func runStreamTrial(tc experiments.StreamTrialConfig, corrupt bool, heap *heapPeak, lay *streamLayers) (string, opSample, []phase, streamScore) {
	var tr *tracer
	if lay != nil {
		tr = lay.tr
	}
	setup := startProbe()
	ft, err := topology.NewFatTree(tc.K)
	if err != nil {
		panic(err)
	}
	part := ft.PodPartition()
	shards := min(max(tc.Shards, 1), part.NumUnits)

	b0 := now()
	table := selectivePathTable(ft, meshPairs(ft, tc.NumFlows))
	buildDur := since(b0)
	progCfg := dataplane.DefaultProgramConfig()
	progCfg.PathCfg = table.Cfg

	owned := make([][]topology.NodeID, shards)
	for _, sw := range ft.Switches() {
		s := int(part.UnitOf[sw]) % shards
		owned[s] = append(owned[s], sw)
	}
	progs := make([]*dataplane.Program, shards)
	bufs := make([][]dataplane.RTRecord, shards)
	taps := make([]*hookTap, shards)
	for i := range progs {
		progs[i] = dataplane.NewResident(progCfg, ft.Topology, table, nil, owned[i])
		buf := &bufs[i]
		progs[i].OnRecord = func(_ topology.NodeID, rec dataplane.RTRecord) {
			*buf = append(*buf, rec)
		}
		taps[i] = &hookTap{inner: progs[i]}
	}
	hooksFor := func(i int) netsim.Hooks { return progs[i] }
	if lay != nil {
		hooksFor = func(i int) netsim.Hooks { return taps[i] }
	}
	router := netsim.NewECMPRouter(ft.Topology, uint64(tc.Seed))
	sh := netsim.NewSharded(ft.Topology, part, router, hooksFor,
		trialSimConfig(), tc.Seed, netsim.ShardedConfig{Shards: shards})
	defer sh.Close()

	total := netsim.Time(tc.Epochs) * tc.Epoch
	for i := 0; i < tc.NumFlows; i++ {
		src, dst := meshEndpoints(ft, i)
		f := &workload.Flow{
			Src: src, Dst: dst, Key: netsim.FlowKey(i + 1),
			RatePPS: tc.RatePPS,
			Gaps:    workload.GapExponential,
			Start:   netsim.Time(i%97) * 50 * netsim.Microsecond,
			Stop:    total,
		}
		sh.OnNode(src, f.Install)
	}
	svcs := make([]*stream.Service, len(tc.Windows))
	for i, w := range tc.Windows {
		scfg := stream.DefaultConfig(tc.Seed)
		scfg.Epoch = tc.Epoch
		scfg.WindowEpochs = w
		scfg.Workers = tc.Workers
		if lay != nil {
			scfg.RCA.Formula = countFormula(scfg.RCA.Formula, &lay.scores)
		}
		svcs[i] = stream.New(scfg, part, table)
	}
	badAgg := ft.AggIDs[0]
	isEdge := map[topology.NodeID]bool{}
	for _, e := range ft.EdgeIDs {
		isEdge[e] = true
	}
	setDrop := func(p float64) {
		sim := sh.Shard(sh.ShardFor(badAgg))
		for _, nb := range ft.Topology.Neighbors(badAgg) {
			if !isEdge[nb] {
				continue
			}
			if port, ok := ft.Topology.PortTo(badAgg, nb); ok {
				sim.SetPortDropProb(badAgg, port, p)
			}
		}
	}
	op := opSample{setup: setup.stop()}

	var drained int64
	var lats []phase
	drain := func() {
		tr.begin(layerStreamIngest, true)
		p := startProbe()
		for i := range bufs {
			for _, rec := range bufs[i] {
				for _, svc := range svcs {
					svc.Ingest(rec)
				}
			}
			drained += int64(len(bufs[i]))
			bufs[i] = bufs[i][:0]
		}
		op.serviceCPU += p.stop().cpu
		tr.end()
	}
	// closeWith times one closing call per service; a call that closes a
	// window is one diagnosis latency sample.
	closeWith := func(fn func(*stream.Service)) {
		tr.begin(layerStreamClose, true)
		for _, svc := range svcs {
			n := len(svc.Results())
			p := startProbe()
			fn(svc)
			d := p.stop()
			op.serviceCPU += d.cpu
			if len(svc.Results()) > n {
				lats = append(lats, d)
			}
		}
		tr.end()
	}
	// simRun advances the sharded simulator; a traced run also keeps the
	// process CPU time the call took, over which its hook time is shared.
	simRun := func(until netsim.Time) {
		tr.begin(layerNetsim, true)
		var c0 time.Duration
		if lay != nil {
			c0 = processCPU()
		}
		sh.Run(until)
		if lay != nil {
			lay.runCPU += processCPU() - c0
		}
		tr.end()
	}
	p := startProbe()
	for e := 0; e < tc.Epochs; e++ {
		if uint32(e) == tc.FaultStart {
			setDrop(tc.DropProb)
		}
		if uint32(e) == tc.FaultStop {
			setDrop(0)
		}
		simRun(netsim.Time(e+1) * tc.Epoch)
		drain()
		closeWith(func(s *stream.Service) { s.CloseEpoch(uint32(e)) })
		heap.sample()
	}
	simRun(netsim.Time(tc.Epochs+1) * tc.Epoch)
	drain()
	closeWith(func(s *stream.Service) { s.Finish() })
	op.live = p.stop()

	stats := sh.MergedStats()
	culprit := badAgg
	if corrupt {
		culprit = ft.AggIDs[1]
	}
	res := streamResult(tc, sh.NumShards(), ft, svcs, badAgg, stats, drained)
	score := scoreStream(tc, svcs, culprit)
	score.detectSim = -1
	if res.DetectionEpoch >= 0 {
		score.detectSim = res.DetectionLatency
	}
	op.pkts = stats.Sent
	op.records = drained
	op.serviceRecords = drained
	if lay != nil {
		lay.runs++
		for _, t := range taps {
			lay.hookNs += t.estimate()
			lay.calls += t.calls
		}
		for _, pr := range progs {
			lay.telemB += pr.Stats.TelemetryLinkBytes
			lay.notes += pr.Stats.Notifications
		}
		for _, ev := range sh.Events() {
			lay.events += ev
		}
		lay.rounds += sh.Rounds()
		lay.pkts += stats.Sent
		lay.dropped += stats.Dropped
		lay.build = append(lay.build, buildDur)
		lay.paths, lay.width = table.NumPaths(), int(table.Cfg.Width)
		reg := svcs[0].Metrics()
		for name, dst := range map[string]*int64{
			"windows_analyzed": &lay.windows, "flows_evicted": &lay.evicted,
			"resident_bytes": &lay.resident, "records_late": &lay.late,
		} {
			v, _ := reg.Get(name)
			*dst += v
		}
	}
	return res.Render(), op, lats, score
}

// streamScore is one stream run's scoring: fault windows of every window
// size, how many of them put the expected culprit first among drop
// causes, and `-exp stream`'s detection latency.
type streamScore struct {
	windows, hits int
	detectSim     netsim.Time // -1 when never detected
}

// scoreStream counts, for every service, the fault-overlapping windows
// whose drop-class top-1 culprit is `culprit`.
func scoreStream(tc experiments.StreamTrialConfig, svcs []*stream.Service, culprit topology.NodeID) streamScore {
	var sc streamScore
	for _, svc := range svcs {
		for _, w := range svc.Results() {
			if w.End < tc.FaultStart || w.Start >= tc.FaultStop {
				continue
			}
			sc.windows++
			if top := dropTop1(w.Culprits); top != nil && top.ContainsSwitch(culprit) {
				sc.hits++
			}
		}
	}
	return sc
}

func dropTop1(cs []rca.Culprit) *rca.Culprit {
	for i := range cs {
		if cs[i].Cause == rca.CauseDrop {
			return &cs[i]
		}
	}
	return nil
}

// streamResult fills experiments.StreamTrialResult's simulated fields the
// way RunStreamTrial does, so Render can be compared byte for byte.
func streamResult(tc experiments.StreamTrialConfig, shards int, ft *topology.FatTree, svcs []*stream.Service, badAgg topology.NodeID, stats netsim.Stats, drained int64) *experiments.StreamTrialResult {
	res := &experiments.StreamTrialResult{
		K: tc.K, Shards: shards, Workers: tc.Workers,
		Switches: ft.NumSwitches(), Hosts: ft.NumHosts(), Flows: tc.NumFlows,
		Epochs: tc.Epochs, EpochDur: tc.Epoch,
		FaultStart: tc.FaultStart, FaultStop: tc.FaultStop,
		Culprit: badAgg,
		Sent:    stats.Sent, Delivered: stats.Delivered, Dropped: stats.Dropped,
		RecordsDrained: drained,
		PrimaryWindow:  tc.Windows[0],
		DetectionEpoch: -1,
	}
	primary := svcs[0]
	// Detection: the first primary window ranking a drop at the culprit
	// within the top 3 drop-cause culprits.
	for _, w := range primary.Results() {
		if res.DetectionEpoch >= 0 {
			break
		}
		drops := 0
		for _, c := range w.Culprits {
			if c.Cause != rca.CauseDrop {
				continue
			}
			if drops++; drops > 3 {
				break
			}
			if c.ContainsSwitch(badAgg) {
				res.DetectionEpoch = int(w.End)
				res.DetectionLatency = netsim.Time(w.End+1)*tc.Epoch - netsim.Time(tc.FaultStart)*tc.Epoch
				break
			}
		}
	}
	res.WindowsAnalyzed = len(primary.Results())
	res.MetricsJSON = primary.Metrics().Snapshot()
	for i, svc := range svcs {
		acc := experiments.StreamWindowAccuracy{WindowEpochs: tc.Windows[i]}
		for _, w := range svc.Results() {
			if w.End < tc.FaultStart || w.Start >= tc.FaultStop {
				continue
			}
			acc.Windows++
			if top := dropTop1(w.Culprits); top != nil && top.ContainsSwitch(badAgg) {
				acc.Top1++
			}
		}
		res.Accuracy = append(res.Accuracy, acc)
	}
	sort.Slice(res.Accuracy, func(i, j int) bool {
		return res.Accuracy[i].WindowEpochs < res.Accuracy[j].WindowEpochs
	})
	return res
}

// meshEndpoints is the stream trial's deterministic cross-pod mesh: flow
// i goes from host i to a host 1..K-1 pods away.
func meshEndpoints(ft *topology.FatTree, i int) (src, dst topology.NodeID) {
	hosts := ft.HostIDs
	perPod := len(hosts) / ft.K
	src = hosts[i%len(hosts)]
	dst = hosts[(i%len(hosts)+perPod*(1+i%(ft.K-1)))%len(hosts)]
	return src, dst
}

// meshPairs is the set of (source edge, sink edge) pairs the mesh's first
// numFlows flows traverse.
func meshPairs(ft *topology.FatTree, numFlows int) map[[2]topology.NodeID]bool {
	pairs := map[[2]topology.NodeID]bool{}
	for i := 0; i < numFlows; i++ {
		src, dst := meshEndpoints(ft, i)
		se, _ := ft.EdgeSwitchOf(src)
		de, _ := ft.EdgeSwitchOf(dst)
		pairs[[2]topology.NodeID{se, de}] = true
	}
	return pairs
}

// selectivePathTable builds the path table over exactly the mesh's edge
// pairs, widening the ID space until that set is collision-free.
func selectivePathTable(ft *topology.FatTree, pairs map[[2]topology.NodeID]bool) *pathid.Table {
	keys := make([][2]topology.NodeID, 0, len(pairs))
	for p := range pairs { //mars:mapiter-ok keys are sorted before use
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var paths []topology.Path
	for _, p := range keys {
		if p[0] != p[1] {
			paths = append(paths, ft.AllShortestPaths(p[0], p[1])...)
		}
	}
	cfg := pathid.DefaultConfig()
	for {
		table, err := pathid.BuildTable(cfg, ft.Topology, paths)
		if err == nil {
			return table
		}
		if cfg.Width >= 16 {
			panic(err)
		}
		cfg.Width += 8
	}
}

// streamRunCost is the nominal cost of one stream-k16 run, which sizes a
// run: at 20 s, four stream runs.
const streamRunCost = 5 * time.Second

// runStream is the stream-k16 workload: a fixed number of identical
// stream runs, then the reference check against
// experiments.RunStreamTrial.
func runStream(cfg runConfig) *outcome {
	o := newOutcome()
	tc := streamConfig(cfg)
	o.info["shards"] = tc.Shards
	o.info["workers"] = tc.Workers
	o.info["k"] = tc.K
	ops := opsFor(cfg.budget, streamRunCost)
	if cfg.short {
		ops = 1
	}

	var lay *streamLayers
	var baseWall []float64
	var base string
	if cfg.trace {
		// The same runs untraced first: their outcome must equal the
		// traced one, and their wall time is the base of the tracing
		// overhead.
		for i := 0; i < ops; i++ {
			settle()
			var op opSample
			base, op, _, _ = runStreamTrial(tc, cfg.corrupt, &heapPeak{}, nil)
			baseWall = append(baseWall, op.live.wall.Seconds())
		}
		lay = &streamLayers{tr: newTracer()}
	}
	gc := startGC()
	o.heap.watch()
	defer o.heap.stop()
	var got string
	for i := 0; i < ops; i++ {
		if lay != nil {
			lay.tr.op = i
		}
		settle()
		render, op, lats, sc := runStreamTrial(tc, cfg.corrupt, &o.heap, lay)
		o.addOp(op)
		for _, l := range lats {
			o.diag = append(o.diag, l.cpu)
			o.diagWall = append(o.diagWall, l.wall)
		}
		o.attempted += sc.windows
		o.failed += sc.windows - sc.hits
		for j := 0; j < sc.windows; j++ {
			o.outcomes = append(o.outcomes, float64(boolInt(j < sc.hits)))
		}
		if sc.detectSim >= 0 {
			o.detect = append(o.detect, float64(sc.detectSim)/1e6)
		}
		if i > 0 && render != got {
			o.fail("stream run %d differs from run 0:\n%s\nvs\n%s", i, render, got)
		}
		got = render
	}
	o.gcCycles, o.gcFrac = gc.stop()
	o.sim = got
	if ref := experiments.RunStreamTrial(tc, nil).Render(); ref != got {
		o.fail("stream outcome differs from -exp stream:\n%s\nwant\n%s", got, ref)
	}
	if lay != nil {
		if base != got {
			o.fail("tracing changed the stream outcome:\n%s\nuntraced\n%s", got, base)
		}
		streamLayerMetrics(o, lay, baseWall)
	}
	return o
}

// streamLayerMetrics turns a traced stream run's accumulators into the
// per-layer metrics, each a mean per stream run. The shards run in
// parallel, so hook time is busy time summed over them. The hooks' share
// of the process CPU time spent inside Sharded.Run is the share of that
// call's wall span given to dataplane.hook_s, the rest to netsim.self_s;
// the share is capped at the whole span, so neither can be negative.
func streamLayerMetrics(o *outcome, lay *streamLayers, baseWall []float64) {
	n := float64(lay.runs)
	tr := lay.tr
	share := 1.0
	if lay.runCPU > lay.hookNs {
		share = float64(lay.hookNs) / float64(lay.runCPU)
	}
	hookWall := time.Duration(float64(tr.self[layerNetsim]) * share)
	netsimSelf := tr.self[layerNetsim] - hookWall
	m := o.layers
	m["netsim.self_s"] = netsimSelf.Seconds() / n
	m["netsim.pkts"] = float64(lay.pkts) / n
	m["netsim.dropped"] = float64(lay.dropped) / n
	m["netsim.events"] = float64(lay.events) / n
	m["netsim.events_per_pkt"] = float64(lay.events) / float64(lay.pkts)
	m["netsim.rounds"] = float64(lay.rounds) / n
	m["dataplane.hook_s"] = hookWall.Seconds() / n
	m["dataplane.hook_calls_per_pkt"] = float64(lay.calls) / float64(lay.pkts)
	m["dataplane.telemetry_bytes_per_pkt"] = float64(lay.telemB) / float64(lay.pkts)
	m["dataplane.notifications"] = float64(lay.notes) / n
	m["sbfl.score_calls"] = float64(lay.scores.Load()) / n
	m["pathid.build_s"] = median(seconds(lay.build))
	m["pathid.paths"] = float64(lay.paths)
	m["pathid.width_bits"] = float64(lay.width)
	m["stream.ingest_s"] = tr.self[layerStreamIngest].Seconds() / n
	m["stream.close_s"] = tr.self[layerStreamClose].Seconds() / n
	m["stream.windows"] = float64(lay.windows) / n
	m["stream.flows_evicted"] = float64(lay.evicted) / n
	m["stream.resident_bytes"] = float64(lay.resident) / n
	m["stream.records_late"] = float64(lay.late) / n
	o.spans = tr.spans
	selfSum := netsimSelf + hookWall + tr.self[layerStreamIngest] + tr.self[layerStreamClose]
	o.account(selfSum.Seconds()/n, baseWall)
}
