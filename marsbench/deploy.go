package main

import (
	"sync/atomic"
	"time"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/deploy"
	"mars/internal/harness"
)

// deployScenarios is how many distinct scenarios (seeds) one run of
// deploy-loopback cycles through, so a run's latency figures average
// over several fault placements instead of following one.
const deployScenarios = 8

// deployLayers accumulates the per-layer counters of a traced deploy run.
type deployLayers struct {
	miner                        *minerTap
	scores                       atomic.Int64
	runs                         int
	diagnoses, partial, suppress int64
	retries, records             int64
	frames, fragments, reasm     int64
	paths, width                 int
	pkts, dropped                int64
	encodeNs, decodeNs           []float64
}

// deployScenario is operation i's scenario: the CI smoke scenario
// (silent drop on k=4, 4 switch groups, no injected loss) at the i-th
// seed of the run.
func deployScenario(seed int64, i int) deploy.Scenario {
	sc := deploy.DefaultScenario()
	sc.Seed = harness.LegacyPlan{}.TrialSeed(seed, 0, i%deployScenarios)
	return sc
}

// deployRun is one loopback deployment's checked result.
type deployRun struct {
	captured, finalized int
	top1                string
	expected            string
}

// runDeployOp is one deployment, composed from the public deploy calls
// the way deploy.RunLoopback composes them: build the capture, bind the
// sockets, start the controller and one node per switch group, replay,
// wait for in-flight collections to settle.
func runDeployOp(sc deploy.Scenario, lay *deployLayers) (deployRun, opSample, []time.Duration, error) {
	setup := startProbe()
	c, err := deploy.Build(sc)
	if err != nil {
		return deployRun{}, opSample{}, nil, err
	}
	if lay != nil {
		lay.miner.inner = c.Sys.Analyzer.Cfg.Miner
		c.Sys.Analyzer.Cfg.Miner = lay.miner
		c.Sys.Analyzer.Cfg.Formula = countFormula(c.Sys.Analyzer.Cfg.Formula, &lay.scores)
	}
	groups := deploy.GroupSwitches(c.Sys.FT, sc.Groups)
	conns, pm, err := deploy.AllocatePorts(groups)
	if err != nil {
		return deployRun{}, opSample{}, nil, err
	}
	swAddrs, err := pm.SwitchAddrs()
	if err != nil {
		return deployRun{}, opSample{}, nil, err
	}
	ctrlAddr, err := pm.ControllerAddr()
	if err != nil {
		return deployRun{}, opSample{}, nil, err
	}
	ctrl := deploy.NewControllerNode(c, conns[0], swAddrs)
	var nodes []*deploy.SwitchNode
	for i, g := range groups {
		nodes = append(nodes, deploy.NewSwitchNode(c, g, conns[i+1], ctrlAddr))
	}
	defer func() {
		ctrl.Stop()
		for _, n := range nodes {
			n.Stop()
		}
	}()
	op := opSample{setup: setup.stop()}

	p := startProbe()
	ctrl.Start()
	for _, n := range nodes {
		n.Start()
	}
	time.Sleep(deploy.ReplayDuration(sc)) //mars:wallclock live replay phase, as in deploy.RunLoopback
	deploy.WaitSettled(ctrl)
	op.live = p.stop()

	diags := ctrl.Diagnoses()
	for _, d := range diags {
		op.records += int64(len(d.Records))
	}
	// A deployment may fire a collection on another trigger of the same
	// response window than the simulator did, so collections are matched
	// by count, not by trigger identity.
	run := deployRun{captured: len(c.Diags), finalized: min(len(diags), len(c.Diags))}
	if got := ctrl.Culprits(); len(got) > 0 {
		run.top1 = deploy.Top1Key(got[0])
	}
	if len(c.Expected) > 0 {
		run.expected = deploy.Top1Key(c.Expected[0])
	}
	var lats []time.Duration
	for _, l := range ctrl.CollectionLatencies() {
		lats = append(lats, time.Duration(l))
	}
	// The whole live phase is the service: the controller and switch
	// nodes, with the replayed notifications as their only input.
	op.serviceRecords = op.records
	op.serviceCPU = op.live.cpu
	op.pkts = c.Sys.Sim.Stats.Sent

	if lay != nil {
		lay.runs++
		bw := ctrl.BandwidthStats()
		lay.diagnoses += int64(len(diags))
		lay.partial += bw.PartialDiagnoses
		lay.suppress += bw.SuppressedNotifications
		lay.retries += bw.Retries
		lay.records += op.records
		for _, st := range append([]*ctrlchan.UDPStats{ctrl.Stats()}, nodeStats(nodes)...) {
			lay.frames += st.FramesSent.Load()
			lay.fragments += st.FragmentsSent.Load()
			lay.reasm += st.ReasmDropped.Load()
		}
		lay.paths, lay.width = c.Sys.Paths.NumPaths(), int(c.Sys.Paths.Cfg.Width)
		lay.pkts += c.Sys.Sim.Stats.Sent
		lay.dropped += c.Sys.Sim.Stats.Dropped
		var recs []dataplane.RTRecord
		for _, d := range c.Diags {
			recs = append(recs, d.Records...)
		}
		enc, dec, err := wireCost(recs)
		if err != nil {
			return run, op, lats, err
		}
		lay.encodeNs = append(lay.encodeNs, enc)
		lay.decodeNs = append(lay.decodeNs, dec)
	}
	return run, op, lats, nil
}

func nodeStats(nodes []*deploy.SwitchNode) []*ctrlchan.UDPStats {
	out := make([]*ctrlchan.UDPStats, len(nodes))
	for i, n := range nodes {
		out[i] = n.Stats()
	}
	return out
}

// deployCost is the nominal cost of one loopback deployment, which sizes
// a run: at 20 s, sixteen deployments, each scenario seed twice.
const deployCost = 1250 * time.Millisecond

// runDeploy is the deploy-loopback workload: a fixed number of loopback
// deployments cycling over the run's scenarios.
func runDeploy(cfg runConfig) *outcome {
	o := newOutcome()
	o.info["groups"] = deploy.DefaultScenario().Groups
	o.info["scenarios"] = deployScenarios
	o.info["shards"], o.info["workers"] = 1, 1

	ops := opsFor(cfg.budget, deployCost)
	if cfg.short {
		ops = 1
	}

	var lay *deployLayers
	var baseWall []float64
	if cfg.trace {
		// The same deployments untraced first: their wall time is the base
		// of the tracing overhead.
		for i := 0; i < ops; i++ {
			settle()
			_, op, _, err := runDeployOp(deployScenario(cfg.seed, i), nil)
			if err != nil {
				o.fail("deploy: %v", err)
				return o
			}
			baseWall = append(baseWall, op.live.wall.Seconds())
		}
		lay = &deployLayers{miner: &minerTap{}}
	}
	gc := startGC()
	o.heap.watch()
	defer o.heap.stop()
	for i := 0; i < ops; i++ {
		settle()
		sc := deployScenario(cfg.seed, i)
		run, op, lats, err := runDeployOp(sc, lay)
		if err != nil {
			o.fail("deploy seed %d: %v", sc.Seed, err)
			return o
		}
		o.addOp(op)
		o.diag = append(o.diag, lats...)
		o.attempted += run.captured
		o.failed += run.captured - run.finalized
		if run.top1 != run.expected {
			o.fail("deploy seed %d: top-1 %q, the simulator capture says %q", sc.Seed, run.top1, run.expected)
		}
		o.outcomes = append(o.outcomes, float64(boolInt(run.top1 == run.expected)))
	}
	o.gcCycles, o.gcFrac = gc.stop()
	if lay != nil {
		deployLayerMetrics(o, lay, baseWall)
	}
	return o
}

// deployLayerMetrics turns a traced deploy run's accumulators into the
// per-layer metrics, each a mean per deployment. The live phase is paced
// by the replay clock, so most of its wall time is waiting: the layers
// report counts and busy time, and trace.unaccounted_s is that wait.
func deployLayerMetrics(o *outcome, lay *deployLayers, baseWall []float64) {
	n := float64(lay.runs)
	diags := float64(max(lay.diagnoses, 1))
	m := o.layers
	m["netsim.pkts"] = float64(lay.pkts) / n
	m["netsim.dropped"] = float64(lay.dropped) / n
	m["controlplane.diagnoses"] = float64(lay.diagnoses) / n
	m["controlplane.partial"] = float64(lay.partial) / n
	m["controlplane.suppressed"] = float64(lay.suppress) / n
	m["controlplane.retries"] = float64(lay.retries) / n
	m["controlplane.records_per_diag"] = float64(lay.records) / diags
	m["fsm.mine_s"] = time.Duration(lay.miner.ns.Load()).Seconds() / n
	m["fsm.mine_calls"] = float64(lay.miner.calls.Load()) / n
	m["sbfl.score_calls"] = float64(lay.scores.Load()) / n
	m["pathid.build_s"] = 0
	m["pathid.paths"] = float64(lay.paths)
	m["pathid.width_bits"] = float64(lay.width)
	m["ctrlchan.frames_per_diag"] = float64(lay.frames) / diags
	m["ctrlchan.fragments_sent"] = float64(lay.fragments) / n
	m["ctrlchan.retries_per_diag"] = float64(lay.retries) / diags
	m["ctrlchan.reasm_dropped"] = float64(lay.reasm) / n
	m["ctrlchan.encode_ns_per_record"] = median(lay.encodeNs)
	m["ctrlchan.decode_ns_per_record"] = median(lay.decodeNs)
	o.account(time.Duration(lay.miner.ns.Load()).Seconds()/n, baseWall)
}
