package experiments

import (
	"mars/internal/baselines/intsight"
	"mars/internal/baselines/spidermon"
	"mars/internal/baselines/syndb"
	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/telemetry"
	"mars/internal/topology"
)

// Substrate is the per-trial simulation stack shared by every compared
// system: one fat-tree, one ECMP router, one simulator. It is built
// exactly once per trial (the MARS path used to construct the topology and
// router twice), by runSystemTrial.
type Substrate struct {
	FT     *topology.FatTree
	Router *netsim.ECMPRouter
	Sim    *netsim.Simulator
}

// newFatTree builds the trial's topology, panicking on a malformed K (the
// harness recovers trial panics into typed errors).
func newFatTree(tc TrialConfig) *topology.FatTree {
	ft, err := topology.NewFatTree(tc.K)
	if err != nil {
		panic(err)
	}
	return ft
}

// newSubstrate wires the router and simulator around the topology with the
// trial's physical configuration and seed.
func newSubstrate(tc TrialConfig, ft *topology.FatTree, hooks netsim.Hooks) *Substrate {
	router := netsim.NewECMPRouter(ft.Topology, uint64(tc.Seed))
	cfg := scaledSimConfig()
	if tc.SimCfg != nil {
		cfg = *tc.SimCfg
	}
	sim := netsim.New(ft.Topology, router, hooks, cfg, tc.Seed)
	return &Substrate{FT: ft, Router: router, Sim: sim}
}

// SystemUnderTest wires one compared system into a trial. The lifecycle is
// fixed by runSystemTrial: Build constructs the system's data-plane hooks
// against the trial topology (before the simulator exists), Start attaches
// whatever needs the live simulator (controller, control channel, fault
// injector), and Localize scores the finished run into a TrialResult.
// Implementations carry per-trial state, so a fresh value must be built
// for every trial (newSystem); instances are never shared across harness
// workers.
type SystemUnderTest interface {
	// Kind names the system (Table 1 column).
	Kind() SystemKind
	// Build constructs the system for this trial's topology and returns
	// the data-plane hooks the simulator must install.
	Build(tc TrialConfig, ft *topology.FatTree) netsim.Hooks
	// Start completes wiring once the simulator exists; it runs before
	// traffic is installed and before the fault is injected.
	Start(tc TrialConfig, sub *Substrate, inj *faults.Injector)
	// Localize scores the finished run against the injected ground truth.
	Localize(tc TrialConfig, sub *Substrate, gt faults.GroundTruth) TrialResult
}

// newSystem builds a fresh per-trial SystemUnderTest for one Table-1
// column.
func newSystem(kind SystemKind) SystemUnderTest {
	switch kind {
	case SysMARS:
		return &marsSystem{}
	case SysSpiderMon:
		return &spiderMonSystem{}
	case SysIntSight:
		return &intSightSystem{}
	case SysSyNDB:
		return &synDBSystem{}
	default:
		return &synDBSystem{}
	}
}

// runSystemTrial is the single substrate-construction path behind every
// trial: build the topology once, hand it to the system for its hooks,
// build the simulator once, wire the system and injector, run the
// workload and fault, and score.
func runSystemTrial(s SystemUnderTest, tc TrialConfig) TrialResult {
	ft := newFatTree(tc)
	sub := newSubstrate(tc, ft, s.Build(tc, ft))
	inj := faults.NewInjector(sub.Sim, ft, sub.Router)
	s.Start(tc, sub, inj)
	installWorkload(tc, sub.Sim, ft)
	gt := inj.Inject(tc.Fault, tc.FaultStart, tc.FaultDur)
	sub.Sim.Run(tc.Total)
	res := s.Localize(tc, sub, gt)
	// The handle is live injection lifecycle state, not part of the result
	// record; keeping it would make otherwise-identical results compare
	// unequal across reruns.
	res.GT.Handle = nil
	return res
}

// --- MARS -----------------------------------------------------------------

// marsSystem runs MARS proper: PathID table, in-switch program, explicit
// control channel, controller, and RCA. The two optional knobs serve the
// ablations: mutateRCA edits the analyzer config before construction, and
// strictCause switches Localize to the cause-class matching rule.
type marsSystem struct {
	mutateRCA   func(*rca.Config)
	strictCause bool

	// Per-trial state, populated by Build/Start and consumed by Localize.
	table       *pathid.Table
	prog        *dataplane.Program
	codec       telemetry.Codec
	ch          *ctrlchan.Channel
	ctrl        *controlplane.Controller
	lists       [][]rca.Culprit
	detected    bool
	firstDiag   netsim.Time
	diagnoses   int64
	partial     int64
	falseAlarms int64
}

func (m *marsSystem) Kind() SystemKind { return SysMARS }

func (m *marsSystem) Build(tc TrialConfig, ft *topology.FatTree) netsim.Hooks {
	dcfg := dataplane.DefaultProgramConfig()
	if tc.Codec != "" {
		cdc, err := telemetry.New(tc.Codec, tc.Seed)
		if err != nil {
			panic(err)
		}
		m.codec = cdc
		dcfg.Codec = cdc
	}
	table, err := pathid.BuildTable(dcfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		panic(err)
	}
	m.table = table
	m.prog = dataplane.New(dcfg, ft.Topology, table, nil)
	return m.prog
}

func (m *marsSystem) Start(tc TrialConfig, sub *Substrate, inj *faults.Injector) {
	chcfg := ctrlchan.Config{Seed: tc.CtrlSeed}
	if tc.CtrlLossy {
		chcfg = ctrlchan.Lossy(tc.CtrlLoss, tc.CtrlSeed)
	}
	m.ch = ctrlchan.New(sub.Sim, chcfg)
	ccfg := controlplane.DefaultConfig()
	ccfg.Seed = tc.Seed
	if m.codec != nil {
		ccfg.Decoder = m.codec
	}
	if tc.CtrlNoRetry {
		ccfg.MaxRetries = 0
	}
	m.ctrl = controlplane.NewWithChannel(ccfg, sub.Sim, m.prog, m.ch)
	m.prog.Notifier = m.ctrl
	m.ctrl.Start()

	rcfg := rca.DefaultConfig()
	if m.mutateRCA != nil {
		m.mutateRCA(&rcfg)
	}
	analyzer := rca.New(rcfg, m.table, m.ctrl)
	m.ctrl.OnDiagnosis = func(d controlplane.Diagnosis) {
		if d.Time >= tc.FaultStart {
			if !m.detected {
				m.detected = true
				m.firstDiag = d.Time - tc.FaultStart
			}
			m.diagnoses++
			if d.Partial() {
				m.partial++
			}
			m.lists = append(m.lists, analyzer.Analyze(d))
		} else {
			m.falseAlarms++
		}
	}
	inj.Chan = m.ch
	// Wire the reboot register flush: a SwitchReboot injection wipes the
	// program's IT/ET/RT state on recovery. Harmless for every other
	// scenario (the flusher only fires from a reboot revert).
	inj.Registers = m.prog
}

func (m *marsSystem) Localize(tc TrialConfig, sub *Substrate, gt faults.GroundTruth) TrialResult {
	match := marsMatches
	if m.strictCause {
		match = marsCauseMatches
	}
	rank := 0
	for i, c := range rca.MergeRanked(m.lists) {
		if match(c, gt) {
			rank = i + 1
			break
		}
	}
	return TrialResult{
		System: SysMARS, GT: gt, Rank: rank, Detected: m.detected,
		TelemetryBytes: m.prog.Stats.TelemetryLinkBytes,
		DiagnosisBytes: m.ctrl.Bytes.DiagnosisBytes() + m.ctrl.Bytes.RefreshBytes + m.ctrl.Bytes.ThresholdPushBytes,
		TotalLinkBytes: totalLinkBytes(sub.Sim),
		DiagLatency:    m.firstDiag, DiagDetected: m.detected,
		Diagnoses: m.diagnoses, PartialDiagnoses: m.partial,
		Packets:          sub.Sim.Stats.Sent,
		TelemetryPackets: m.prog.Stats.TelemetryPackets,
		FalseAlarms:      m.falseAlarms,
	}
}

// --- SpiderMon --------------------------------------------------------------

type spiderMonSystem struct {
	sys *spidermon.System
}

func (s *spiderMonSystem) Kind() SystemKind { return SysSpiderMon }

func (s *spiderMonSystem) Build(tc TrialConfig, ft *topology.FatTree) netsim.Hooks {
	s.sys = spidermon.New(spidermon.DefaultConfig(), ft.Topology)
	return s.sys
}

func (s *spiderMonSystem) Start(TrialConfig, *Substrate, *faults.Injector) {}

func (s *spiderMonSystem) Localize(tc TrialConfig, sub *Substrate, gt faults.GroundTruth) TrialResult {
	rank := 0
	for i, c := range s.sys.Localize() {
		if baselineMatches(c.Switches, c.FlowID, true, gt) {
			rank = i + 1
			break
		}
	}
	return TrialResult{
		System: SysSpiderMon, GT: gt, Rank: rank, Detected: s.sys.Detected(),
		TelemetryBytes: s.sys.TelemetryBytes,
		DiagnosisBytes: s.sys.DiagnosisBytes,
		TotalLinkBytes: totalLinkBytes(sub.Sim),
	}
}

// --- IntSight ---------------------------------------------------------------

type intSightSystem struct {
	sys *intsight.System
}

func (s *intSightSystem) Kind() SystemKind { return SysIntSight }

func (s *intSightSystem) Build(tc TrialConfig, ft *topology.FatTree) netsim.Hooks {
	s.sys = intsight.New(intsight.DefaultConfig(), ft.Topology)
	return s.sys
}

func (s *intSightSystem) Start(TrialConfig, *Substrate, *faults.Injector) {}

func (s *intSightSystem) Localize(tc TrialConfig, sub *Substrate, gt faults.GroundTruth) TrialResult {
	rank := 0
	for i, c := range s.sys.Localize() {
		var sws []topology.NodeID
		if c.Switch >= 0 {
			sws = []topology.NodeID{c.Switch}
		}
		if baselineMatches(sws, c.FlowID, c.Switch < 0, gt) {
			rank = i + 1
			break
		}
	}
	return TrialResult{
		System: SysIntSight, GT: gt, Rank: rank, Detected: s.sys.Detected(),
		TelemetryBytes: s.sys.TelemetryBytes,
		DiagnosisBytes: s.sys.DiagnosisBytes,
		TotalLinkBytes: totalLinkBytes(sub.Sim),
	}
}

// --- SyNDB -------------------------------------------------------------------

type synDBSystem struct {
	sys *syndb.System
}

func (s *synDBSystem) Kind() SystemKind { return SysSyNDB }

func (s *synDBSystem) Build(tc TrialConfig, ft *topology.FatTree) netsim.Hooks {
	s.sys = syndb.New(syndb.DefaultConfig(), ft.Topology)
	return s.sys
}

func (s *synDBSystem) Start(TrialConfig, *Substrate, *faults.Injector) {}

func (s *synDBSystem) Localize(tc TrialConfig, sub *Substrate, gt faults.GroundTruth) TrialResult {
	rank := 0
	for i, c := range s.sys.Localize(syndbQuery(tc.Fault)) {
		var sws []topology.NodeID
		if c.Switch >= 0 {
			sws = []topology.NodeID{c.Switch}
		}
		if baselineMatches(sws, c.FlowID, c.Switch < 0, gt) {
			rank = i + 1
			break
		}
	}
	return TrialResult{
		System: SysSyNDB, GT: gt, Rank: rank, Detected: true, // always-on capture
		TelemetryBytes: s.sys.TelemetryBytes,
		DiagnosisBytes: s.sys.DiagnosisBytes,
		TotalLinkBytes: totalLinkBytes(sub.Sim),
	}
}
