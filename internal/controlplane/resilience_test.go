package controlplane

import (
	"testing"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
	"mars/internal/workload"
)

// newLossyEnv is newEnv with an explicit control channel and controller
// config.
func newLossyEnv(t *testing.T, seed int64, cfg Config, chCfg ctrlchan.Config) *env {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataplane.DefaultProgramConfig()
	table, err := pathid.BuildTable(dcfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	prog := dataplane.New(dcfg, ft.Topology, table, nil)
	router := netsim.NewECMPRouter(ft.Topology, uint64(seed))
	sim := netsim.New(ft.Topology, router, prog, netsim.DefaultConfig(), seed)
	ch := ctrlchan.New(sim, chCfg)
	ctrl := NewWithChannel(cfg, sim, prog, ch)
	prog.Notifier = ctrl
	ctrl.Start()
	return &env{ft: ft, sim: sim, prog: prog, ctrl: ctrl}
}

func TestZeroEdgeSwitchTopology(t *testing.T) {
	// A switch-only topology has no telemetry sinks. The controller must
	// not crash: a notification still produces a diagnosis — an empty,
	// complete one (Requested 0, full coverage) — rather than a stall.
	b := topology.NewBuilder()
	s0 := b.AddSwitch("s0", topology.LayerCore)
	s1 := b.AddSwitch("s1", topology.LayerCore)
	b.Connect(s0, s1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog := dataplane.New(dataplane.DefaultProgramConfig(), topo, nil, nil)
	sim := netsim.New(topo, nil, prog, netsim.DefaultConfig(), 1)
	ctrl := NewWithChannel(DefaultConfig(), sim, prog, nil)
	if n := len(ctrl.EdgeSwitches()); n != 0 {
		t.Fatalf("edge switches = %d, want 0", n)
	}
	var diags []Diagnosis
	ctrl.OnDiagnosis = func(d Diagnosis) { diags = append(diags, d) }
	ctrl.Start()
	ctrl.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency})
	sim.Run(netsim.Second)
	if len(diags) != 1 {
		t.Fatalf("diagnoses = %d, want 1", len(diags))
	}
	d := diags[0]
	if d.Requested != 0 || len(d.Records) != 0 || d.Partial() {
		t.Errorf("diagnosis = %+v, want empty complete collection", d)
	}
	if d.Coverage() != 1 {
		t.Errorf("coverage = %v, want 1 for the zero-sink degenerate case", d.Coverage())
	}
	if ctrl.Bytes.CollectionBytes != 0 || ctrl.Bytes.Diagnoses != 1 {
		t.Errorf("accounting = %+v", ctrl.Bytes)
	}
}

func TestIdleRefreshSendsNothing(t *testing.T) {
	// Once every Ring Table record predates the per-sink watermark, further
	// refresh rounds move no record bytes and push no thresholds — the
	// incremental pull must recognize an idle network.
	e := newEnv(t, 11)
	f := &workload.Flow{Src: e.ft.HostIDs[0], Dst: e.ft.HostIDs[8], Key: 1,
		RatePPS: 100, Gaps: workload.GapConstant, Start: 0, Stop: netsim.Second}
	f.Install(e.sim)
	e.sim.Run(2 * netsim.Second)
	refresh, push := e.ctrl.Bytes.RefreshBytes, e.ctrl.Bytes.ThresholdPushBytes
	if refresh == 0 || push == 0 {
		t.Fatalf("busy phase moved no bytes: %+v", e.ctrl.Bytes)
	}
	e.sim.Run(5 * netsim.Second) // 15 more idle refresh rounds
	if got := e.ctrl.Bytes.RefreshBytes; got != refresh {
		t.Errorf("idle refresh moved %d record bytes", got-refresh)
	}
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != push {
		t.Errorf("idle refresh pushed %d threshold bytes", got-push)
	}
}

func TestThresholdPushSkipsUnchangedValue(t *testing.T) {
	// Satellite of the Fig. 9 study: re-deriving an unchanged threshold
	// must cost zero push bytes; only a moved value goes on the wire.
	e := newEnv(t, 12)
	flow := dataplane.FlowID{Src: e.ctrl.EdgeSwitches()[0], Sink: e.ctrl.EdgeSwitches()[1]}
	numSw := len(e.ctrl.Topo.Switches())
	perRound := int64(numSw) * dataplane.ThresholdPushBytes

	e.ctrl.pushThreshold(flow, 5*netsim.Millisecond)
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != perRound {
		t.Fatalf("first push = %d bytes, want %d", got, perRound)
	}
	if got := e.ctrl.Bytes.AckBytes; got != int64(numSw)*ctrlchan.AckBytes {
		t.Errorf("acks = %d bytes, want %d", got, int64(numSw)*ctrlchan.AckBytes)
	}
	e.ctrl.pushThreshold(flow, 5*netsim.Millisecond)
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != perRound {
		t.Errorf("unchanged value re-pushed: %d bytes, want still %d", got, perRound)
	}
	e.ctrl.pushThreshold(flow, 6*netsim.Millisecond)
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != 2*perRound {
		t.Errorf("moved value = %d bytes, want %d", got, 2*perRound)
	}
}

func TestCollectionRetriesRecoverMissingSinks(t *testing.T) {
	// Lose 60% of controller→switch requests. Without retries the
	// collection finishes partial (missing sinks tagged, coverage < 1);
	// with the retry budget the same seed recovers more sinks.
	chCfg := ctrlchan.Config{
		ToSwitch: ctrlchan.DirConfig{Loss: 0.6, Latency: netsim.Millisecond},
		Seed:     21,
	}
	collect := func(cfg Config) Diagnosis {
		e := newLossyEnv(t, 21, cfg, chCfg)
		var diags []Diagnosis
		e.ctrl.OnDiagnosis = func(d Diagnosis) { diags = append(diags, d) }
		e.sim.At(0, func() {
			e.ctrl.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency})
		})
		e.sim.Run(2 * netsim.Second)
		if len(diags) != 1 {
			t.Fatalf("diagnoses = %d, want 1", len(diags))
		}
		return diags[0]
	}

	noRetry := DefaultConfig()
	noRetry.MaxRetries = 0
	dn := collect(noRetry)
	if !dn.Partial() || dn.Coverage() >= 1 {
		t.Fatalf("no-retry at 60%% loss should be partial, got %d/%d sinks",
			dn.Requested-len(dn.MissingSinks), dn.Requested)
	}
	if dn.Requested != 8 {
		t.Errorf("requested = %d, want 8 edge switches", dn.Requested)
	}

	dr := collect(DefaultConfig())
	if len(dr.MissingSinks) >= len(dn.MissingSinks) {
		t.Errorf("retries did not recover sinks: %d missing with retries vs %d without",
			len(dr.MissingSinks), len(dn.MissingSinks))
	}
}

func TestDuplicatedNotificationsDeduplicated(t *testing.T) {
	// Every notification is duplicated in transit; sequence numbers must
	// collapse the copies to one diagnosis.
	chCfg := ctrlchan.Config{
		ToController: ctrlchan.DirConfig{Latency: netsim.Millisecond, DupProb: 1},
		Seed:         31,
	}
	e := newLossyEnv(t, 31, DefaultConfig(), chCfg)
	var diags []Diagnosis
	e.ctrl.OnDiagnosis = func(d Diagnosis) { diags = append(diags, d) }
	e.sim.At(0, func() {
		e.ctrl.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency})
	})
	e.sim.Run(netsim.Second)
	if len(diags) != 1 {
		t.Fatalf("diagnoses = %d, want 1 (duplicate suppressed)", len(diags))
	}
	if e.ctrl.Bytes.DuplicateNotifications != 1 {
		t.Errorf("duplicate notifications = %d, want 1", e.ctrl.Bytes.DuplicateNotifications)
	}
}
