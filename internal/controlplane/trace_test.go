package controlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
	"mars/internal/workload"
)

// recordingTransport hashes every message put on the control channel —
// by the controller and by the switch-side agent alike — before handing
// it to the wrapped transport.
type recordingTransport struct {
	inner ctrlchan.Transport
	sim   *netsim.Simulator
	h     hash.Hash
	sends int
}

func (r *recordingTransport) Send(d ctrlchan.Direction, m ctrlchan.Message, deliver func(ctrlchan.Message)) {
	r.sends++
	fmt.Fprintf(r.h, "%d d%d k%d q%d s%d f%d-%d th%d\n", r.sim.Now(), uint8(d), uint8(m.Kind),
		m.Seq, m.Switch, m.Flow.Src, m.Flow.Sink, m.Threshold)
	r.inner.Send(d, m, deliver)
}

// pinnedRequestTrace is the digest of TestControllerRequestTrace's send
// trace, diagnoses and final byte accounting. It pins the controller's
// whole request lifecycle under loss — which Seq each attempt gets, when
// deadlines and backoffs fire, which pushes are re-sent — so a slip shows
// here in well under a second rather than only in the ctrlchan sweep.
const pinnedRequestTrace = "30d2f9762152366e927633ada1ad14606c2476ada23309020aa6209f54e118b8"

func TestControllerRequestTrace(t *testing.T) {
	const seed = 41
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
	sim := netsim.New(ft.Topology, netsim.NewECMPRouter(ft.Topology, seed), prog, netsim.DefaultConfig(), seed)
	rec := &recordingTransport{
		inner: ctrlchan.New(sim, ctrlchan.Lossy(0.3, seed)),
		sim:   sim,
		h:     sha256.New(),
	}
	ctrl := NewWithTransport(DefaultConfig(), sim, prog, rec)
	prog.Notifier = ctrl
	ctrl.OnDiagnosis = func(d Diagnosis) {
		fmt.Fprintf(rec.h, "diag %d trig%d@%d recs%d req%d missing%v\n", d.Time,
			d.Trigger.Switch, d.Trigger.Time, len(d.Records), d.Requested, d.MissingSinks)
	}
	ctrl.Start()
	for i := 0; i < 8; i++ {
		f := &workload.Flow{
			Src: ft.HostIDs[i], Dst: ft.HostIDs[(i+9)%len(ft.HostIDs)],
			Key: netsim.FlowKey(i + 1), RatePPS: 200, Gaps: workload.GapConstant,
			Start: 0, Stop: 3 * netsim.Second,
		}
		f.Install(sim)
	}
	// Once thresholds have settled, slow two aggregation switches so the
	// data plane raises notifications for the rest of the run.
	sim.At(1500*netsim.Millisecond, func() {
		sim.SetSwitchExtraDelay(ft.AggIDs[0], 50*netsim.Millisecond)
		sim.SetSwitchExtraDelay(ft.AggIDs[1], 50*netsim.Millisecond)
	})
	sim.Run(3 * netsim.Second)

	b := ctrl.Bytes
	fmt.Fprintf(rec.h, "bytes note%d coll%d refr%d push%d req%d ack%d diag%d part%d supp%d dup%d retr%d\n",
		b.NotificationBytes, b.CollectionBytes, b.RefreshBytes, b.ThresholdPushBytes,
		b.RequestBytes, b.AckBytes, b.Diagnoses, b.PartialDiagnoses,
		b.SuppressedNotifications, b.DuplicateNotifications, b.Retries)
	if b.Diagnoses < 2 || b.Retries == 0 || b.NotificationBytes == 0 {
		t.Fatalf("trace does not exercise the lossy lifecycle: %+v", b)
	}
	got := hex.EncodeToString(rec.h.Sum(nil))
	if got != pinnedRequestTrace {
		t.Errorf("request trace digest = %s, want %s (%d sends, %+v)", got, pinnedRequestTrace, rec.sends, b)
	}
}
