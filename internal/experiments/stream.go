package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/stream"
	"mars/internal/topology"
)

// The stream trial is the continuous-operation tier: the same sharded
// k=16 data-plane simulation as the scale trial, but instead of one
// post-hoc diagnosis the sink records feed internal/stream epoch by
// epoch — bounded per-flow state, sliding-window incremental mining, a
// cross-unit culprit merge per window — while a silent-drop gray failure
// turns on and off mid-run. The trial reports the streaming service's
// whole observable surface: detection latency from fault injection to
// the first window that ranks the true culprit, localization accuracy
// as a function of the window size, and the live metrics snapshot.
//
// Everything on stdout (Render) is invariant under the simulator shard
// count AND the stream worker count — CI diffs both. Only wall-clock
// throughput on stderr varies per machine.

// StreamTrialConfig sizes one streaming-diagnosis trial.
type StreamTrialConfig struct {
	Seed   int64
	K      int
	Shards int // simulator shards; <=0 = GOMAXPROCS, clamped to units
	// Workers bounds the stream service's per-window analysis fan-out.
	Workers int
	// Background traffic, as in the scale trial.
	NumFlows int
	RatePPS  float64
	// Epoch geometry: Epochs telemetry epochs of Epoch each.
	Epoch  netsim.Time
	Epochs int
	// Windows lists the window sizes (in epochs) evaluated side by side
	// over the same record stream; Windows[0] is the primary service
	// whose metrics and detection latency are reported.
	Windows []int
	// Fault: silent drop at DropProb on one aggregation switch's
	// edge-facing ports during epochs [FaultStart, FaultStop).
	FaultStart, FaultStop uint32
	DropProb              float64
	// Stream memory bounds (zero = stream.DefaultConfig values).
	BudgetBytes    int
	EpochSampleCap int

	// Tee, if non-nil, observes every drained sink record in coordinator
	// order — the hook behind the batch-equivalence test.
	Tee func(dataplane.RTRecord)
}

// DefaultStreamTrialConfig is the benched configuration: a k-ary fabric
// under the scale trial's cross-pod mesh, 100 ms epochs, a fault over
// the middle third of the run, and windows 2/4/8 compared.
func DefaultStreamTrialConfig(k, shards int, seed int64) StreamTrialConfig {
	hosts := k * k * k / 4
	return StreamTrialConfig{
		Seed:       seed,
		K:          k,
		Shards:     shards,
		Workers:    1,
		NumFlows:   2 * hosts,
		RatePPS:    120,
		Epoch:      100 * netsim.Millisecond,
		Epochs:     15,
		Windows:    []int{4, 2, 8},
		FaultStart: 5,
		FaultStop:  10,
		DropProb:   0.30,
	}
}

// StreamWindowAccuracy is one window size's localization score: the
// fraction of fault-overlapping windows whose merged top-1 culprit is a
// drop at the injected switch.
type StreamWindowAccuracy struct {
	WindowEpochs int
	Windows      int // fault-overlapping windows analyzed
	Top1         int // of those, top-1 == ground truth
}

// StreamTrialResult carries the simulated outcome (invariant under the
// shard and worker counts) plus machine-dependent throughput figures.
type StreamTrialResult struct {
	K       int
	Shards  int // effective simulator shards actually run
	Workers int
	// Topology and workload dimensions.
	Switches, Hosts, Flows int
	// Epoch geometry and ground truth.
	Epochs     int
	EpochDur   netsim.Time
	FaultStart uint32
	FaultStop  uint32
	Culprit    topology.NodeID
	// Record flow (invariant).
	Sent, Delivered, Dropped int64
	RecordsDrained           int64
	// Primary service outcome (Windows[0]).
	PrimaryWindow    int
	DetectionEpoch   int // window-end epoch of first top-3 hit; -1 never
	DetectionLatency netsim.Time
	WindowsAnalyzed  int
	Diagnoses        int64
	Accuracy         []StreamWindowAccuracy
	MetricsJSON      string // primary service's live metrics snapshot
	// Machine-dependent accounting (stderr only).
	WallSeconds   float64
	DiagPerSec    float64 // per-unit window analyses per wall second
	RecordsPerSec float64
}

// RunStreamTrial executes one continuously-diagnosing trial: the sharded
// simulator advances one telemetry epoch per step, each shard's resident
// program taps its sink records through Program.OnRecord into a
// per-shard buffer, and the coordinator drains the buffers into the
// stream services between steps. The per-unit record order is invariant
// under the shard count, and every service consumes per-unit sequences
// only, so the simulated outcome is byte-identical for any Shards or
// Workers value.
func RunStreamTrial(tc StreamTrialConfig, progress netsim.ShardProgress) *StreamTrialResult {
	ft, err := topology.NewFatTree(tc.K)
	if err != nil {
		panic(err)
	}
	// The path table comes first: it covers exactly the (source edge,
	// sink edge) pairs the mesh can produce (the all-pairs set is
	// infeasible at k=16), and the data plane shares it so the MAT
	// control values that break hash collisions are consistent between
	// the per-hop chain and the sink-side decompression.
	table := selectivePathTable(ft, streamMeshPairs(ft, tc.NumFlows))
	progCfg := dataplane.DefaultProgramConfig()
	progCfg.PathCfg = table.Cfg
	sh := newShardedFabric(ft, tc.Seed, tc.Shards, scaledSimConfig(), progCfg, table, progress)
	defer sh.Close()
	sh.installMesh(tc.NumFlows, tc.RatePPS, netsim.Time(tc.Epochs)*tc.Epoch)

	// Each shard's program taps its sink records into its own buffer. The
	// tap runs inside the shard's event loop, so buffers are strictly
	// per-shard — the coordinator drains them between steps.
	bufs := make([][]dataplane.RTRecord, len(sh.progs))
	for i, p := range sh.progs {
		buf := &bufs[i]
		p.OnRecord = func(_ topology.NodeID, rec dataplane.RTRecord) {
			*buf = append(*buf, rec)
		}
	}

	// One stream service per window size over the same record stream.
	svcs := make([]*stream.Service, len(tc.Windows))
	for i, w := range tc.Windows {
		scfg := stream.DefaultConfig(tc.Seed)
		scfg.Epoch = tc.Epoch
		scfg.WindowEpochs = w
		scfg.Workers = tc.Workers
		if tc.BudgetBytes > 0 {
			scfg.BudgetBytes = tc.BudgetBytes
		}
		if tc.EpochSampleCap > 0 {
			scfg.EpochSampleCap = tc.EpochSampleCap
		}
		svcs[i] = stream.New(scfg, sh.Part, table)
	}

	// Ground truth: silent drop on the edge-facing ports of the first
	// aggregation switch. Port loss state lives on the owning shard only,
	// so the mutation targets that shard's simulator between Run steps.
	badAgg := ft.AggIDs[0]
	isEdge := map[topology.NodeID]bool{}
	for _, e := range ft.EdgeIDs {
		isEdge[e] = true
	}
	setDrop := func(p float64) {
		sim := sh.Shard(sh.ShardFor(badAgg))
		for _, nb := range ft.Topology.Neighbors(badAgg) {
			if !isEdge[nb] {
				continue // edge-facing ports only
			}
			if port, ok := ft.Topology.PortTo(badAgg, nb); ok {
				sim.SetPortDropProb(badAgg, port, p)
			}
		}
	}

	var drained int64
	start := time.Now() //mars:wallclock the stream tier reports real sustained throughput
	for e := 0; e < tc.Epochs; e++ {
		if uint32(e) == tc.FaultStart {
			setDrop(tc.DropProb)
		}
		if uint32(e) == tc.FaultStop {
			setDrop(0)
		}
		sh.Run(netsim.Time(e+1) * tc.Epoch)
		// Drain shard buffers in shard order. Unit u's records live in
		// exactly one buffer (shard u%shards) in deterministic order, so
		// every per-unit ingest sequence is shard-count invariant.
		for i := range bufs {
			for _, rec := range bufs[i] {
				if tc.Tee != nil {
					tc.Tee(rec)
				}
				for _, svc := range svcs {
					svc.Ingest(rec)
				}
			}
			drained += int64(len(bufs[i]))
			bufs[i] = bufs[i][:0]
		}
		// By the end of epoch e every record of epoch e-1 has arrived
		// (one-epoch lateness bound), so e-1 and older may finalize.
		for _, svc := range svcs {
			svc.CloseEpoch(uint32(e))
		}
	}
	// One grace epoch flushes the final epoch's in-flight records.
	sh.Run(netsim.Time(tc.Epochs+1) * tc.Epoch)
	for i := range bufs {
		for _, rec := range bufs[i] {
			if tc.Tee != nil {
				tc.Tee(rec)
			}
			for _, svc := range svcs {
				svc.Ingest(rec)
			}
		}
		drained += int64(len(bufs[i]))
		bufs[i] = bufs[i][:0]
	}
	for _, svc := range svcs {
		svc.Finish()
	}
	wall := time.Since(start).Seconds() //mars:wallclock the stream tier reports real sustained throughput

	stats := sh.MergedStats()
	res := &StreamTrialResult{
		K:        tc.K,
		Shards:   sh.NumShards(),
		Workers:  tc.Workers,
		Switches: ft.NumSwitches(),
		Hosts:    ft.NumHosts(),
		Flows:    tc.NumFlows,
		Epochs:   tc.Epochs, EpochDur: tc.Epoch,
		FaultStart: tc.FaultStart, FaultStop: tc.FaultStop,
		Culprit: badAgg,
		Sent:    stats.Sent, Delivered: stats.Delivered, Dropped: stats.Dropped,
		RecordsDrained: drained,
		PrimaryWindow:  tc.Windows[0],
		DetectionEpoch: -1,
		WallSeconds:    wall,
	}

	// Detection latency: the first window (primary service) whose merged
	// list ranks a drop at the true switch within the top 3 of the
	// drop-cause culprits, measured from the fault's first epoch to that
	// window's close. The rank is within the fault's cause class: the
	// always-on latency pipeline surfaces tail-latency culprits from
	// every healthy pod each window, and the cross-unit merge normalizes
	// per unit, so class-blind rank would measure pod count, not
	// localization.
	primary := svcs[0]
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
	if v, ok := primary.Metrics().Get("diagnoses"); ok {
		res.Diagnoses = v
		if wall > 0 {
			res.DiagPerSec = float64(v) / wall
		}
	}
	if wall > 0 {
		res.RecordsPerSec = float64(drained) / wall
	}

	for i, svc := range svcs {
		acc := StreamWindowAccuracy{WindowEpochs: tc.Windows[i]}
		for _, w := range svc.Results() {
			if w.End < tc.FaultStart || w.Start >= tc.FaultStop {
				continue
			}
			acc.Windows++
			// Top-1 within the drop class, matching the detection rank.
			for _, c := range w.Culprits {
				if c.Cause != rca.CauseDrop {
					continue
				}
				if c.ContainsSwitch(badAgg) {
					acc.Top1++
				}
				break
			}
		}
		res.Accuracy = append(res.Accuracy, acc)
	}
	sort.Slice(res.Accuracy, func(i, j int) bool {
		return res.Accuracy[i].WindowEpochs < res.Accuracy[j].WindowEpochs
	})
	return res
}

// streamMeshPairs returns the set of (source edge, sink edge) switch
// pairs the mesh's first numFlows flows traverse.
func streamMeshPairs(ft *topology.FatTree, numFlows int) map[[2]topology.NodeID]bool {
	pairs := map[[2]topology.NodeID]bool{}
	for i := 0; i < numFlows; i++ {
		src, dst := meshEndpoints(ft, i)
		se, _ := ft.EdgeSwitchOf(src)
		de, _ := ft.EdgeSwitchOf(dst)
		pairs[[2]topology.NodeID{se, de}] = true
	}
	return pairs
}

// selectivePathTable builds a path-ID table over exactly the edge pairs
// the workload uses, widening the ID space until the used set is
// collision-free.
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
		if p[0] == p[1] {
			continue
		}
		paths = append(paths, ft.AllShortestPaths(p[0], p[1])...)
	}
	cfg := pathid.DefaultConfig()
	for {
		table, err := pathid.BuildTable(cfg, ft.Topology, paths)
		if err == nil {
			return table
		}
		// The wire format carries 16 PathID bits, so that is the ceiling.
		if cfg.Width >= 16 {
			panic(err)
		}
		cfg.Width += 8
	}
}

// Render formats the simulated outcome. Invariant under both the
// simulator shard count and the stream worker count — the determinism CI
// job diffs this output across both — so neither Shards, Workers, nor
// any wall-clock figure may appear.
func (r *StreamTrialResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stream trial: continuous diagnosis at K=%d\n", r.K)
	fmt.Fprintf(&b, "  topology: switches=%d hosts=%d flows=%d\n", r.Switches, r.Hosts, r.Flows)
	fmt.Fprintf(&b, "  timeline: epochs=%d epoch=%v fault=[%d,%d) culprit=s%d\n",
		r.Epochs, r.EpochDur, r.FaultStart, r.FaultStop, r.Culprit)
	fmt.Fprintf(&b, "  packets:  sent=%d delivered=%d dropped=%d records=%d\n",
		r.Sent, r.Delivered, r.Dropped, r.RecordsDrained)
	if r.DetectionEpoch >= 0 {
		fmt.Fprintf(&b, "  detect:   window=%d epochs, first-hit epoch=%d latency=%v\n",
			r.PrimaryWindow, r.DetectionEpoch, r.DetectionLatency)
	} else {
		fmt.Fprintf(&b, "  detect:   window=%d epochs, MISSED (%d windows analyzed)\n",
			r.PrimaryWindow, r.WindowsAnalyzed)
	}
	for _, a := range r.Accuracy {
		pct := 0.0
		if a.Windows > 0 {
			pct = 100 * float64(a.Top1) / float64(a.Windows)
		}
		fmt.Fprintf(&b, "  window=%d: fault-windows=%d top1=%d (%.0f%%)\n",
			a.WindowEpochs, a.Windows, a.Top1, pct)
	}
	fmt.Fprintf(&b, "  metrics:  %s\n", r.MetricsJSON)
	return b.String()
}

// TimingLine is the machine-readable stderr throughput summary.
func (r *StreamTrialResult) TimingLine() string {
	return fmt.Sprintf("timing: exp=stream-trial k=%d shards=%d workers=%d wall=%.2fs records/s=%.0f diagnoses/s=%.0f",
		r.K, r.Shards, r.Workers, r.WallSeconds, r.RecordsPerSec, r.DiagPerSec)
}
