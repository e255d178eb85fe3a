package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"mars/internal/faults"
)

// The perf experiment measures the simulator's end-to-end packet
// throughput and the per-packet telemetry cost for every registered codec:
// one full MARS trial per codec (identical seeds, so identical packet
// populations), timed wall-clock. Unlike every other experiment, its
// numbers are machine-dependent by design — the JSON output is a committed
// baseline (BENCH_perf.json) used by humans and the bench-gate CI job to
// spot order-of-magnitude regressions, not a deterministic artifact.

// PerfRow is one codec's throughput and overhead measurement.
type PerfRow struct {
	Codec string `json:"codec"`
	// Trials is the number of timed trials aggregated into this row.
	Trials int `json:"trials"`
	// Packets is the total end-to-end packet count across trials;
	// TelemetryPackets the subset promoted to carry INT headers.
	Packets          int64 `json:"packets"`
	TelemetryPackets int64 `json:"telemetry_packets"`
	// TelemetryBytes / TotalLinkBytes mirror the overhead experiment's
	// byte accounting.
	TelemetryBytes int64 `json:"telemetry_bytes"`
	TotalLinkBytes int64 `json:"total_link_bytes"`
	// WallSeconds is the summed wall-clock time of the timed trials.
	WallSeconds float64 `json:"wall_seconds"`
	// PacketsPerSec is end-to-end packets simulated per wall second.
	PacketsPerSec float64 `json:"packets_per_sec"`
	// BytesPerPacket is mean in-band telemetry bytes per packet.
	BytesPerPacket float64 `json:"bytes_per_packet"`
}

// ScaleShardMem is one shard's memory high-water marks in the scale tier.
type ScaleShardMem struct {
	Shard         int   `json:"shard"`
	OwnedSwitches int   `json:"owned_switches"`
	AgendaPeak    int   `json:"agenda_peak"`
	PeakKB        int64 `json:"peak_kb"`
}

// ScalePerf is the sharded scale tier's throughput/memory baseline: one
// full k-arity data-plane trial through the sharded engine. Like the rest
// of this file it is machine-dependent by design.
type ScalePerf struct {
	K             int             `json:"k"`
	Shards        int             `json:"shards"`
	Flows         int             `json:"flows"`
	Packets       int64           `json:"packets"`
	Events        int64           `json:"events"`
	Rounds        int64           `json:"rounds"`
	WallSeconds   float64         `json:"wall_seconds"`
	PacketsPerSec float64         `json:"packets_per_sec"`
	EventsPerSec  float64         `json:"events_per_sec"`
	ShardMem      []ScaleShardMem `json:"shard_mem"`
}

// StreamPerf is the streaming-diagnosis tier's sustained-operation
// baseline: one continuously-diagnosing k-arity trial. Throughput
// figures are machine-dependent; the detection outcome is not.
type StreamPerf struct {
	K             int     `json:"k"`
	Shards        int     `json:"shards"`
	Flows         int     `json:"flows"`
	Epochs        int     `json:"epochs"`
	WindowEpochs  int     `json:"window_epochs"`
	Records       int64   `json:"records"`
	Diagnoses     int64   `json:"diagnoses"`
	DetectionMs   float64 `json:"detection_ms"` // -1 if the fault was missed
	WallSeconds   float64 `json:"wall_seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	DiagPerSec    float64 `json:"diagnoses_per_sec"`
}

// DeployPerf is the real-process deployment tier's baseline: one full
// loopback run (controller + switch-group nodes on separate UDP sockets
// inside this process — the same transports and replay machinery
// cmd/mars-node forks into real processes). Wall-clock figures are
// machine-dependent; Top1Match is not and must stay true.
type DeployPerf struct {
	K      int     `json:"k"`
	Groups int     `json:"groups"`
	Scale  float64 `json:"scale"`
	Fault  string  `json:"fault"`
	// Diagnoses counts finalized socket collections; NotesReplayed the
	// notifications the switch nodes put on the wire.
	Diagnoses     int  `json:"diagnoses"`
	NotesReplayed int  `json:"notes_replayed"`
	Top1Match     bool `json:"top1_match"`
	// WallSeconds covers the live phase (replay + drain).
	WallSeconds float64 `json:"wall_seconds"`
	// CollectMeanMs / CollectP95Ms are wall-clock trigger→diagnosis
	// collection latencies over real sockets.
	CollectMeanMs float64 `json:"collect_mean_ms"`
	CollectP95Ms  float64 `json:"collect_p95_ms"`
	DiagPerSec    float64 `json:"diagnoses_per_sec"`
	// Retries counts control-channel retransmissions the run needed.
	Retries int64 `json:"retries"`
}

// PerfResult is the full sweep, JSON-serializable for BENCH_perf.json.
type PerfResult struct {
	// Note flags the machine sensitivity for anyone diffing baselines.
	Note   string      `json:"note"`
	Seed   int64       `json:"seed"`
	Fault  string      `json:"fault"`
	Rows   []PerfRow   `json:"rows"`
	Scale  *ScalePerf  `json:"scale,omitempty"`
	Stream *StreamPerf `json:"stream,omitempty"`
	Deploy *DeployPerf `json:"deploy,omitempty"`
}

// RunPerf times one MARS trial per (codec, trial index) sequentially —
// timing is the measurement, so the harness pool is bypassed on purpose.
// Seeds derive exactly as in the overhead sweep, so every codec simulates
// the same fault sequence and packet population.
func RunPerf(opts EngineOptions, trials int, baseSeed int64) *PerfResult {
	if trials < 1 {
		trials = 1
	}
	kind := faults.MicroBurst
	res := &PerfResult{
		Note:  "wall-clock throughput baseline; machine-dependent, compare only order of magnitude across hosts",
		Seed:  baseSeed,
		Fault: kind.String(),
	}
	for _, codec := range OverheadCodecs {
		row := PerfRow{Codec: codec, Trials: trials}
		for t := 0; t < trials; t++ {
			tc := seededConfig(baseSeed, int(kind), t, kind)
			tc.Codec = codec
			start := time.Now() //mars:wallclock the perf experiment measures wall-clock throughput
			r := opts.runTrial(SysMARS, tc)
			row.WallSeconds += time.Since(start).Seconds() //mars:wallclock the perf experiment measures wall-clock throughput
			row.Packets += r.Packets
			row.TelemetryPackets += r.TelemetryPackets
			row.TelemetryBytes += r.TelemetryBytes
			row.TotalLinkBytes += r.TotalLinkBytes
		}
		if row.WallSeconds > 0 {
			row.PacketsPerSec = float64(row.Packets) / row.WallSeconds
		}
		if row.Packets > 0 {
			row.BytesPerPacket = float64(row.TelemetryBytes) / float64(row.Packets)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// AddScale runs the sharded scale trial described by tc and attaches its
// throughput and per-shard memory numbers to the baseline.
func (r *PerfResult) AddScale(tc TrialConfig) {
	st := RunScaleTrial(tc, nil)
	sp := &ScalePerf{
		K:           st.K,
		Shards:      st.Shards,
		Flows:       st.Flows,
		Packets:     st.Delivered,
		Events:      st.Events,
		Rounds:      st.Rounds,
		WallSeconds: st.WallSeconds,
	}
	if st.WallSeconds > 0 {
		sp.PacketsPerSec = float64(st.Delivered) / st.WallSeconds
		sp.EventsPerSec = float64(st.Events) / st.WallSeconds
	}
	for _, m := range st.Mem {
		sp.ShardMem = append(sp.ShardMem, ScaleShardMem{
			Shard:         m.Shard,
			OwnedSwitches: m.OwnedSwitches,
			AgendaPeak:    m.AgendaPeak,
			PeakKB:        m.PeakBytes / 1024,
		})
	}
	r.Scale = sp
}

// AddStream runs the streaming-diagnosis trial described by tc and
// attaches its sustained throughput and detection latency.
func (r *PerfResult) AddStream(tc StreamTrialConfig) {
	st := RunStreamTrial(tc, nil)
	sp := &StreamPerf{
		K:             st.K,
		Shards:        st.Shards,
		Flows:         st.Flows,
		Epochs:        st.Epochs,
		WindowEpochs:  st.PrimaryWindow,
		Records:       st.RecordsDrained,
		WallSeconds:   st.WallSeconds,
		RecordsPerSec: st.RecordsPerSec,
		DiagPerSec:    st.DiagPerSec,
		Diagnoses:     st.Diagnoses,
		DetectionMs:   -1,
	}
	if st.DetectionEpoch >= 0 {
		sp.DetectionMs = float64(st.DetectionLatency) / float64(1e6)
	}
	r.Stream = sp
}

// JSON renders the machine-readable baseline (the BENCH_perf.json format).
func (r *PerfResult) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// The struct contains only plain scalars; marshaling cannot fail.
		panic(err)
	}
	return string(b) + "\n"
}

// Render formats the human-readable summary.
func (r *PerfResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Perf: simulator throughput per codec (fault=%s, seed=%d)\n", r.Fault, r.Seed)
	fmt.Fprintf(&b, "%-10s %12s %10s %10s %12s %8s\n",
		"codec", "pkts/sec", "packets", "telem-pkt", "wall-sec", "B/pkt")
	for i := range r.Rows {
		row := &r.Rows[i]
		fmt.Fprintf(&b, "%-10s %12.0f %10d %10d %12.2f %8.2f\n",
			row.Codec, row.PacketsPerSec, row.Packets, row.TelemetryPackets,
			row.WallSeconds, row.BytesPerPacket)
	}
	if s := r.Scale; s != nil {
		fmt.Fprintf(&b, "scale: k=%d shards=%d packets=%d events=%d wall=%.2fs pkts/s=%.0f events/s=%.0f\n",
			s.K, s.Shards, s.Packets, s.Events, s.WallSeconds, s.PacketsPerSec, s.EventsPerSec)
	}
	if s := r.Stream; s != nil {
		fmt.Fprintf(&b, "stream: k=%d shards=%d records=%d wall=%.2fs records/s=%.0f diagnoses/s=%.0f detection=%.0fms\n",
			s.K, s.Shards, s.Records, s.WallSeconds, s.RecordsPerSec, s.DiagPerSec, s.DetectionMs)
	}
	if s := r.Deploy; s != nil {
		fmt.Fprintf(&b, "deploy: k=%d groups=%d scale=%.2f diagnoses=%d match=%v wall=%.2fs collect_mean=%.1fms p95=%.1fms diagnoses/s=%.1f\n",
			s.K, s.Groups, s.Scale, s.Diagnoses, s.Top1Match, s.WallSeconds,
			s.CollectMeanMs, s.CollectP95Ms, s.DiagPerSec)
	}
	return b.String()
}
