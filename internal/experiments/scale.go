package experiments

import (
	"fmt"
	"strings"
	"time"

	"mars/internal/dataplane"
	"mars/internal/harness"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// ScaleRow captures MARS's per-network costs at one fat-tree arity.
type ScaleRow struct {
	K          int
	Switches   int
	Hosts      int
	Paths      int
	MaxHops    int
	HeaderB    int
	MATEntries int
	MATBytes   int
	// IntSightEntries is the per-hop-encoding baseline at the same scale.
	IntSightEntries int
	IntSightBytes   int
	// BuildMs is the control-plane PathID precomputation time.
	BuildMs float64
}

// ScaleResult is the K-sweep backing the paper's Motivation #2 claim that
// the path-aware method "is independent of the length of the path and
// does not raise extra costs as the network becomes larger".
type ScaleResult struct {
	Rows []ScaleRow
	// Width is the PathID width used (wider IDs for bigger path sets).
	Width uint
}

// RunScale sweeps fat-tree arities and measures MARS's header and
// memory costs against IntSight's encoding. A 16-bit PathID accommodates
// the larger path sets (the 8-bit default is sized for K=4). Each arity is
// one harness trial, so big-K topology and table builds proceed in
// parallel; rows come back in sweep order. BuildMs is the one wall-clock
// field: under parallel workers concurrent builds share the CPUs, so
// per-row build latency can read higher than a sequential sweep even
// though the whole sweep finishes sooner.
func RunScale(opts EngineOptions, ks []int) *ScaleResult {
	out := &ScaleResult{Width: 16}
	cfg := pathid.Config{Alg: pathid.CRC16, Width: out.Width}
	ts := make([]harness.Trial, len(ks))
	for i, k := range ks {
		ts[i] = harness.Trial{Index: i, Seed: int64(k), Label: fmt.Sprintf("scale/K=%d", k)}
	}
	rows, err := harness.Run(opts.config(), ts, func(tr harness.Trial) ScaleRow {
		k := ks[tr.Index]
		ft, err := topology.NewFatTree(k)
		if err != nil {
			panic(err)
		}
		paths := ft.AllEdgePairPaths()
		maxHops := 0
		for _, p := range paths {
			if len(p) > maxHops {
				maxHops = len(p)
			}
		}
		start := time.Now() //mars:wallclock Table 2 reports real build latency
		tbl, err := pathid.BuildTable(cfg, ft.Topology, paths)
		if err != nil {
			panic(err)
		}
		return ScaleRow{
			K:               k,
			Switches:        ft.NumSwitches(),
			Hosts:           ft.NumHosts(),
			Paths:           len(paths),
			MaxHops:         maxHops,
			HeaderB:         cfg.HeaderBytes() + dataplane.TelemetryHeaderBytes,
			MATEntries:      tbl.MATEntryCount(),
			MATBytes:        tbl.MemoryBytes(),
			IntSightEntries: pathid.IntSightMATEntries(paths),
			IntSightBytes:   pathid.IntSightMemoryBytes(paths),
			BuildMs:         float64(time.Since(start).Microseconds()) / 1000, //mars:wallclock Table 2 reports real build latency
		}
	})
	if err != nil {
		panic(err)
	}
	out.Rows = rows
	return out
}

// Render formats the sweep.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: MARS monitoring cost vs fat-tree arity (PathID width %d)\n", r.Width)
	fmt.Fprintf(&b, "%-4s %9s %6s %7s %8s %9s %10s %10s %12s %12s\n",
		"K", "switches", "hosts", "paths", "maxhops", "header(B)", "MARS-MAT", "MARS(B)", "IntSight-MAT", "IntSight(B)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4d %9d %6d %7d %8d %9d %10d %10d %12d %12d\n",
			row.K, row.Switches, row.Hosts, row.Paths, row.MaxHops, row.HeaderB,
			row.MATEntries, row.MATBytes, row.IntSightEntries, row.IntSightBytes)
	}
	b.WriteString("Header bytes stay flat with scale; MARS MAT memory grows only with hash collisions,\n")
	b.WriteString("while the per-hop encoding grows with (paths x hops).\n")
	return b.String()
}
