package experiments

import (
	"fmt"
	"strings"

	"mars/internal/faults"
	"mars/internal/metrics"
)

// Table1Cell aggregates one (fault, system) cell.
type Table1Cell struct {
	Loc metrics.Localization
}

// Table1Result holds the full Table 1 matrix plus the Overall row.
type Table1Result struct {
	Trials int
	// Cells[fault][system].
	Cells map[faults.Kind]map[SystemKind]*Table1Cell
}

// RunTable1 runs `trials` trials per fault kind per system on the
// harness. Seeds derive from baseSeed through harness.LegacyPlan so every
// system faces the same fault sequence; trials execute on the worker pool
// and aggregate in the historical (fault, trial, system) nesting order, so
// the result is byte-identical for any worker count.
func RunTable1(opts EngineOptions, trials int, baseSeed int64) *Table1Result {
	type unit struct {
		kind faults.Kind
		sys  SystemKind
	}
	m := &trialMatrix[unit]{}
	res := &Table1Result{
		Trials: trials,
		Cells:  make(map[faults.Kind]map[SystemKind]*Table1Cell),
	}
	for _, kind := range faults.Kinds() {
		res.Cells[kind] = make(map[SystemKind]*Table1Cell)
		for _, sys := range Systems() {
			res.Cells[kind][sys] = &Table1Cell{}
		}
		for t := 0; t < trials; t++ {
			tc := seededConfig(baseSeed, int(kind), t, kind)
			for _, sys := range Systems() {
				m.add(unit{kind, sys}, tc, fmt.Sprintf("table1/%s/%s/t%d", kind, sys, t))
			}
		}
	}
	results := runMatrix(opts, m, func(u unit, tc TrialConfig) TrialResult {
		return opts.runTrial(u.sys, tc)
	})
	for i, r := range results {
		res.Cells[m.units[i].kind][m.units[i].sys].Loc.Add(r.Rank)
	}
	return res
}

// Overall merges all fault kinds for one system.
func (r *Table1Result) Overall(sys SystemKind) *metrics.Localization {
	var all metrics.Localization
	for _, kind := range faults.Kinds() {
		all.Merge(&r.Cells[kind][sys].Loc)
	}
	return &all
}

// Render formats the matrix like the paper's Table 1.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Recall@k and Exam Score (%d trials per fault)\n", r.Trials)
	fmt.Fprintf(&b, "%-14s %-10s %6s %6s %6s %6s %8s\n", "Fault", "System", "R@1", "R@2", "R@3", "R@5", "Exam")
	row := func(name string, sys SystemKind, loc *metrics.Localization) {
		fmt.Fprintf(&b, "%-14s %-10s %6.2f %6.2f %6.2f %6.2f %8.2f\n",
			name, sys, loc.RecallAt(1), loc.RecallAt(2), loc.RecallAt(3), loc.RecallAt(5), loc.MeanExamScore())
	}
	for _, kind := range faults.Kinds() {
		for _, sys := range Systems() {
			row(kind.String(), sys, &r.Cells[kind][sys].Loc)
		}
	}
	for _, sys := range Systems() {
		row("overall", sys, r.Overall(sys))
	}
	return b.String()
}
