package experiments

import (
	"mars/internal/faults"
	"mars/internal/harness"
)

// EngineOptions configures how a trial-based driver schedules its matrix
// on the harness. The zero value reproduces the historical sequential
// drivers bit for bit: GOMAXPROCS workers (results are byte-identical for
// any worker count), shared result cache enabled.
type EngineOptions struct {
	// Workers bounds the harness worker pool (<= 0: runtime.GOMAXPROCS).
	Workers int
	// Progress receives per-trial completion callbacks (may be nil).
	Progress harness.Progress
	// DisableCache bypasses the shared (system, config) result cache.
	// Determinism tests set it so a second run re-executes trials instead
	// of echoing memoized results.
	DisableCache bool
}

func (o EngineOptions) config() harness.Config {
	return harness.Config{Workers: o.Workers, Progress: o.Progress}
}

// trialKey identifies one cacheable trial: the system plus the complete
// trial configuration (which subsumes the (system, fault, seed) key —
// fault and every seed are TrialConfig fields, so two trials share a key
// only if they are the same pure computation).
type trialKey struct {
	Sys SystemKind
	TC  TrialConfig
}

// sharedResults memoizes default-substrate trial results across drivers in
// one process, so sweeps that replay another sweep's scenarios reuse them:
// `mars-bench -exp all` runs Table 1 and then Fig. 9 over the same
// (system, fault, seed) trials, and Fig. 9 gets every result for free.
// Trials are pure functions of their key, so hits cannot change output.
var sharedResults = harness.NewCache[trialKey, TrialResult]()

// runTrial executes (or recalls) one trial according to the options.
// Trials with a custom physical config are never cached: TrialConfig holds
// *netsim.Config by pointer, so equal-content configs at distinct
// addresses would miss anyway and pin dead configs in the key.
func (o EngineOptions) runTrial(sys SystemKind, tc TrialConfig) TrialResult {
	if o.DisableCache || tc.SimCfg != nil {
		return RunTrial(sys, tc)
	}
	key := trialKey{Sys: sys, TC: tc}
	if r, ok := sharedResults.Get(key); ok {
		return r
	}
	r := RunTrial(sys, tc)
	sharedResults.Put(key, r)
	return r
}

// seededConfig returns the default configuration of trial t for fault
// kind, seeded from baseSeed by harness.LegacyPlan at fault-kind index
// kindIdx — the one seed formula behind every recorded EXPERIMENTS.md
// number. Drivers pass int(kind) unless they need a seed range of their
// own.
func seededConfig(baseSeed int64, kindIdx, t int, kind faults.Kind) TrialConfig {
	return DefaultTrialConfig(harness.LegacyPlan{}.TrialSeed(baseSeed, kindIdx, t), kind)
}

// trialMatrix is a driver's trial list: trial i runs unit units[i] under
// config tcs[i]. The enumeration order is the aggregation order, which is
// what keeps every driver's output byte-identical for any worker count.
type trialMatrix[U any] struct {
	units  []U
	tcs    []TrialConfig
	trials []harness.Trial
}

// add appends one trial of unit u under tc.
func (m *trialMatrix[U]) add(u U, tc TrialConfig, label string) {
	m.units = append(m.units, u)
	m.tcs = append(m.tcs, tc)
	m.trials = append(m.trials, harness.Trial{Index: len(m.trials), Seed: tc.Seed, Label: label})
}

// runMatrix drives the harness over m, calling fn per trial, and panics on
// the first trial failure: experiment drivers have no error path to their
// callers, and a matrix with a dead trial would aggregate into meaningless
// numbers. The panic payload is the harness's joined *TrialError chain,
// which names exactly which trials died and why. Results come back in
// m's order.
func runMatrix[U, R any](opts EngineOptions, m *trialMatrix[U], fn func(U, TrialConfig) R) []R {
	results, err := harness.Run(opts.config(), m.trials, func(tr harness.Trial) R {
		return fn(m.units[tr.Index], m.tcs[tr.Index])
	})
	if err != nil {
		panic(err)
	}
	return results
}
