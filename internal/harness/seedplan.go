package harness

// LegacyPlan is the one seed formula of every trial matrix, and the one
// every published EXPERIMENTS.md number was produced under: substrate
// seed base + kind*1000 + trial, control channel at substrate seed + 7.
// Defining the arithmetic here keeps it in exactly one place.
//
// Its seeds are collision-free only while trial < 1000 (the kind stride):
// trial 1000 of kind k aliases trial 0 of kind k+1.
type LegacyPlan struct{}

// TrialSeed returns the substrate seed (simulator, router, controller)
// for trial `trial` of fault-kind index `kind`.
func (LegacyPlan) TrialSeed(base int64, kind, trial int) int64 {
	return base + int64(kind)*1000 + int64(trial)
}

// CtrlChanSeed derives the control-channel seed from a trial's substrate
// seed with the historical +7 offset; the channel draws from its own
// stream so degrading it never perturbs workload or fault randomness.
func (LegacyPlan) CtrlChanSeed(trialSeed int64) int64 { return trialSeed + 7 }
