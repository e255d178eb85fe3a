package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"mars/internal/faults"
)

// Pinned digests of the three seeded experiment sweeps, captured before
// the zero-alloc pipeline optimization. Every hot-path change (typed
// events, packet/meta pooling, slice-indexed tables, table-driven CRC16)
// must leave these byte-identical: the digests cover both the rendered
// operator output and the exact per-trial integers behind it (ranks,
// byte counters, diagnosis latencies), so a float-rounding-sized
// divergence cannot hide behind %.2f formatting.
//
// If one of these fails, the optimization changed observable behavior —
// fix the code, do not re-pin. (Re-pinning is only legitimate when an
// intentional semantic change to the experiments themselves lands, and
// then the new values must be justified in the commit.)
const (
	pinnedTable1Digest   = "10f2a98004c1a5605aa9300b7072071036cf3173da513e420eaf20804923967e"
	pinnedCtrlChanDigest = "a709ed4ec94e9cb3d76d1da446ac5911014f61c4fcbaab80bc9520c1257e8654"
	pinnedOverheadDigest = "a5a8d1aa7a8bc339696cc0a0a2a57aaad986b946b9cc9c21526de3cc9017e856"
)

// Pinned digests of the drivers the three sweeps above do not reach:
// Fig. 9, the gray suite, two ablations (both through runMARSVariant),
// and the sharded scale and stream trials. Their worker- and
// shard-invariance tests cannot see a change that shifts every seed the
// same way; these can.
const (
	pinnedFig9Digest           = "3fdf2012c5e94ddef303fb99a0f0a3dc35f62a402821e8a2672689c170d3d4f9"
	pinnedGrayDigest           = "0d8acd4ee0a8760fd4b43a53602f7eb6bf23e52fe5da07eb5dc3b1372f881c18"
	pinnedAblationFSMLenDigest = "dddea7b869e0c6aa6e5f74405e770b07cfcd807fd2bffd7040d6046b947c24c2"
	pinnedAblationCauseDigest  = "7b50244818b6cf8a7ab918ba510dc2f20ffbd272b22913d13a1f48406ff134d5"
	pinnedScaleTrialDigest     = "13a4af55ec10b8b5f3e07a2ad296b83521cc4ee2e6df475a9cdf8d8df3304f1d"
	pinnedStreamTrialDigest    = "47407620fd573d8fc22bdf005ba4d2d44d32e7a1bf0d3df7e7b3d2468945ddff"
)

// pinK and pinShards size the scale and stream pins: k=8 runs both
// trials in about a second and two shards exercise the cross-shard path.
const (
	pinK      = 8
	pinShards = 2
)

// pinTrials keeps the pin suite affordable: one trial per fault kind per
// sweep point still exercises every fault signature, every system, every
// codec, and the lossy control channel end to end.
const pinTrials = 1

// pinSeed is the historical default base seed (mars-bench -seed).
const pinSeed = 1000

func table1Digest() string {
	res := RunTable1(EngineOptions{}, pinTrials, pinSeed)
	h := sha256.New()
	io.WriteString(h, res.Render())
	for _, kind := range faults.Kinds() {
		for _, sys := range Systems() {
			fmt.Fprintf(h, "%v/%v:%+v\n", kind, sys, res.Cells[kind][sys].Loc.Results)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ctrlChanDigest() string {
	res := RunCtrlChan(EngineOptions{}, pinTrials, pinSeed)
	h := sha256.New()
	io.WriteString(h, res.Render())
	for _, row := range res.Rows {
		fmt.Fprintf(h, "%v/%v:%+v|%d|%d|%d|%d\n", row.Loss, row.Retry,
			row.Loc.Results, int64(row.MeanDiagLatency), row.Detected,
			row.Diagnoses, row.Partial)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func overheadDigest() string {
	res := RunOverhead(EngineOptions{}, pinTrials, pinSeed)
	h := sha256.New()
	io.WriteString(h, res.Render())
	for _, row := range res.Rows {
		fmt.Fprintf(h, "%s:%+v|%+v|%d|%d|%d|%d|%d|%d\n", row.Codec,
			row.Loc.Results, row.Det, row.TelemetryBytes, row.TotalLinkBytes,
			row.DiagnosisBytes, row.Packets, row.TelemetryPackets, row.Detected)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fig9Digest() string {
	res := RunFig9(EngineOptions{}, pinSeed)
	h := sha256.New()
	io.WriteString(h, res.Render())
	for _, row := range res.Rows {
		fmt.Fprintf(h, "%+v\n", row)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func grayDigest() string {
	res := RunGray(EngineOptions{}, pinTrials, pinSeed)
	h := sha256.New()
	io.WriteString(h, res.Render())
	for _, sc := range GrayScenarios() {
		for _, mode := range GrayModes() {
			c := res.Cells[sc.Name][mode]
			fmt.Fprintf(h, "%s/%v:%+v|%+v|%d|%d|%d\n", sc.Name, mode,
				c.Link.Results, c.Sw.Results, c.CauseHits, c.Detected, c.Trials)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ablationDigest(res *AblationResult) string {
	h := sha256.New()
	io.WriteString(h, res.Render())
	for _, row := range res.Rows {
		fmt.Fprintf(h, "%s:%+v\n", row.Name, row.Loc.Results)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ablationFSMLenDigest() string {
	return ablationDigest(RunAblationFSMMaxLen(EngineOptions{}, pinTrials, pinSeed))
}

func ablationCauseDigest() string {
	return ablationDigest(RunAblationCauseAccuracy(EngineOptions{}, pinTrials, pinSeed))
}

func scaleTrialDigest() string {
	res := RunScaleTrial(DefaultScaleTrialConfig(pinK, pinShards, pinSeed), nil)
	h := sha256.New()
	io.WriteString(h, res.Render())
	fmt.Fprintf(h, "%d\n", int64(res.MeanLatency))
	return hex.EncodeToString(h.Sum(nil))
}

func streamTrialDigest() string {
	res := RunStreamTrial(DefaultStreamTrialConfig(pinK, pinShards, pinSeed), nil)
	h := sha256.New()
	io.WriteString(h, res.Render())
	fmt.Fprintf(h, "%d|%d|%d|%+v\n", int64(res.DetectionLatency), res.Diagnoses,
		res.WindowsAnalyzed, res.Accuracy)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedSeededDigests is the acceptance gate for the zero-alloc
// pipeline: the table1, ctrlchan, and overhead sweeps must produce
// byte-identical seeded output before and after the optimization. The
// later pins hold every other seeded driver to the same standard.
func TestPinnedSeededDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full seeded sweeps are not short")
	}
	for _, c := range []struct {
		name, want string
		got        func() string
	}{
		{"table1", pinnedTable1Digest, table1Digest},
		// Right after table1: Fig. 9 replays its trial-0 scenarios, so
		// its trials come from the shared result cache.
		{"fig9", pinnedFig9Digest, fig9Digest},
		{"ctrlchan", pinnedCtrlChanDigest, ctrlChanDigest},
		{"overhead", pinnedOverheadDigest, overheadDigest},
		{"gray", pinnedGrayDigest, grayDigest},
		{"ablation-fsmlen", pinnedAblationFSMLenDigest, ablationFSMLenDigest},
		{"ablation-cause", pinnedAblationCauseDigest, ablationCauseDigest},
		{"scale-trial", pinnedScaleTrialDigest, scaleTrialDigest},
		{"stream-trial", pinnedStreamTrialDigest, streamTrialDigest},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := c.got(); got != c.want {
				t.Errorf("%s digest = %s, pinned %s", c.name, got, c.want)
			}
		})
	}
}
