// mars-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	mars-bench -exp table1 -trials 24
//	mars-bench -exp table1 -trials 24 -workers 8 -progress
//	mars-bench -exp fig9
//	mars-bench -exp all
//
// Experiments: table1, fig2, fig3, fig5, fig7, fig8, fig9, fig10, fig11,
// pathid, scale, stream, ctrlchan, gray, overhead, perf, ablation-sbfl,
// ablation-fsmlen, ablation-miner, ablation-cause.
//
// The stream experiment runs the continuously-diagnosing service
// (internal/stream) against the sharded k-ary fabric with a mid-run
// silent-drop fault: sink records feed the sliding-window pipeline epoch
// by epoch and the run reports detection latency, accuracy per window
// size, and the live metrics snapshot. -k and -shards size the fabric;
// -workers bounds the service's analysis fan-out. Stdout is byte-identical
// for any -shards/-workers value.
//
// The gray experiment runs the gray-failure/correlated-fault/topology-churn
// schedule suite (silent drop, link flap, link down, switch reboot, uplink
// degrade, correlated delay+drop) with the paper's signatures and with
// compound-cause disambiguation side by side.
//
// The overhead experiment sweeps the registered telemetry codecs
// (internal/telemetry) over the Table 1 fault suite and renders the
// bytes/packet vs localization-accuracy frontier.
//
// The perf experiment times full MARS trials per codec and emits the
// machine-readable throughput baseline (the BENCH_perf.json format) on
// stdout, with a human summary on stderr. Profiling any experiment:
//
//	mars-bench -exp table1 -trials 2 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Trial-based experiments (table1, fig9, scale, ctrlchan, ablations) run
// on the internal/harness worker pool: -workers bounds the pool (default
// GOMAXPROCS) and -progress streams per-trial completions to stderr.
// Results are byte-identical for any worker count — parallelism only
// changes wall-clock time, which each run reports on stderr as a
// machine-readable "timing:" line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"mars/internal/deploy"
	"mars/internal/experiments"
	"mars/internal/harness"
	"mars/internal/netsim"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run (or 'all')")
		trials     = flag.Int("trials", 8, "trials per fault kind (table1, ablations)")
		seed       = flag.Int64("seed", 1000, "base random seed")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "harness worker pool size for trial-based experiments")
		progress   = flag.Bool("progress", false, "stream per-trial progress to stderr")
		arity      = flag.Int("k", 16, "fat-tree arity for the sharded scale trial (scale, perf)")
		shards     = flag.Int("shards", 0, "shard count for the sharded scale trial; 0 = GOMAXPROCS")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mars-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mars-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mars-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mars-bench: -memprofile: %v\n", err)
			}
		}()
	}

	opts := experiments.EngineOptions{Workers: *workers}
	if *progress {
		opts.Progress = progressPrinter()
	}

	runners := map[string]func(){
		"table1": func() {
			fmt.Print(experiments.RunTable1(opts, *trials, *seed).Render())
		},
		"fig2": func() {
			fmt.Print(experiments.RunFig2(*seed).Render())
		},
		"fig3": func() {
			fmt.Print(experiments.RunFig3().Render())
		},
		"fig5": func() {
			fmt.Print(experiments.RunFig5(*seed).Render())
		},
		"fig7": func() {
			fmt.Print(experiments.RunFig7(*seed).Render())
		},
		"fig8": func() {
			fmt.Print(experiments.RunFig8(*seed, 30, 1200).Render())
		},
		"fig9": func() {
			fmt.Print(experiments.RunFig9(opts, *seed).Render())
		},
		"fig10": func() {
			fmt.Print(experiments.RunFig10().Render())
		},
		"fig11": func() {
			fmt.Print(experiments.RunFig11(*seed, 5000, 5).Render())
		},
		"pathid": func() {
			fmt.Print(experiments.RunPathIDMemory().Render())
		},
		"scale": func() {
			fmt.Print(experiments.RunScale(opts, []int{4, 6, 8}).Render())
			// The sharded scale trial: simulated outcome on stdout
			// (invariant under -shards, diffed by CI), throughput and
			// per-shard memory on stderr.
			var hb netsim.ShardProgress
			if *progress {
				hb = experiments.ScaleHeartbeat(os.Stderr)
			}
			res := experiments.RunScaleTrial(experiments.DefaultScaleTrialConfig(*arity, *shards, *seed), hb)
			fmt.Print(res.Render())
			fmt.Fprint(os.Stderr, res.RenderMem())
			fmt.Fprintln(os.Stderr, res.TimingLine())
		},
		"stream": func() {
			// Continuous streaming diagnosis: simulated outcome on stdout
			// (invariant under -shards and -workers, diffed by CI),
			// sustained throughput on stderr.
			var hb netsim.ShardProgress
			if *progress {
				hb = experiments.ScaleHeartbeat(os.Stderr)
			}
			tc := experiments.DefaultStreamTrialConfig(*arity, *shards, *seed)
			tc.Workers = *workers
			res := experiments.RunStreamTrial(tc, hb)
			fmt.Print(res.Render())
			fmt.Fprintln(os.Stderr, res.TimingLine())
		},
		"ctrlchan": func() {
			fmt.Print(experiments.RunCtrlChan(opts, *trials/2+1, *seed).Render())
		},
		"gray": func() {
			fmt.Print(experiments.RunGray(opts, *trials, *seed).Render())
		},
		"overhead": func() {
			fmt.Print(experiments.RunOverhead(opts, *trials, *seed).Render())
		},
		"perf": func() {
			// JSON (the BENCH_perf.json format) on stdout; the human
			// summary goes to stderr so redirection stays machine-readable.
			res := experiments.RunPerf(opts, *trials/4+1, *seed)
			res.AddScale(experiments.DefaultScaleTrialConfig(*arity, *shards, *seed))
			res.AddStream(experiments.DefaultStreamTrialConfig(*arity, *shards, *seed))
			dp, err := deploy.PerfSection(deploy.DefaultScenario())
			if err != nil {
				fmt.Fprintf(os.Stderr, "perf: deploy tier failed: %v\n", err)
				os.Exit(1)
			}
			res.Deploy = dp
			fmt.Print(res.JSON())
			fmt.Fprint(os.Stderr, res.Render())
		},
		"ablation-sbfl": func() {
			fmt.Print(experiments.RunAblationSBFL(opts, *trials/2+1, *seed).Render())
		},
		"ablation-fsmlen": func() {
			fmt.Print(experiments.RunAblationFSMMaxLen(opts, *trials/2+1, *seed).Render())
		},
		"ablation-miner": func() {
			fmt.Print(experiments.RunAblationMiner(opts, *trials/4+1, *seed).Render())
		},
		"ablation-cause": func() {
			fmt.Print(experiments.RunAblationCauseAccuracy(opts, *trials/2+1, *seed).Render())
		},
	}
	order := []string{"fig2", "fig3", "fig5", "fig7", "fig8", "table1", "fig9",
		"fig10", "fig11", "pathid", "scale", "stream", "ctrlchan", "gray",
		"overhead", "perf", "ablation-sbfl", "ablation-fsmlen",
		"ablation-miner", "ablation-cause"}

	timed := func(name string, run func()) {
		start := time.Now() //mars:wallclock wall-time progress reporting for the operator
		run()
		fmt.Fprintf(os.Stderr, "timing: exp=%s workers=%d trials=%d wall=%.2fs\n",
			name, *workers, *trials, time.Since(start).Seconds()) //mars:wallclock wall-time progress reporting for the operator
	}

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("=== %s ===\n", name)
			timed(name, runners[name])
			fmt.Println()
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: all", *exp)
		for _, name := range order {
			fmt.Fprintf(os.Stderr, ", %s", name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	timed(*exp, run)
}

// progressPrinter streams one stderr line per completed trial. The harness
// may invoke it from concurrent workers, so a mutex serializes access to
// the shared buffer: each line is formatted into it and flushed as exactly
// one write, so lines interleave but never tear and each tick costs one
// syscall instead of one per format fragment.
func progressPrinter() harness.Progress {
	var mu sync.Mutex
	bw := bufio.NewWriter(os.Stderr)
	return func(done, total int, t harness.Trial, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(bw, "progress: [%d/%d] %-44s %6.2fs\n",
			done, total, t.Label, elapsed.Seconds())
		bw.Flush()
	}
}
