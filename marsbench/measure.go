package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// now and since are the benchmark's only reads of the wall clock, which
// is what it measures; the simulated outcomes never depend on them.
func now() time.Time { return time.Now() } //mars:wallclock the benchmark measures wall time

func since(t time.Time) time.Duration { return time.Since(t) } //mars:wallclock the benchmark measures wall time

// probe is a snapshot of the process's clocks and allocation counter at
// the start of a phase.
type probe struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// phase is what one measured phase cost.
type phase struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func startProbe() probe {
	return probe{wall: now(), cpu: processCPU(), alloc: readUint("/gc/heap/allocs:bytes")}
}

func (p probe) stop() phase {
	return phase{
		wall:  since(p.wall),
		cpu:   processCPU() - p.cpu,
		alloc: readUint("/gc/heap/allocs:bytes") - p.alloc,
	}
}

// processCPU is the process's user+system CPU time from getrusage: the
// cost of the work independent of how much of the host's CPU was stolen
// by its neighbours.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's CPU time. It measures a call on a
// goroutine locked to its thread without the runtime's background GC
// workers, whose share of a call depends on GC pacing, not on the call.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readUint reads one uint64 runtime metric.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// readFloat reads one float64 runtime metric.
func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapPeak tracks the largest live heap the garbage collector marked
// while it watched. It samples /gc/heap/live:bytes after every GC cycle,
// through a finalizer that re-arms itself each cycle, and at the trial,
// epoch and deployment boundaries the workloads choose.
type heapPeak struct {
	max     atomic.Uint64
	stopped atomic.Bool
}

// gcSentinel is the object whose finalizer marks a finished GC cycle; the
// pointer field keeps it out of the tiny allocator, whose objects may
// never be finalized.
type gcSentinel struct {
	_ *int
	_ [2]int64
}

// watch samples after every GC cycle until stop.
func (h *heapPeak) watch() {
	h.stopped.Store(false)
	h.arm()
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		h.sample()
		if !h.stopped.Load() {
			h.arm()
		}
	})
}

func (h *heapPeak) stop() { h.stopped.Store(true) }

// take returns the peak seen since the last take and starts a new one.
func (h *heapPeak) take() uint64 { return h.max.Swap(0) }

func (h *heapPeak) sample() {
	v := readUint("/gc/heap/live:bytes")
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// gcProbe snapshots the Go runtime's GC counters.
type gcProbe struct {
	cycles       uint64
	gcCPU, total float64
}

func startGC() gcProbe {
	return gcProbe{
		cycles: readUint("/gc/cycles/total:gc-cycles"),
		gcCPU:  readFloat("/cpu/classes/gc/total:cpu-seconds"),
		total:  readFloat("/cpu/classes/total:cpu-seconds"),
	}
}

// stop returns the GC cycles run since the probe and the share of the
// runtime's CPU estimate spent in the garbage collector.
func (g gcProbe) stop() (cycles uint64, cpuFrac float64) {
	now := startGC()
	if d := now.total - g.total; d > 0 {
		cpuFrac = (now.gcCPU - g.gcCPU) / d
	}
	return now.cycles - g.cycles, cpuFrac
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in jiffies.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads the host-wide CPU counters; ok is false where
// /proc/stat is unavailable.
func readCPUStat() (cpuStat, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, false
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return cpuStat{}, false
		}
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st, true
}

// stealShare is the host's CPU-steal share between two readings, or -1
// when it cannot be measured.
func stealShare(a, b cpuStat, ok bool) float64 {
	if !ok || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, with that percentile; (median, 50) when there are fewer than
// twenty samples.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(100-p)/100 >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 0.5), 50
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
