package experiments

import (
	"math"
	"testing"

	"mars/internal/faults"
	"mars/internal/netsim"
)

// BenchmarkNetsimLoaded measures the event loop under a Table-1 trial's
// load: the k=4 substrate and the 96-flow, 220 pps background mesh of
// DefaultTrialConfig, with no pipeline attached and no fault injected. The
// agenda holds the thousands of pending events a trial carries, which
// netsim's BenchmarkNetsimStep (one packet in flight) cannot show. One op
// is one delivered packet; steady state must not allocate.
func BenchmarkNetsimLoaded(b *testing.B) {
	tc := DefaultTrialConfig(1, faults.MicroBurst)
	tc.Total = math.MaxInt64 // flows never stop, however large b.N grows
	sub := newSubstrate(tc, newFatTree(tc), nil)
	installWorkload(tc, sub.Sim, sub.FT)
	sim := sub.Sim
	// Warm the agenda, the packet pool and the port queues.
	sim.Run(netsim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	want := sim.Stats.Delivered + int64(b.N)
	for sim.Stats.Delivered < want {
		sim.Run(sim.Now() + 100*netsim.Microsecond)
	}
}
