package netsim

import (
	"math"
	"testing"

	"mars/internal/topology"
)

// refHeap is the reference agenda for FuzzAgendaOrder: a plain binary
// min-heap on (at, ord) holding every event, which is what the agenda was
// before it grew fixed-delay lanes.
type refHeap []event

func (h *refHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *refHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && q[c].before(&q[m]) {
				m = c
			}
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// laneDelay is the fixed delay a lane kind is scheduled with on the
// packet path (DefaultConfig's SwitchProcDelay and PropDelay).
func laneDelay(k eventKind) (Time, bool) {
	switch k {
	case evEnqueue:
		return 5, true
	case evPropagate:
		return 10, true
	case evFunc, evHostArrive, evProcArrive, evTxDone, evStartTx:
	}
	return 0, false
}

// FuzzAgendaOrder drives the agenda and the reference heap with the same
// random push/pop sequence and requires identical pop sequences. Input
// bytes come in (op, arg) pairs:
//
//   - op&0x80 set: pop with horizon now+arg; both sides must agree on
//     whether an event is due and, if so, which one.
//   - otherwise push an event of kind op%7. Lane kinds get their fixed
//     delay unless op&0x40 is set, in which case at = now+arg%16 may sort
//     before the lane's tail, as a cross-shard mailbox insert does. Other
//     kinds get at = now+arg, so arg 0 yields equal timestamps.
//
// sharded selects the stamp style: the classic global sequence (push), or
// unit<<unitShift|perUnitSeq with unit (op>>3)&3 (pushStamped), whose
// unit-major order interleaves units against the lanes' tails.
func FuzzAgendaOrder(f *testing.F) {
	// A packet crossing hops: enqueue, tx-done, propagate, repeated.
	f.Add([]byte{3, 0, 4, 7, 0x80, 5, 5, 0, 0x80, 7, 0x80, 10, 3, 0, 4, 3, 0x80, 20}, false)
	// Equal timestamps across kinds and units.
	f.Add([]byte{0, 0, 1, 0, 3, 0, 5, 0, 8, 0, 11, 0, 13, 0, 0x80, 0, 0x80, 0, 0x80, 255}, true)
	// Out-of-order lane inserts, as mailbox exchanges produce.
	f.Add([]byte{5, 0, 0x45, 3, 0x4d, 1, 3, 0, 0x43, 0, 0x80, 2, 0x80, 255, 0x80, 255}, true)
	f.Fuzz(func(t *testing.T, ops []byte, sharded bool) {
		var (
			a          agenda
			ref        refHeap
			unitSeq    [4]uint64
			now        Time
			pushes, ns int
		)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			if op&0x80 != 0 {
				limit := now + Time(arg)
				var got event
				ok := a.pop(limit, &got)
				want := len(ref) > 0 && ref[0].at <= limit
				if ok != want {
					t.Fatalf("op %d: pop(%d) = %v, reference %v", i/2, limit, ok, want)
				}
				if ok {
					w := ref.pop()
					if got.at != w.at || got.ord != w.ord || got.kind != w.kind || got.a != w.a {
						t.Fatalf("op %d: popped (at=%d ord=%#x kind=%d id=%d), reference (at=%d ord=%#x kind=%d id=%d)",
							i/2, got.at, got.ord, got.kind, got.a, w.at, w.ord, w.kind, w.a)
					}
					now = got.at
					ns++
				}
			} else {
				kind := eventKind(op % 7)
				e := event{kind: kind, a: int32(i / 2), at: now + Time(arg)}
				if d, lane := laneDelay(kind); lane {
					e.at = now + d
					if op&0x40 != 0 {
						e.at = now + Time(arg%16)
					}
				}
				if sharded {
					u := (op >> 3) & 3
					unitSeq[u]++
					e.ord = uint64(u)<<unitShift | unitSeq[u]
					a.pushStamped(&e)
				} else {
					a.push(&e)
				}
				ref.push(e)
				pushes++
			}
			if a.len() != pushes-ns {
				t.Fatalf("op %d: len() = %d, want pushes-pops = %d", i/2, a.len(), pushes-ns)
			}
			at, ok := a.peekTime()
			if ok != (len(ref) > 0) || ok && at != ref[0].at {
				t.Fatalf("op %d: peekTime = (%d, %v), reference has %d pending", i/2, at, ok, len(ref))
			}
		}
		// Drain: the remaining order must match too.
		for len(ref) > 0 {
			var got event
			if !a.pop(math.MaxInt64, &got) {
				t.Fatalf("agenda empty with %d reference events pending", len(ref))
			}
			if w := ref.pop(); got.at != w.at || got.ord != w.ord {
				t.Fatalf("drain: popped (at=%d ord=%#x), reference (at=%d ord=%#x)", got.at, got.ord, w.at, w.ord)
			}
		}
		if a.len() != 0 {
			t.Fatalf("drained agenda reports len %d", a.len())
		}
	})
}

// TestAgendaLenCountsLanes pins the pending-event count across the heap and
// both lanes: len() is pushes minus pops wherever the events live, and
// Simulator.Mem reports it (and the lanes' capacity) rather than the heap
// alone.
func TestAgendaLenCountsLanes(t *testing.T) {
	var a agenda
	pushes, pops := 0, 0
	for i := 0; i < 12; i++ {
		now := Time(i)
		for _, e := range []event{
			{at: now + 5, kind: evEnqueue},
			{at: now + 3, kind: evTxDone},
			{at: now + 10, kind: evPropagate},
		} {
			a.push(&e)
			pushes++
		}
		if i%3 == 2 {
			var e event
			if !a.pop(math.MaxInt64, &e) {
				t.Fatal("pop on a non-empty agenda failed")
			}
			pops++
		}
		if a.len() != pushes-pops {
			t.Fatalf("step %d: len() = %d, want %d", i, a.len(), pushes-pops)
		}
	}
	inLanes := 0
	for i := range a.lanes {
		if q := len(a.lanes[i].ev) - a.lanes[i].head; q == 0 {
			t.Fatalf("lane %d is empty; the test must exercise both lanes", i)
		} else {
			inLanes += q
		}
	}
	if len(a.h) == 0 || len(a.h)+inLanes != a.len() {
		t.Fatalf("heap %d + lanes %d != len() %d", len(a.h), inLanes, a.len())
	}
	if a.peak < a.len() {
		t.Fatalf("peak %d below pending %d", a.peak, a.len())
	}

	// Mid-flight in a real run, Mem must report the whole pending set and
	// the capacity of every backing array.
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sim := New(ft.Topology, NewECMPRouter(ft.Topology, 1), nil, DefaultConfig(), 1)
	for i, h := range ft.HostIDs {
		sim.Send(Time(i)*37*Microsecond, h, ft.HostIDs[(i+5)%len(ft.HostIDs)], FlowKey(i), 700)
	}
	lanesBusy := func() bool {
		return len(sim.agenda.lanes[laneEnqueue].ev) > sim.agenda.lanes[laneEnqueue].head ||
			len(sim.agenda.lanes[lanePropagate].ev) > sim.agenda.lanes[lanePropagate].head
	}
	for !(lanesBusy() && len(sim.agenda.h) > 0) {
		if sim.Now() > 10*Millisecond {
			t.Fatal("no instant with events in both the heap and a lane")
		}
		sim.Run(sim.Now() + Microsecond)
	}
	m := sim.Mem()
	if m.AgendaLen != sim.agenda.len() || m.AgendaLen <= len(sim.agenda.h) {
		t.Fatalf("Mem().AgendaLen = %d, agenda len %d, heap alone %d", m.AgendaLen, sim.agenda.len(), len(sim.agenda.h))
	}
	if m.AgendaPeak < m.AgendaLen {
		t.Fatalf("AgendaPeak %d below AgendaLen %d", m.AgendaPeak, m.AgendaLen)
	}
	want := int64(cap(sim.agenda.h)+cap(sim.agenda.lanes[laneEnqueue].ev)+cap(sim.agenda.lanes[lanePropagate].ev)) * eventBytes
	if got := sim.agenda.capBytes(); got != want {
		t.Fatalf("capBytes %d, want heap+lane capacity %d", got, want)
	}
}
