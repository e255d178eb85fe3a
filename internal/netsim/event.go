package netsim

// The agenda stores typed events rather than closures: the packet hot path
// (host arrival, pipeline delay, enqueue, transmit, propagate) runs
// billions of events per experiment sweep, and a closure per event was the
// simulator's dominant allocation source. Control-plane and workload
// callbacks still use the generic evFunc kind through At/After — they fire
// at per-epoch, not per-packet, rates. Events with equal timestamps fire
// in scheduling order (seq) so that runs are deterministic; the hand-rolled
// heap below avoids container/heap's interface boxing, which allocated on
// every schedule.
//
// Two of the three per-hop events have a constant delay: evEnqueue fires
// SwitchProcDelay after it is scheduled and evPropagate PropDelay after.
// Since the clock never runs backwards and stamps only grow, each of those
// kinds is produced in (at, ord) order, so it needs no heap: the agenda
// keeps one FIFO lane per kind. The lane invariant is that a lane holds
// its events in (at, ord) order. An event joins its lane only if it does
// not sort before the lane's tail; anything else (the other kinds, a
// sharded shard's unit-major stamps that interleave units, a cross-shard
// mailbox insert) goes to the binary heap. Popping takes the least of the
// two lane heads and the heap top. Each structure yields its own events
// in (at, ord) order and the order is total (ords are unique), so the
// merged pop sequence is exactly the single-heap order, and every
// dispatch — hence every digest — is unchanged.

import "unsafe"

type eventKind uint8

const (
	// evFunc runs a generic scheduled closure (At / After).
	evFunc eventKind = iota
	// evHostArrive completes the host NIC serialization + propagation:
	// the packet has fully arrived at its edge switch (a=edge, b=inPort).
	evHostArrive
	// evProcArrive completes the switch-level Delay fault's extra
	// processing (a=sw, b=inPort).
	evProcArrive
	// evEnqueue completes the pipeline processing delay: the packet is
	// ready at the egress queue (a=sw, b=outPort).
	evEnqueue
	// evTxDone completes serialization of the head-of-line packet onto
	// the link (a=sw, b=outPort).
	evTxDone
	// evPropagate completes link propagation: the packet reaches the peer
	// (a=transmitting sw, b=outPort).
	evPropagate
	// evStartTx is a deferred transmitter start when a rate-limit fault
	// pushed nextFreeAt into the future (a=sw, b=outPort).
	evStartTx
)

// event is one scheduled occurrence. Packet events carry their operands
// inline (node a, port b, pkt); only evFunc carries a closure.
//
// ord makes the agenda's order a total order that is invariant under
// sharding. The sharded engine packs (generating partition unit, that
// unit's event count) into it, unit-major — see unitShift in sim.go — so
// same-timestamp events order by generating unit, then by the unit's own
// scheduling order. Both halves are properties of the simulated system,
// not of the execution: a shard receiving a mailbox event from another
// shard inserts it with the ord it was generated with, so the agenda's
// (at, ord) order is identical at any shard count. The classic
// single-agenda simulator stamps a bare global counter (its only unit is
// 0), which is the historical (at, scheduling order) tie-break — and
// exactly what a single-unit sharded run produces.
type event struct {
	at   Time
	ord  uint64
	kind eventKind
	a    int32
	b    int32
	pkt  *Packet
	fn   func()
}

// eventBytes is the in-memory size of one agenda slot.
const eventBytes = int64(unsafe.Sizeof(event{}))

// before reports agenda order: earlier time first, then ord — the packed
// (generating unit, per-unit scheduling order) stamp, or the bare global
// counter in the classic simulator.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.ord < o.ord
}

// Lane indexes: one FIFO lane per fixed-delay event kind.
const (
	laneEnqueue = iota
	lanePropagate
	numLanes
)

// lane is a FIFO of events in (at, ord) order. ev[head:] holds the pending
// events; popping advances head, and appending reclaims the drained prefix
// when the tail hits capacity, like the port queues, so the backing array
// is reused and steady-state appends allocate nothing.
type lane struct {
	ev   []event
	head int
}

// accepts reports whether e can join the lane without breaking its order.
func (l *lane) accepts(e *event) bool {
	return l.head == len(l.ev) || !e.before(&l.ev[len(l.ev)-1])
}

func (l *lane) append(e *event) {
	if l.head > 0 && len(l.ev) == cap(l.ev) {
		n := copy(l.ev, l.ev[l.head:])
		clear(l.ev[n:])
		l.ev = l.ev[:n]
		l.head = 0
	}
	//mars:alloc TestNetsimStepAllocs the drained prefix is reclaimed above, so the lane array's capacity is reused
	l.ev = append(l.ev, *e)
}

// agenda is the simulator's pending-event set: two fixed-delay FIFO lanes
// plus a binary min-heap for everything else, all ordered by (at, ord).
// Events are stored by value in reusable backing slices, so scheduling
// allocates only on capacity growth. Heap sifts move events into a hole
// rather than swapping pairs: one event copy per level instead of three.
type agenda struct {
	h     []event
	lanes [numLanes]lane
	seq   uint64
	// n is the pending-event count across the heap and the lanes; peak
	// tracks its high-water mark for the MemStats-free memory accounting
	// of the scale tier.
	n    int
	peak int
}

func (a *agenda) push(e *event) {
	a.seq++
	e.ord = a.seq
	a.pushStamped(e)
}

// pushStamped inserts an event that already carries its ord stamp — the
// sharded engine packs (generating unit, per-unit seq) into it, and
// mailbox events arriving from another shard must keep theirs.
func (a *agenda) pushStamped(e *event) {
	a.n++
	if a.n > a.peak {
		a.peak = a.n
	}
	var l *lane
	switch e.kind {
	case evEnqueue:
		l = &a.lanes[laneEnqueue]
	case evPropagate:
		l = &a.lanes[lanePropagate]
	case evFunc, evHostArrive, evProcArrive, evTxDone, evStartTx:
	}
	if l != nil && l.accepts(e) {
		l.append(e)
		return
	}
	//mars:alloc TestNetsimStepAllocs the agenda array keeps its capacity across pops; steady state re-slices in place
	a.h = append(a.h, *e)
	// Sift up: move parents down into the hole, then fill it once.
	i := len(a.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&a.h[parent]) {
			break
		}
		a.h[i] = a.h[parent]
		i = parent
	}
	a.h[i] = *e
}

// len returns the number of pending events, heap and lanes together.
func (a *agenda) len() int { return a.n }

// head returns the least pending event and where it lives (a lane index,
// or -1 for the heap top), or nil when the agenda is empty.
func (a *agenda) head() (*event, int) {
	var min *event
	src := -1
	if len(a.h) > 0 {
		min = &a.h[0]
	}
	for i := range a.lanes {
		l := &a.lanes[i]
		if l.head == len(l.ev) {
			continue
		}
		if e := &l.ev[l.head]; min == nil || e.before(min) {
			min, src = e, i
		}
	}
	return min, src
}

// pop removes the least pending event into *out if its time is at most
// limit, and reports whether it did.
func (a *agenda) pop(limit Time, out *event) bool {
	min, src := a.head()
	if min == nil || min.at > limit {
		return false
	}
	*out = *min
	a.n--
	if src >= 0 {
		l := &a.lanes[src]
		l.ev[l.head].pkt = nil // release the packet reference
		l.head++
		if l.head == len(l.ev) {
			l.ev = l.ev[:0]
			l.head = 0
		}
		return true
	}
	n := len(a.h) - 1
	last := a.h[n]
	a.h[n] = event{} // release the packet/closure reference
	a.h = a.h[:n]
	// Sift the last event down from the root: move the lesser child up
	// into the hole until last fits, then fill it once.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && a.h[r].before(&a.h[c]) {
			c = r
		}
		if !a.h[c].before(&last) {
			break
		}
		a.h[i] = a.h[c]
		i = c
	}
	if i < n {
		a.h[i] = last
	}
	return true
}

// peekTime returns the earliest pending timestamp, if any.
func (a *agenda) peekTime() (Time, bool) {
	if e, _ := a.head(); e != nil {
		return e.at, true
	}
	return 0, false
}

// capBytes is the memory held by the agenda's backing arrays.
func (a *agenda) capBytes() int64 {
	n := cap(a.h)
	for i := range a.lanes {
		n += cap(a.lanes[i].ev)
	}
	return int64(n) * eventBytes
}
