package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"mars/internal/topology"
)

// Action is a Hooks verdict on a packet about to be enqueued.
type Action uint8

const (
	// ActionForward lets the packet proceed.
	ActionForward Action = iota
	// ActionDrop discards the packet (counted as DropByProgram).
	ActionDrop
)

// Hooks observes and influences packets as they move through switches.
// This is the P4-pipeline attachment point: MARS's data plane and each
// baseline system implement Hooks. All methods run synchronously inside
// the event loop; implementations must not retain pkt past the call unless
// they copy what they need (the MARS data plane copies into its register
// tables, as a real switch would).
type Hooks interface {
	// OnSwitchArrival fires when a packet has fully arrived at a switch,
	// before the routing decision.
	OnSwitchArrival(s *Simulator, sw topology.NodeID, inPort topology.PortID, pkt *Packet)
	// OnForward fires after routing; qlen is the egress queue length before
	// this packet is enqueued. Returning ActionDrop discards the packet.
	OnForward(s *Simulator, sw topology.NodeID, inPort, outPort topology.PortID, pkt *Packet, qlen int) Action
	// OnDeliver fires when a packet reaches its destination host.
	OnDeliver(s *Simulator, host topology.NodeID, pkt *Packet)
	// OnDrop fires when the simulator discards a packet at sw.
	OnDrop(s *Simulator, sw topology.NodeID, port topology.PortID, pkt *Packet, reason DropReason)
}

// NopHooks is an embeddable no-op Hooks implementation.
type NopHooks struct{}

// OnSwitchArrival implements Hooks.
func (NopHooks) OnSwitchArrival(*Simulator, topology.NodeID, topology.PortID, *Packet) {}

// OnForward implements Hooks.
func (NopHooks) OnForward(*Simulator, topology.NodeID, topology.PortID, topology.PortID, *Packet, int) Action {
	return ActionForward
}

// OnDeliver implements Hooks.
func (NopHooks) OnDeliver(*Simulator, topology.NodeID, *Packet) {}

// OnDrop implements Hooks.
func (NopHooks) OnDrop(*Simulator, topology.NodeID, topology.PortID, *Packet, DropReason) {}

var _ Hooks = NopHooks{}

// Config sets the physical parameters of the simulated network.
type Config struct {
	// LinkBandwidthBps is the serialization rate of every link in bits per
	// second. The paper's testbed uses 10 Gbps ports; the Mininet/BMv2
	// environment is far slower, and the defaults below match its scale so
	// queues actually build under the paper's fault loads.
	LinkBandwidthBps int64
	// HostLinkBandwidthBps overrides the rate of host-facing links
	// (0 = same as LinkBandwidthBps). Access links are typically faster
	// than the software-switch fabric, and a slower setting makes host
	// fan-in, not the fabric, the bottleneck.
	HostLinkBandwidthBps int64
	// PropDelay is the per-link propagation delay.
	PropDelay Time
	// SwitchProcDelay is the base per-packet pipeline latency at a switch.
	SwitchProcDelay Time
	// QueueCapacity is the per-port egress queue limit in packets; a full
	// queue tail-drops.
	QueueCapacity int
}

// DefaultConfig returns parameters sized like the paper's software-switch
// environment: modest bandwidth so that >1000 pps bursts visibly build
// queues, 10 us links, and 64-packet output queues.
func DefaultConfig() Config {
	return Config{
		LinkBandwidthBps: 20_000_000, // 20 Mbps software switch scale
		PropDelay:        10 * Microsecond,
		SwitchProcDelay:  5 * Microsecond,
		QueueCapacity:    64,
	}
}

// portRuntime is the mutable state of one switch egress port.
type portRuntime struct {
	// queue[qhead:] holds the waiting packets. Dequeue advances qhead
	// instead of re-slicing so the backing array is reused; enqueue
	// compacts lazily when the tail hits capacity. This keeps the
	// steady-state enqueue path allocation-free.
	queue []*Packet
	qhead int
	busy  bool
	// nextFreeAt enforces the process-rate-decrease fault: the earliest
	// time the next transmission may start.
	nextFreeAt Time

	// Fault state:
	dropProb     float64 // random loss probability per enqueue
	blackhole    bool    // drop everything
	down         bool    // attached link is administratively/physically down
	rateLimitPPS float64 // max departures per second; 0 = unlimited

	// enqueuedBytes tracks current occupancy in bytes for observability.
	enqueuedBytes int64
}

// qlen is the number of packets waiting in the queue (excluding any
// packet currently being serialized).
func (p *portRuntime) qlen() int { return len(p.queue) - p.qhead }

func (p *portRuntime) minGap() Time {
	if p.rateLimitPPS <= 0 {
		return 0
	}
	return Time(float64(Second) / p.rateLimitPPS)
}

// switchRuntime is per-switch mutable state.
type switchRuntime struct {
	ports     []portRuntime
	procExtra Time // switch-level Delay fault
	down      bool // switch is rebooting: every arriving packet is lost
}

// Stats aggregates run-level counters.
type Stats struct {
	// LinkBytes[linkID] counts bytes serialized on each link (both
	// directions summed).
	LinkBytes []int64
	// LinkDirBytes[linkID][d] splits the count by direction: d=0 is A→B,
	// d=1 is B→A (see topology.Link). Per-direction utilization studies
	// (Fig. 2) need this — a full-duplex link saturates per direction.
	LinkDirBytes [][2]int64
	// Sent, Delivered, Dropped count packets end to end.
	Sent      int64
	Delivered int64
	Dropped   int64
	// DropsByReason indexes DropReason.
	DropsByReason [6]int64
	// TotalLatency accumulates end-to-end latency of delivered packets.
	TotalLatency Time
}

// MeanLatency returns the average end-to-end latency of delivered packets.
func (st *Stats) MeanLatency() Time {
	if st.Delivered == 0 {
		return 0
	}
	return st.TotalLatency / Time(st.Delivered)
}

// Simulator owns the event loop and all runtime network state.
type Simulator struct {
	Topo   *topology.Topology
	Router Router
	Cfg    Config
	Stats  Stats

	hooks    Hooks
	agenda   agenda
	now      Time
	rng      *rand.Rand
	switches []switchRuntime
	nextPkt  uint64
	stopped  bool
	// free is the packet pool: delivered and dropped packets return here
	// and are reissued by Send with their ground-truth slices' capacity
	// intact, so a steady-state run allocates no packets at all. Reuse is
	// LIFO and single-threaded, hence deterministic.
	free []*Packet
	// pktAlloc counts packets ever allocated (pool misses); together with
	// len(free) it gives the live-packet estimate without runtime.MemStats.
	pktAlloc int64
	// shard is non-nil when this simulator is one shard of a Sharded
	// engine (sharded.go); nil keeps the classic single-agenda behavior,
	// byte-identical to the historical simulator.
	shard *shardCtx
}

// shardCtx is the per-shard state the event path needs when this
// simulator runs as one shard of a Sharded engine. Events are stamped with
// their generating unit and a per-unit sequence number, and events whose
// owning unit lives on another shard are buffered in outboxes that the
// coordinator exchanges at epoch barriers.
type shardCtx struct {
	id int32
	// unitOf maps NodeID -> partition unit (shared, read-only).
	unitOf []int32
	// shardOf maps unit -> shard (shared, read-only).
	shardOf []int32
	// curUnit is the unit whose event (or OnNode callback) is executing;
	// everything generated now is stamped with it.
	curUnit int32
	// unitSeq / unitPkt / rngs are indexed by unit; only this shard's
	// owned units are ever touched (ownership is static).
	unitSeq []uint64
	unitPkt []uint64
	rngs    []*rand.Rand
	// numUnits sizes the packet-ID stride so IDs stay globally unique.
	numUnits uint64
	// outbox[d] buffers events owned by shard d, appended in local
	// dispatch order and drained by the coordinator at the next barrier.
	outbox [][]event
}

// New creates a simulator over topo using router for forwarding decisions
// and hooks as the attached pipeline (nil means no pipeline).
func New(topo *topology.Topology, router Router, hooks Hooks, cfg Config, seed int64) *Simulator {
	if hooks == nil {
		hooks = NopHooks{}
	}
	s := &Simulator{
		Topo:   topo,
		Router: router,
		Cfg:    cfg,
		hooks:  hooks,
		rng:    rand.New(rand.NewSource(seed)),
	}
	s.Stats.LinkBytes = make([]int64, len(topo.Links))
	s.Stats.LinkDirBytes = make([][2]int64, len(topo.Links))
	s.switches = make([]switchRuntime, len(topo.Nodes))
	for i := range topo.Nodes {
		if topo.Nodes[i].Kind == topology.KindSwitch {
			s.switches[i].ports = make([]portRuntime, len(topo.Nodes[i].Ports))
		}
	}
	return s
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// RNG exposes the run's deterministic random source for workload
// generators and fault injectors that must share the seed.
func (s *Simulator) RNG() *rand.Rand { return s.rng }

// At schedules fn to run at time t (clamped to now if in the past).
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.push(&event{at: t, kind: evFunc, fn: fn})
}

// After schedules fn after a delay from now.
func (s *Simulator) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Stop ends the run after the current event.
func (s *Simulator) Stop() { s.stopped = true }

// Run processes events until the agenda empties or until time `until`
// passes (events after `until` remain queued). It returns the final time.
func (s *Simulator) Run(until Time) Time {
	var e event
	for !s.stopped && s.agenda.pop(until, &e) {
		s.now = e.at
		s.dispatch(e)
	}
	if s.now < until {
		s.now = until
	}
	return s.now
}

// RunAll processes events until the agenda empties.
func (s *Simulator) RunAll() Time {
	var e event
	for !s.stopped && s.agenda.pop(math.MaxInt64, &e) {
		s.now = e.at
		s.dispatch(e)
	}
	return s.now
}

// RunShardWindow processes this shard's local events with timestamps
// strictly below end and returns how many it dispatched. It is the
// per-shard inner loop of the Sharded engine's barrier protocol
// (sharded.go): the coordinator guarantees no event below end can still
// arrive from another shard, so draining the local agenda up to end is
// exactly the sequential order. Stop is not honored here — a sharded run
// is bounded by its Run(until) horizon instead.
func (s *Simulator) RunShardWindow(end Time) int64 {
	var (
		n int64
		e event
	)
	for s.agenda.pop(end-1, &e) {
		s.now = e.at
		s.dispatch(e)
		n++
	}
	return n
}

// unitShift packs the generating unit into an event's ord stamp above the
// per-unit sequence counter: ord = unit<<unitShift | seq. 48 bits leave
// room for ~2.8e14 events per unit per run, orders of magnitude beyond any
// sweep, while keeping agenda comparisons a single uint64 compare.
const unitShift = 48

// push stamps and routes one event. The classic simulator stamps a global
// sequence number and inserts locally (this path must stay inline-thin —
// it is on the per-packet hot path); a shard stamps (generating unit,
// per-unit seq) and diverts events owned by a foreign shard into the
// outbox for the next barrier exchange.
func (s *Simulator) push(e *event) {
	if s.shard == nil {
		s.agenda.push(e)
		return
	}
	s.pushSharded(e)
}

// pushSharded is the sharded engine's stamp-and-route half of push.
func (s *Simulator) pushSharded(e *event) {
	c := s.shard
	u := c.curUnit
	c.unitSeq[u]++
	e.ord = uint64(u)<<unitShift | c.unitSeq[u]
	if d := c.shardOf[s.ownerUnit(e)]; d != c.id {
		//mars:alloc TestShardedStepAllocs outboxes keep their capacity across barrier drains; steady state appends in place
		c.outbox[d] = append(c.outbox[d], *e)
		return
	}
	s.agenda.pushStamped(e)
}

// ownerUnit returns the partition unit whose state the event touches when
// dispatched — the unit (and therefore shard) that must execute it. Only
// evPropagate can cross units: every other packet event operates on the
// switch that generated it, and evFunc closures stay with the unit that
// scheduled them (their generating unit, recovered from the ord stamp).
func (s *Simulator) ownerUnit(e *event) int32 {
	switch e.kind {
	case evFunc:
		return int32(e.ord >> unitShift)
	case evHostArrive, evProcArrive, evEnqueue, evTxDone, evStartTx:
		return s.shard.unitOf[e.a]
	case evPropagate:
		return s.shard.unitOf[s.Topo.Node(topology.NodeID(e.a)).Ports[e.b].Peer]
	}
	return int32(e.ord >> unitShift)
}

// setUnitContext switches the shard's generation context to the event's
// owning unit before dispatch: subsequent pushes are stamped with it and
// random draws come from its stream, so per-unit streams advance in each
// unit's own dispatch order regardless of how units share shards.
func (s *Simulator) setUnitContext(e *event) {
	u := s.ownerUnit(e)
	s.shard.curUnit = u
	s.rng = s.shard.rngs[u]
}

// dispatch executes one event. Packet events resolve their port operands
// against the immutable topology at fire time, so the agenda never carries
// more than (node, port, packet).
func (s *Simulator) dispatch(e event) {
	if s.shard != nil {
		s.setUnitContext(&e)
	}
	switch e.kind {
	case evFunc:
		e.fn()
	case evHostArrive:
		src := e.pkt.Src
		hostLink := s.Topo.Node(src).Ports[0].Link
		s.Stats.LinkBytes[hostLink] += int64(e.pkt.WireSize())
		s.countDir(hostLink, src, e.pkt.WireSize())
		s.arriveAtSwitch(topology.NodeID(e.a), topology.PortID(e.b), e.pkt)
	case evProcArrive:
		s.processAtSwitch(topology.NodeID(e.a), topology.PortID(e.b), e.pkt)
	case evEnqueue:
		s.enqueue(topology.NodeID(e.a), topology.PortID(e.b), e.pkt)
	case evTxDone:
		s.txDone(topology.NodeID(e.a), topology.PortID(e.b), e.pkt)
	case evPropagate:
		port := s.Topo.Node(topology.NodeID(e.a)).Ports[e.b]
		if s.Topo.IsHost(port.Peer) {
			s.deliver(port.Peer, e.pkt)
		} else {
			s.arriveAtSwitch(port.Peer, port.PeerPort, e.pkt)
		}
	case evStartTx:
		s.startTransmitNow(topology.NodeID(e.a), topology.PortID(e.b))
	}
}

// acquirePacket takes a packet from the pool (or allocates the pool's
// first packets) with all fields zeroed and slice capacity retained.
func (s *Simulator) acquirePacket() *Packet {
	if n := len(s.free); n > 0 {
		pkt := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return pkt
	}
	s.pktAlloc++
	return &Packet{}
}

// releasePacket resets a terminal (delivered or dropped) packet and
// returns it to the pool. Hooks have already run; per the Hooks contract
// they copied anything they needed.
func (s *Simulator) releasePacket(pkt *Packet) {
	*pkt = Packet{
		TruePath:       pkt.TruePath[:0],
		HopQueueDepths: pkt.HopQueueDepths[:0],
		HopArrivals:    pkt.HopArrivals[:0],
	}
	//mars:alloc TestNetsimStepAllocs the free list keeps its capacity; steady state recycles without growing
	s.free = append(s.free, pkt)
}

// Send emits a packet from its source host at time t. The packet ID is
// assigned here. Size must be positive. The returned packet is owned by
// the simulator and recycled once delivered or dropped; callers and hooks
// must copy anything they need rather than retain it.
func (s *Simulator) Send(t Time, src, dst topology.NodeID, flow FlowKey, size int32) *Packet {
	if !s.Topo.IsHost(src) || !s.Topo.IsHost(dst) {
		panic(fmt.Sprintf("netsim: Send endpoints must be hosts (%d -> %d)", src, dst))
	}
	if size <= 0 {
		panic("netsim: packet size must be positive")
	}
	//mars:lifecycle ownership transfers to the event agenda with the packet; deliver/drop release it at end of life
	pkt := s.acquirePacket()
	if c := s.shard; c != nil {
		// Per-unit ID stream, stride-encoded so IDs are globally unique
		// and — with one unit — identical to the classic 1,2,3... stream.
		u := c.curUnit
		pkt.ID = c.unitPkt[u]*c.numUnits + uint64(u) + 1
		c.unitPkt[u]++
	} else {
		s.nextPkt++
		pkt.ID = s.nextPkt
	}
	pkt.Src = src
	pkt.Dst = dst
	pkt.Flow = flow
	pkt.Size = size
	pkt.SendTime = t
	s.Stats.Sent++
	edge, ok := s.Topo.EdgeSwitchOf(src)
	if !ok {
		panic(fmt.Sprintf("netsim: host %d has no edge switch", src))
	}
	inPort, _ := s.Topo.PortTo(edge, src)
	// Host NIC: ideal serialization onto the access link.
	tx := s.txTimeHost(pkt.WireSize())
	at := t + tx + s.Cfg.PropDelay
	if at < s.now {
		at = s.now
	}
	s.push(&event{at: at, kind: evHostArrive, a: int32(edge), b: int32(inPort), pkt: pkt})
	return pkt
}

// txTime returns the serialization delay of n bytes at link bandwidth.
func (s *Simulator) txTime(n int32) Time {
	return Time(int64(n) * 8 * int64(Second) / s.Cfg.LinkBandwidthBps)
}

// txTimeHost returns the serialization delay on a host-facing link.
func (s *Simulator) txTimeHost(n int32) Time {
	bw := s.Cfg.HostLinkBandwidthBps
	if bw <= 0 {
		bw = s.Cfg.LinkBandwidthBps
	}
	return Time(int64(n) * 8 * int64(Second) / bw)
}

// arriveAtSwitch applies the switch-level extra processing delay (the
// Delay fault: interrupts, power, misconfiguration — latency the pipeline
// itself experiences) and then runs the pipeline.
func (s *Simulator) arriveAtSwitch(sw topology.NodeID, inPort topology.PortID, pkt *Packet) {
	if extra := s.switches[sw].procExtra; extra > 0 {
		//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
		s.push(&event{at: s.now + extra, kind: evProcArrive, a: int32(sw), b: int32(inPort), pkt: pkt})
		return
	}
	s.processAtSwitch(sw, inPort, pkt)
}

// processAtSwitch runs the ingress pipeline, routing, and enqueue for pkt.
func (s *Simulator) processAtSwitch(sw topology.NodeID, inPort topology.PortID, pkt *Packet) {
	if s.switches[sw].down {
		// A rebooting switch does not run its pipeline: the packet is lost
		// before it can leave a telemetry trace at this hop.
		s.drop(sw, inPort, pkt, DropSwitchDown)
		return
	}
	pkt.TruePath = append(pkt.TruePath, sw)          //mars:alloc TestNetsimStepAllocs per-packet slices keep their capacity across pool recycling
	pkt.HopArrivals = append(pkt.HopArrivals, s.now) //mars:alloc TestNetsimStepAllocs per-packet slices keep their capacity across pool recycling
	s.hooks.OnSwitchArrival(s, sw, inPort, pkt)

	outPort, ok := s.Router.Route(sw, pkt)
	if !ok {
		s.drop(sw, 0, pkt, DropNoRoute)
		return
	}
	sr := &s.switches[sw]
	pr := &sr.ports[outPort]
	qlen := pr.qlen()
	if pr.busy {
		qlen++ // count the in-flight packet as queue occupancy
	}
	//mars:alloc TestNetsimStepAllocs per-packet slices keep their capacity across pool recycling
	pkt.HopQueueDepths = append(pkt.HopQueueDepths, int32(qlen))

	if act := s.hooks.OnForward(s, sw, inPort, outPort, pkt, qlen); act == ActionDrop {
		s.drop(sw, outPort, pkt, DropByProgram)
		return
	}
	if pr.blackhole {
		s.drop(sw, outPort, pkt, DropFault)
		return
	}
	if pr.down {
		s.drop(sw, outPort, pkt, DropLinkDown)
		return
	}
	if pr.dropProb > 0 && s.rng.Float64() < pr.dropProb {
		s.drop(sw, outPort, pkt, DropFault)
		return
	}
	// Pipeline processing delay before the packet is ready at the egress
	// queue.
	//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
	s.push(&event{at: s.now + s.Cfg.SwitchProcDelay, kind: evEnqueue, a: int32(sw), b: int32(outPort), pkt: pkt})
}

// enqueue places pkt on the egress queue of sw/outPort (tail-dropping if
// the queue is at capacity) and kicks the transmitter if idle.
func (s *Simulator) enqueue(sw topology.NodeID, outPort topology.PortID, pkt *Packet) {
	pr := &s.switches[sw].ports[outPort]
	if pr.qlen() >= s.Cfg.QueueCapacity {
		s.drop(sw, outPort, pkt, DropQueueFull)
		return
	}
	if pr.qhead > 0 && len(pr.queue) == cap(pr.queue) {
		// Reclaim the drained prefix rather than growing the array.
		n := copy(pr.queue, pr.queue[pr.qhead:])
		clear(pr.queue[n:])
		pr.queue = pr.queue[:n]
		pr.qhead = 0
	}
	//mars:alloc TestNetsimStepAllocs the drained prefix is reclaimed above, so the queue array's capacity is reused
	pr.queue = append(pr.queue, pkt)
	pr.enqueuedBytes += int64(pkt.WireSize())
	if !pr.busy {
		s.startTransmit(sw, outPort)
	}
}

// startTransmit begins serializing the head-of-line packet.
func (s *Simulator) startTransmit(sw topology.NodeID, outPort topology.PortID) {
	pr := &s.switches[sw].ports[outPort]
	if pr.qlen() == 0 {
		pr.busy = false
		return
	}
	start := s.now
	if pr.nextFreeAt > start {
		pr.busy = true
		//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
		s.push(&event{at: pr.nextFreeAt, kind: evStartTx, a: int32(sw), b: int32(outPort)})
		return
	}
	s.startTransmitNow(sw, outPort)
}

func (s *Simulator) startTransmitNow(sw topology.NodeID, outPort topology.PortID) {
	pr := &s.switches[sw].ports[outPort]
	if pr.qlen() == 0 {
		pr.busy = false
		return
	}
	pr.busy = true
	pkt := pr.queue[pr.qhead]
	pr.queue[pr.qhead] = nil // release the reference for the pool
	pr.qhead++
	if pr.qhead == len(pr.queue) {
		pr.queue = pr.queue[:0]
		pr.qhead = 0
	}
	pr.enqueuedBytes -= int64(pkt.WireSize())

	port := s.Topo.Node(sw).Ports[outPort]
	var tx Time
	if s.Topo.IsHost(port.Peer) {
		tx = s.txTimeHost(pkt.WireSize())
	} else {
		tx = s.txTime(pkt.WireSize())
	}
	if g := pr.minGap(); g > tx {
		// Rate limit dominates serialization (process-rate decrease).
		tx = g
	}
	pr.nextFreeAt = s.now + tx
	//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
	s.push(&event{at: s.now + tx, kind: evTxDone, a: int32(sw), b: int32(outPort), pkt: pkt})
}

// txDone completes one serialization: account the link bytes, schedule the
// propagation to the peer, then keep the transmitter going.
func (s *Simulator) txDone(sw topology.NodeID, outPort topology.PortID, pkt *Packet) {
	port := s.Topo.Node(sw).Ports[outPort]
	s.Stats.LinkBytes[port.Link] += int64(pkt.WireSize())
	s.countDir(port.Link, sw, pkt.WireSize())
	//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
	s.push(&event{at: s.now + s.Cfg.PropDelay, kind: evPropagate, a: int32(sw), b: int32(outPort), pkt: pkt})
	s.startTransmit(sw, outPort)
}

// countDir attributes bytes to the link direction whose transmitter is
// `from`.
func (s *Simulator) countDir(link topology.LinkID, from topology.NodeID, n int32) {
	if s.Topo.Links[link].A == from {
		s.Stats.LinkDirBytes[link][0] += int64(n)
	} else {
		s.Stats.LinkDirBytes[link][1] += int64(n)
	}
}

func (s *Simulator) deliver(host topology.NodeID, pkt *Packet) {
	s.Stats.Delivered++
	s.Stats.TotalLatency += s.now - pkt.SendTime
	s.hooks.OnDeliver(s, host, pkt)
	s.releasePacket(pkt)
}

func (s *Simulator) drop(sw topology.NodeID, port topology.PortID, pkt *Packet, reason DropReason) {
	s.Stats.Dropped++
	s.Stats.DropsByReason[reason]++
	s.hooks.OnDrop(s, sw, port, pkt, reason)
	s.releasePacket(pkt)
}

// --- Fault controls -------------------------------------------------------
//
// These are the Chaosblade-equivalent knobs; internal/faults composes them
// into the paper's five scenarios.

// SetPortDropProb sets random loss probability on an egress port.
func (s *Simulator) SetPortDropProb(sw topology.NodeID, port topology.PortID, p float64) {
	s.switches[sw].ports[port].dropProb = p
}

// SetPortBlackhole drops all packets on an egress port when on.
func (s *Simulator) SetPortBlackhole(sw topology.NodeID, port topology.PortID, on bool) {
	s.switches[sw].ports[port].blackhole = on
}

// SetPortRateLimit caps departures on a port at pps packets per second
// (0 removes the cap). This models the process-rate-decrease fault.
func (s *Simulator) SetPortRateLimit(sw topology.NodeID, port topology.PortID, pps float64) {
	s.switches[sw].ports[port].rateLimitPPS = pps
}

// SetSwitchExtraDelay adds processing latency to every packet traversing
// the switch (the Delay fault at switch level: interrupts, power, config).
func (s *Simulator) SetSwitchExtraDelay(sw topology.NodeID, d Time) {
	s.switches[sw].procExtra = d
}

// PortDropProb returns the current loss probability on an egress port.
func (s *Simulator) PortDropProb(sw topology.NodeID, port topology.PortID) float64 {
	return s.switches[sw].ports[port].dropProb
}

// PortRateLimit returns the current departure cap on a port (0 = none).
func (s *Simulator) PortRateLimit(sw topology.NodeID, port topology.PortID) float64 {
	return s.switches[sw].ports[port].rateLimitPPS
}

// SwitchExtraDelay returns the current switch-level extra delay.
func (s *Simulator) SwitchExtraDelay(sw topology.NodeID) Time {
	return s.switches[sw].procExtra
}

// --- Dynamic link and switch state ----------------------------------------
//
// Gray-failure scenarios (link down, flapping, switch reboot) toggle these
// mid-run. The flags live on the per-port and per-switch runtime structs the
// hot path already touches, so checking them costs one branch and zero
// allocations (see hotpath_allocs_test.go).

// SetLinkUp raises or lowers a link. A lowered link drops every packet that
// tries to cross it, in both directions, at the moment the sender's egress
// pipeline reaches it. Packets already serialized onto the wire complete
// their propagation (the photons are in flight).
func (s *Simulator) SetLinkUp(link topology.LinkID, up bool) {
	l := s.Topo.Links[link]
	if s.Topo.IsSwitch(l.A) {
		s.switches[l.A].ports[l.APort].down = !up
	}
	if s.Topo.IsSwitch(l.B) {
		s.switches[l.B].ports[l.BPort].down = !up
	}
}

// LinkUp reports whether a link is currently up. Host-to-host links do not
// exist in a fat-tree, so at least one endpoint carries the flag.
func (s *Simulator) LinkUp(link topology.LinkID) bool {
	l := s.Topo.Links[link]
	if s.Topo.IsSwitch(l.A) {
		return !s.switches[l.A].ports[l.APort].down
	}
	return !s.switches[l.B].ports[l.BPort].down
}

// SetSwitchDown marks a switch as rebooting (or recovered). While down the
// switch loses every arriving packet; its register state is NOT cleared
// here — the injector flushes the dataplane program separately, mirroring
// how a real reboot wipes P4 register arrays.
func (s *Simulator) SetSwitchDown(sw topology.NodeID, down bool) {
	s.switches[sw].down = down
}

// SwitchDown reports whether sw is currently rebooting.
func (s *Simulator) SwitchDown(sw topology.NodeID) bool {
	return s.switches[sw].down
}
