// Package controlplane implements the MARS controller: it periodically
// pulls the "latency" field of sink-switch Ring Tables (the paper uses the
// P4Runtime API; here every exchange travels an explicit control channel
// with counted bytes), feeds per-flow reservoirs, pushes refreshed dynamic
// thresholds down to the data plane, and — when a data-plane notification
// arrives — collects the Ring Tables of all edge switches as diagnosis
// data for root cause analysis (§4.3, §4.4).
//
// The channel (internal/ctrlchan) may lose, delay, reorder, or duplicate
// messages, so the controller is built to survive its own control plane
// being faulty: Ring Table collections and refresh pulls carry per-request
// timeouts with capped exponential backoff and a retry budget; channel
// sequence numbers deduplicate duplicated or reordered notifications; and
// threshold pushes are acknowledged and re-sent until confirmed. When some
// edge switches never answer a collection within the retry budget, the
// controller does not stall: it hands RCA a partial diagnosis tagged with
// the missing sinks, and the analyzer annotates its culprits with the
// resulting confidence instead of silently assuming complete data.
package controlplane

import (
	"math/rand"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/reservoir"
	"mars/internal/topology"
)

// Config parameterizes the controller.
type Config struct {
	// RefreshPeriod is how often reservoirs are fed and thresholds pushed.
	RefreshPeriod netsim.Time
	// ResponseWindow rate-limits diagnosis collections: the control plane
	// responds to at most one notification per window (§4.4).
	ResponseWindow netsim.Time
	// Reservoir configures the per-flow latency reservoirs.
	Reservoir reservoir.Config
	// Seed drives reservoir replacement randomness and retry jitter.
	Seed int64

	// RequestTimeout is the per-request response deadline for Ring Table
	// collections, refresh pulls, and threshold pushes.
	RequestTimeout netsim.Time
	// MaxRetries is the retry budget per request after the first attempt;
	// 0 disables retransmission (the no-retry ablation).
	MaxRetries int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMax.
	BackoffBase netsim.Time
	// BackoffMax caps the exponential backoff.
	BackoffMax netsim.Time
	// BackoffJitter randomizes each backoff by ±Jitter/2 of its value so
	// retries to many switches do not synchronize.
	BackoffJitter float64

	// Decoder is the controller-side half of the selected telemetry codec
	// (internal/telemetry): it reconstructs collected Ring Table records
	// and prices them on the collection wire. nil means the paper's exact
	// encoding — identity reconstruction, 28-byte records.
	Decoder RecordDecoder
}

// Clock is the controller's scheduling seam. In the simulator it is the
// discrete-event heap itself (*netsim.Simulator implements it directly and
// callbacks run at virtual times); in the real-process deployment mode it
// is a serialized wall-clock run loop (internal/rtclock) whose Time values
// are nanoseconds since process start. The controller never compares its
// clock against record arrival stamps — recency anchoring uses the
// data-plane's own timeline via Diagnosis.AsOf — so the two interpretations
// never mix.
type Clock interface {
	// Now returns the current time on the clock's timeline.
	Now() netsim.Time
	// After runs fn once, d after Now.
	After(d netsim.Time, fn func())
	// At runs fn once at absolute time t (immediately if t has passed).
	At(t netsim.Time, fn func())
}

// RecordDecoder reconstructs a collected telemetry snapshot. The second
// return of DecodeRecords is the per-record reconstruction confidence in
// [0,1], aligned with the returned records; RCA folds its mean into
// culprit confidence. Every internal/telemetry Codec satisfies this.
type RecordDecoder interface {
	DecodeRecords(recs []dataplane.RTRecord) ([]dataplane.RTRecord, []float64)
	RecordBytes() int
}

// DefaultConfig matches the data plane's 100 ms epochs: thresholds refresh
// every 200 ms, diagnosis at most once per 500 ms. The deviation multiple
// is raised to 6 MAD units (~4σ-equivalent for Gaussian noise): multi-hop
// latency under Poisson cross-traffic is heavy-tailed, and a 3-MAD
// threshold flags a few percent of healthy telemetry records. Reliability
// knobs assume a ~1 ms control RTT: 20 ms deadlines, 3 retries, 10→80 ms
// backoff — a full retry cycle fits well inside one response window.
func DefaultConfig() Config {
	rc := reservoir.DefaultConfig()
	rc.C = 6
	return Config{
		RefreshPeriod:  200 * netsim.Millisecond,
		ResponseWindow: 500 * netsim.Millisecond,
		Reservoir:      rc,
		Seed:           1,
		RequestTimeout: 20 * netsim.Millisecond,
		MaxRetries:     3,
		BackoffBase:    10 * netsim.Millisecond,
		BackoffMax:     80 * netsim.Millisecond,
		BackoffJitter:  0.5,
	}
}

// Diagnosis is one on-demand collection: the trigger plus the telemetry
// snapshot pulled from the edge switches that answered in time.
type Diagnosis struct {
	Trigger dataplane.Notification
	Records []dataplane.RTRecord
	Time    netsim.Time
	// AsOf is the newest snapshot stamp among the collect responses (the
	// data-plane timeline moment the collected records are current as of).
	// Zero in the simulator, where collection is synchronous and Time
	// already sits on the data's timeline; the deployment mode's analyzer
	// anchors record recency to AsOf instead of the controller's wall clock.
	AsOf netsim.Time
	// Requested is how many edge switches the collection contacted.
	Requested int
	// MissingSinks lists the edge switches that never responded within
	// the retry budget; empty for a complete collection.
	MissingSinks []topology.NodeID
	// RecordConfidence, when non-nil, is the codec decoder's per-record
	// reconstruction confidence aligned with Records. nil means the exact
	// default encoding (confidence 1 everywhere).
	RecordConfidence []float64
}

// ReconstructionConfidence is the mean per-record reconstruction
// confidence, 1 for exact encodings (nil RecordConfidence) and for empty
// collections.
func (d Diagnosis) ReconstructionConfidence() float64 {
	if len(d.RecordConfidence) == 0 {
		return 1
	}
	var s float64
	for _, c := range d.RecordConfidence {
		s += c
	}
	return s / float64(len(d.RecordConfidence))
}

// Coverage returns the fraction of contacted sinks that answered (1 for a
// complete collection, and for the degenerate zero-sink topology).
func (d Diagnosis) Coverage() float64 {
	if d.Requested == 0 {
		return 1
	}
	return float64(d.Requested-len(d.MissingSinks)) / float64(d.Requested)
}

// Partial reports whether any contacted sink is missing.
func (d Diagnosis) Partial() bool { return len(d.MissingSinks) > 0 }

// BandwidthStats counts every control-channel byte for the Fig. 9 study.
type BandwidthStats struct {
	// NotificationBytes: data plane -> control plane triggers.
	NotificationBytes int64
	// CollectionBytes: Ring Table pulls (diagnosis data). Counted when a
	// response is put on the channel, so retransmitted collections cost
	// their true repeated bytes.
	CollectionBytes int64
	// RefreshBytes: periodic latency pulls for reservoir upkeep.
	RefreshBytes int64
	// ThresholdPushBytes: control plane -> data plane threshold updates.
	ThresholdPushBytes int64
	// RequestBytes: collection and refresh request frames (kept out of
	// DiagnosisBytes so the Fig. 9 bar keeps its original definition).
	RequestBytes int64
	// AckBytes: threshold acknowledgement frames.
	AckBytes int64
	// Diagnoses counts completed collections.
	Diagnoses int64
	// PartialDiagnoses counts collections that finished with missing sinks.
	PartialDiagnoses int64
	// SuppressedNotifications counts notifications that arrived inside the
	// response window (the latest one is retained, not dropped).
	SuppressedNotifications int64
	// DuplicateNotifications counts channel-duplicated or reordered
	// re-deliveries discarded by sequence-number dedup.
	DuplicateNotifications int64
	// Retries counts request retransmissions (collect + refresh + push).
	Retries int64
}

// DiagnosisBytes returns the on-demand (trigger + collection) total, the
// "Diagnosis" bar of Fig. 9.
func (b BandwidthStats) DiagnosisBytes() int64 {
	return b.NotificationBytes + b.CollectionBytes
}

// collection is one in-flight diagnosis: per-sink requests race their
// timeouts, and the diagnosis finalizes when every sink has either
// answered or exhausted its retry budget.
type collection struct {
	trigger   dataplane.Notification
	records   []dataplane.RTRecord
	pending   map[topology.NodeID]bool
	missing   []topology.NodeID
	requested int
	finished  bool
	// asOf tracks the newest response Stamp (zero on the in-sim path).
	asOf netsim.Time
}

// collectReq tracks one outstanding collection request attempt.
type collectReq struct {
	col     *collection
	sw      topology.NodeID
	attempt int
}

// refreshReq tracks one outstanding refresh pull attempt.
type refreshReq struct {
	sw      topology.NodeID
	attempt int
}

// noteKey deduplicates notification deliveries. The sequence number alone
// is not enough: in the multi-process deployment every switch process mints
// its own Seq stream, so streams from different switches collide. In the
// simulator the controller mints every Seq from one global counter, making
// the (switch, seq) pair exactly as unique as the bare seq was.
type noteKey struct {
	sw  topology.NodeID
	seq uint64
}

// pushKey identifies a per-switch per-flow threshold installation.
type pushKey struct {
	sw   topology.NodeID
	flow dataplane.FlowID
}

// pushState tracks threshold convergence for one (switch, flow): the value
// the controller wants installed, the last value the switch acknowledged,
// and the in-flight attempt. At most one push per key is outstanding.
type pushState struct {
	want          netsim.Time
	confirmed     netsim.Time
	haveConfirmed bool
	inFlight      bool
	seq           uint64
	attempts      int
}

// Controller is the MARS control plane.
type Controller struct {
	Cfg   Config
	Prog  *dataplane.Program
	Topo  *topology.Topology
	Bytes BandwidthStats

	// OnDiagnosis receives each collected diagnosis (the RCA entry point).
	OnDiagnosis func(d Diagnosis)

	clock      Clock
	tr         ctrlchan.Transport
	rng        *rand.Rand
	reservoirs map[dataplane.FlowID]*reservoir.Reservoir
	// lastSeen tracks, per sink switch, the arrival time of the newest RT
	// record already fed to reservoirs (the refresh pull watermark).
	lastSeen      map[topology.NodeID]netsim.Time
	lastDiagnosis netsim.Time
	haveDiagnosed bool
	edgeSwitches  []topology.NodeID
	started       bool

	// Channel sequencing and outstanding-request state.
	nextSeq        uint64
	seenNotes      map[noteKey]bool
	collectSeqs    map[uint64]collectReq
	refreshSeqs    map[uint64]refreshReq
	refreshPending map[topology.NodeID]bool
	pushes         map[pushKey]*pushState
	pushSeqs       map[uint64]pushKey

	// suppressed retains the newest notification that arrived inside the
	// response window, so a diagnosis fires when the window reopens
	// instead of the trigger being silently dropped.
	suppressed     *dataplane.Notification
	flushScheduled bool
}

// NewWithChannel wires a controller to a simulator and data-plane program
// over an explicit control channel (nil means a perfect, synchronous,
// lossless one). Call Start to begin the refresh loop, and pass the
// controller to the program as its Notifier.
func NewWithChannel(cfg Config, sim *netsim.Simulator, prog *dataplane.Program, ch *ctrlchan.Channel) *Controller {
	if ch == nil {
		ch = ctrlchan.New(sim, ctrlchan.Config{Seed: cfg.Seed})
	}
	return NewWithTransport(cfg, sim, prog, ch)
}

// NewWithTransport wires a controller to an arbitrary clock and transport —
// the seam the real-process deployment mode enters through. With a
// *netsim.Simulator clock and a *ctrlchan.Channel transport this is exactly
// NewWithChannel; with an rtclock loop and a UDP transport the same
// reliability machinery runs against real sockets.
func NewWithTransport(cfg Config, clock Clock, prog *dataplane.Program, tr ctrlchan.Transport) *Controller {
	c := &Controller{
		Cfg:            cfg,
		Prog:           prog,
		Topo:           prog.Topo,
		clock:          clock,
		tr:             tr,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		reservoirs:     make(map[dataplane.FlowID]*reservoir.Reservoir),
		lastSeen:       make(map[topology.NodeID]netsim.Time),
		seenNotes:      make(map[noteKey]bool),
		collectSeqs:    make(map[uint64]collectReq),
		refreshSeqs:    make(map[uint64]refreshReq),
		refreshPending: make(map[topology.NodeID]bool),
		pushes:         make(map[pushKey]*pushState),
		pushSeqs:       make(map[uint64]pushKey),
	}
	for _, sw := range c.Topo.Switches() {
		for _, p := range c.Topo.Node(sw).Ports {
			if c.Topo.IsHost(p.Peer) {
				c.edgeSwitches = append(c.edgeSwitches, sw)
				break
			}
		}
	}
	return c
}

// Channel exposes the control channel (for fault injection and stats); nil
// when the controller runs over a non-Channel transport.
func (c *Controller) Channel() *ctrlchan.Channel {
	ch, _ := c.tr.(*ctrlchan.Channel)
	return ch
}

// Deliver dispatches an inbound switch → controller message. It is the
// handler a socket transport's read loop hands frames to; the in-simulator
// path reaches the same dispatch through the Channel's deliver callback.
func (c *Controller) Deliver(m ctrlchan.Message) { c.deliverToController(m) }

// EdgeSwitches returns the switches with attached hosts (telemetry sinks).
func (c *Controller) EdgeSwitches() []topology.NodeID { return c.edgeSwitches }

// Start schedules the periodic reservoir/threshold refresh loop.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	var tick func()
	tick = func() {
		c.Refresh()
		c.clock.After(c.Cfg.RefreshPeriod, tick)
	}
	c.clock.After(c.Cfg.RefreshPeriod, tick)
}

// ReservoirFor returns (creating if needed) the flow's reservoir.
func (c *Controller) ReservoirFor(flow dataplane.FlowID) *reservoir.Reservoir {
	r := c.reservoirs[flow]
	if r == nil {
		r = reservoir.New(c.Cfg.Reservoir, c.rng)
		c.reservoirs[flow] = r
	}
	return r
}

// ThresholdOf returns the dynamic threshold currently derived for flow.
func (c *Controller) ThresholdOf(flow dataplane.FlowID) netsim.Time {
	return netsim.Time(c.ReservoirFor(flow).Threshold())
}

// backoff returns the jittered exponential delay before retry `attempt`
// (1-based: the first retry uses BackoffBase).
func (c *Controller) backoff(attempt int) netsim.Time {
	d := c.Cfg.BackoffBase
	for i := 1; i < attempt && d < c.Cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.Cfg.BackoffMax {
		d = c.Cfg.BackoffMax
	}
	if j := c.Cfg.BackoffJitter; j > 0 && d > 0 {
		d += netsim.Time(float64(d) * j * (c.rng.Float64() - 0.5))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// seq mints the next channel sequence number.
func (c *Controller) seq() uint64 {
	c.nextSeq++
	return c.nextSeq
}

// armTimeout schedules fn at the request deadline unless the request was
// already satisfied synchronously (perfect channel), keeping the event
// heap untouched on the reliable path.
func (c *Controller) armTimeout(stillPending func() bool, fn func()) {
	if !stillPending() {
		return
	}
	c.clock.After(c.Cfg.RequestTimeout, fn)
}

// --- Switch-side agent ----------------------------------------------------
//
// In the paper each switch runs a P4Runtime server; here a thin agent
// executes controller requests against the shared Program state and sends
// the response back over the channel. It holds no controller state — all
// reliability logic lives on the controller side.

// deliverToSwitch handles controller → switch messages at the switch.
func (c *Controller) deliverToSwitch(m ctrlchan.Message) {
	//mars:partial only controller->switch request kinds arrive here; responses, acks, and notifications travel the other direction and are handled by deliverToController
	switch m.Kind {
	case ctrlchan.KindCollectRequest:
		recs := c.Prog.RTSnapshot(m.Switch)
		wire := int64(len(recs)) * c.recordBytes()
		c.Bytes.CollectionBytes += wire
		c.tr.Send(ctrlchan.ToController, ctrlchan.Message{
			Kind: ctrlchan.KindCollectResponse, Seq: m.Seq, Switch: m.Switch,
			Records: recs, Wire: wire,
		}, c.deliverToController)

	case ctrlchan.KindRefreshRequest:
		// Incremental pull: only records newer than the controller's
		// watermark cross the channel (8 B per compressed latency sample,
		// as in the seed accounting).
		var recs []dataplane.RTRecord
		for _, r := range c.Prog.RTSnapshot(m.Switch) {
			if r.Arrival > m.Watermark {
				recs = append(recs, r)
			}
		}
		c.Bytes.RefreshBytes += int64(len(recs)) * 8
		c.tr.Send(ctrlchan.ToController, ctrlchan.Message{
			Kind: ctrlchan.KindRefreshResponse, Seq: m.Seq, Switch: m.Switch,
			Records: recs, Wire: int64(len(recs)) * 8,
		}, c.deliverToController)

	case ctrlchan.KindThresholdPush:
		c.Prog.SetThreshold(m.Switch, m.Flow, m.Threshold)
		c.Bytes.AckBytes += ctrlchan.AckBytes
		c.tr.Send(ctrlchan.ToController, ctrlchan.Message{
			Kind: ctrlchan.KindThresholdAck, Seq: m.Seq, Switch: m.Switch,
			Flow: m.Flow, Threshold: m.Threshold, Wire: ctrlchan.AckBytes,
		}, c.deliverToController)
	}
}

// deliverToController dispatches switch → controller messages.
func (c *Controller) deliverToController(m ctrlchan.Message) {
	//mars:partial only switch->controller response kinds arrive here; requests and pushes travel the other direction and are handled by deliverToSwitch
	switch m.Kind {
	case ctrlchan.KindNotification:
		c.onNotification(m)
	case ctrlchan.KindCollectResponse:
		c.onCollectResponse(m)
	case ctrlchan.KindRefreshResponse:
		c.onRefreshResponse(m)
	case ctrlchan.KindThresholdAck:
		c.onThresholdAck(m)
	}
}

// --- Refresh (reservoir upkeep + threshold pushes) ------------------------

// Refresh starts one incremental pull round: every sink without an
// outstanding pull is asked for records newer than its watermark. The
// responses feed the reservoirs and drive threshold pushes as they arrive;
// a sink whose pull is still pending (timed out and backing off) is
// skipped rather than piled onto.
func (c *Controller) Refresh() {
	for _, sw := range c.edgeSwitches {
		if c.refreshPending[sw] {
			continue
		}
		c.sendRefresh(sw, 0)
	}
}

// sendRefresh issues one refresh pull attempt to sw.
func (c *Controller) sendRefresh(sw topology.NodeID, attempt int) {
	c.refreshPending[sw] = true
	seq := c.seq()
	c.refreshSeqs[seq] = refreshReq{sw: sw, attempt: attempt}
	c.Bytes.RequestBytes += ctrlchan.RefreshRequestBytes
	c.tr.Send(ctrlchan.ToSwitch, ctrlchan.Message{
		Kind: ctrlchan.KindRefreshRequest, Seq: seq, Switch: sw,
		Watermark: c.lastSeen[sw], Wire: ctrlchan.RefreshRequestBytes,
	}, c.deliverToSwitch)
	c.armTimeout(
		func() bool { _, ok := c.refreshSeqs[seq]; return ok },
		func() { c.refreshTimeout(seq) })
}

// refreshTimeout retries an unanswered pull within the budget, else gives
// up until the next periodic round (the watermark is unchanged, so no
// data is lost — only delayed).
func (c *Controller) refreshTimeout(seq uint64) {
	req, ok := c.refreshSeqs[seq]
	if !ok {
		return // answered in time
	}
	delete(c.refreshSeqs, seq)
	if req.attempt < c.Cfg.MaxRetries {
		c.Bytes.Retries++
		c.clock.After(c.backoff(req.attempt+1), func() {
			c.sendRefresh(req.sw, req.attempt+1)
		})
		return
	}
	c.refreshPending[req.sw] = false
}

// onRefreshResponse feeds the reservoirs and pushes refreshed thresholds
// for the flows this sink updated.
func (c *Controller) onRefreshResponse(m ctrlchan.Message) {
	req, ok := c.refreshSeqs[m.Seq]
	if !ok {
		return // duplicate or post-timeout straggler
	}
	delete(c.refreshSeqs, m.Seq)
	c.refreshPending[req.sw] = false

	last := c.lastSeen[req.sw]
	newest := last
	var updated []dataplane.FlowID
	seen := make(map[dataplane.FlowID]bool)
	for _, r := range m.Records {
		if r.Arrival <= last {
			continue // straggler overlap with an already-consumed pull
		}
		if r.Arrival > newest {
			newest = r.Arrival
		}
		c.ReservoirFor(r.Flow).Input(float64(r.Latency))
		if !seen[r.Flow] {
			seen[r.Flow] = true
			updated = append(updated, r.Flow)
		}
	}
	c.lastSeen[req.sw] = newest
	for _, flow := range updated {
		c.pushThreshold(flow, c.ThresholdOf(flow))
	}
}

// --- Threshold pushes (acknowledged, deduplicated) ------------------------

// pushThreshold installs th for flow on every switch, skipping switches
// whose acknowledged value already matches (re-deriving an unchanged
// threshold costs no bytes) and re-sending unacknowledged pushes.
func (c *Controller) pushThreshold(flow dataplane.FlowID, th netsim.Time) {
	for _, sw := range c.Topo.Switches() {
		k := pushKey{sw: sw, flow: flow}
		ps := c.pushes[k]
		if ps == nil {
			ps = &pushState{}
			c.pushes[k] = ps
		}
		ps.want = th
		if ps.inFlight {
			continue // resolved on ack/timeout against the new want
		}
		if ps.haveConfirmed && ps.confirmed == th {
			continue // value didn't move: no push, no bytes
		}
		ps.attempts = 0
		c.sendPush(k, ps)
	}
}

// sendPush issues one push attempt carrying the latest wanted value.
func (c *Controller) sendPush(k pushKey, ps *pushState) {
	seq := c.seq()
	ps.inFlight = true
	ps.seq = seq
	c.pushSeqs[seq] = k
	c.Bytes.ThresholdPushBytes += dataplane.ThresholdPushBytes
	c.tr.Send(ctrlchan.ToSwitch, ctrlchan.Message{
		Kind: ctrlchan.KindThresholdPush, Seq: seq, Switch: k.sw,
		Flow: k.flow, Threshold: ps.want, Wire: dataplane.ThresholdPushBytes,
	}, c.deliverToSwitch)
	c.armTimeout(
		func() bool { _, ok := c.pushSeqs[seq]; return ok },
		func() { c.pushTimeout(seq) })
}

// pushTimeout re-sends a lost push within the budget. Past the budget the
// push state is left unconfirmed, so the next refresh of the flow tries
// again even if the derived value is unchanged.
func (c *Controller) pushTimeout(seq uint64) {
	k, ok := c.pushSeqs[seq]
	if !ok {
		return
	}
	delete(c.pushSeqs, seq)
	ps := c.pushes[k]
	if ps == nil || !ps.inFlight || ps.seq != seq {
		return
	}
	ps.inFlight = false
	if ps.attempts < c.Cfg.MaxRetries {
		ps.attempts++
		c.Bytes.Retries++
		c.clock.After(c.backoff(ps.attempts), func() {
			if !ps.inFlight && !(ps.haveConfirmed && ps.confirmed == ps.want) {
				c.sendPush(k, ps)
			}
		})
	}
}

// onThresholdAck marks the pushed value confirmed and chases a value that
// moved while the push was in flight.
func (c *Controller) onThresholdAck(m ctrlchan.Message) {
	k, ok := c.pushSeqs[m.Seq]
	if !ok {
		return // duplicate ack
	}
	delete(c.pushSeqs, m.Seq)
	ps := c.pushes[k]
	if ps == nil {
		return
	}
	ps.confirmed = m.Threshold
	ps.haveConfirmed = true
	if ps.seq == m.Seq {
		ps.inFlight = false
	}
	ps.attempts = 0
	if ps.want != ps.confirmed && !ps.inFlight {
		c.sendPush(k, ps)
	}
}

// --- Notifications and diagnosis collection -------------------------------

// Notify implements dataplane.Notifier. It runs at the notifying switch:
// the trigger is accounted and sent up the control channel, where loss,
// delay, duplication, and reordering may apply before onNotification sees
// it.
func (c *Controller) Notify(n dataplane.Notification) {
	c.Bytes.NotificationBytes += dataplane.NotificationBytes
	c.tr.Send(ctrlchan.ToController, ctrlchan.Message{
		Kind: ctrlchan.KindNotification, Seq: c.seq(), Switch: n.Switch,
		Note: n, Wire: dataplane.NotificationBytes,
	}, c.deliverToController)
}

// onNotification deduplicates deliveries and applies the response window.
// A notification inside the window is not dropped: the newest one is
// retained and fires a diagnosis the moment the window reopens.
func (c *Controller) onNotification(m ctrlchan.Message) {
	k := noteKey{sw: m.Switch, seq: m.Seq}
	if c.seenNotes[k] {
		c.Bytes.DuplicateNotifications++
		return
	}
	c.seenNotes[k] = true
	now := c.clock.Now()
	if c.haveDiagnosed && now-c.lastDiagnosis < c.Cfg.ResponseWindow {
		c.Bytes.SuppressedNotifications++
		n := m.Note
		c.suppressed = &n
		if !c.flushScheduled {
			c.flushScheduled = true
			c.clock.At(c.lastDiagnosis+c.Cfg.ResponseWindow, c.flushSuppressed)
		}
		return
	}
	c.beginDiagnosis(m.Note)
}

// flushSuppressed fires the retained in-window trigger once the response
// window has reopened (re-arming itself if a newer diagnosis moved the
// window meanwhile).
func (c *Controller) flushSuppressed() {
	c.flushScheduled = false
	if c.suppressed == nil {
		return
	}
	now := c.clock.Now()
	if c.haveDiagnosed && now-c.lastDiagnosis < c.Cfg.ResponseWindow {
		c.flushScheduled = true
		c.clock.At(c.lastDiagnosis+c.Cfg.ResponseWindow, c.flushSuppressed)
		return
	}
	n := *c.suppressed
	c.suppressed = nil
	c.beginDiagnosis(n)
}

// beginDiagnosis opens a response window and starts the collection.
func (c *Controller) beginDiagnosis(n dataplane.Notification) {
	c.haveDiagnosed = true
	c.lastDiagnosis = c.clock.Now()
	c.suppressed = nil
	c.startCollection(n)
}

// startCollection pulls diagnosis data from every edge switch's Ring
// Table. Only edge switches are contacted — MARS's Motivation #1 — so
// core switches carry no collection load. Each sink's request races a
// timeout with retries; sinks that exhaust the budget are reported as
// missing rather than stalling the diagnosis.
func (c *Controller) startCollection(trigger dataplane.Notification) {
	col := &collection{
		trigger:   trigger,
		pending:   make(map[topology.NodeID]bool, len(c.edgeSwitches)),
		requested: len(c.edgeSwitches),
	}
	if col.requested == 0 {
		c.finalizeCollection(col)
		return
	}
	for _, sw := range c.edgeSwitches {
		col.pending[sw] = true
	}
	for _, sw := range c.edgeSwitches {
		c.sendCollect(col, sw, 0)
	}
}

// sendCollect issues one collection request attempt to sw.
func (c *Controller) sendCollect(col *collection, sw topology.NodeID, attempt int) {
	if col.finished || !col.pending[sw] {
		return
	}
	seq := c.seq()
	c.collectSeqs[seq] = collectReq{col: col, sw: sw, attempt: attempt}
	c.Bytes.RequestBytes += ctrlchan.CollectRequestBytes
	c.tr.Send(ctrlchan.ToSwitch, ctrlchan.Message{
		Kind: ctrlchan.KindCollectRequest, Seq: seq, Switch: sw,
		Note: col.trigger, Wire: ctrlchan.CollectRequestBytes,
	}, c.deliverToSwitch)
	c.armTimeout(
		func() bool { _, ok := c.collectSeqs[seq]; return ok },
		func() { c.collectTimeout(seq) })
}

// collectTimeout retries an unanswered collection request, or marks the
// sink missing once the budget is spent.
func (c *Controller) collectTimeout(seq uint64) {
	req, ok := c.collectSeqs[seq]
	if !ok {
		return
	}
	delete(c.collectSeqs, seq)
	col := req.col
	if col.finished || !col.pending[req.sw] {
		return
	}
	if req.attempt < c.Cfg.MaxRetries {
		c.Bytes.Retries++
		c.clock.After(c.backoff(req.attempt+1), func() {
			c.sendCollect(col, req.sw, req.attempt+1)
		})
		return
	}
	delete(col.pending, req.sw)
	col.missing = append(col.missing, req.sw)
	if len(col.pending) == 0 {
		c.finalizeCollection(col)
	}
}

// onCollectResponse folds one sink's snapshot into its collection.
func (c *Controller) onCollectResponse(m ctrlchan.Message) {
	req, ok := c.collectSeqs[m.Seq]
	if !ok {
		return // duplicate or post-timeout straggler
	}
	delete(c.collectSeqs, m.Seq)
	col := req.col
	if col.finished || !col.pending[req.sw] {
		return
	}
	delete(col.pending, req.sw)
	col.records = append(col.records, m.Records...)
	if m.Stamp > col.asOf {
		col.asOf = m.Stamp
	}
	if len(col.pending) == 0 {
		c.finalizeCollection(col)
	}
}

// recordBytes is the collection wire size of one Ring Table record under
// the active codec.
func (c *Controller) recordBytes() int64 {
	if c.Cfg.Decoder != nil {
		return int64(c.Cfg.Decoder.RecordBytes())
	}
	return dataplane.RTRecordBytes
}

// finalizeCollection runs the codec decoder over the collected snapshot
// and hands the (possibly partial) diagnosis to RCA.
func (c *Controller) finalizeCollection(col *collection) {
	col.finished = true
	c.Bytes.Diagnoses++
	if len(col.missing) > 0 {
		c.Bytes.PartialDiagnoses++
	}
	if c.OnDiagnosis != nil {
		records := col.records
		var conf []float64
		if c.Cfg.Decoder != nil {
			records, conf = c.Cfg.Decoder.DecodeRecords(records)
		}
		c.OnDiagnosis(Diagnosis{
			Trigger:          col.trigger,
			Records:          records,
			Time:             c.clock.Now(),
			AsOf:             col.asOf,
			Requested:        col.requested,
			MissingSinks:     col.missing,
			RecordConfidence: conf,
		})
	}
}

var _ dataplane.Notifier = (*Controller)(nil)
