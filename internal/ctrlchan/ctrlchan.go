// Package ctrlchan models the control channel between the MARS controller
// and its switches. The paper's deployment speaks P4Runtime over a real
// network, where notifications, Ring Table pulls, and threshold pushes can
// be lost, delayed, reordered, or duplicated; the seed reproduction used
// perfectly reliable direct method calls instead. This package makes the
// channel explicit: every controller↔switch exchange becomes a typed
// Message submitted to a Channel, which delivers it through the
// simulator's event heap under a configurable per-direction fault model
// (loss probability, base latency, jitter, duplication, reordering).
//
// A direction whose fault model is all-zero is "perfect" and delivers
// synchronously, byte-for-byte reproducing the seed repo's direct-call
// behavior — attaching a perfect Channel changes nothing, so the default
// configuration keeps every existing experiment result identical.
//
// The Channel draws randomness from its own seeded source, not the
// simulator's: attaching or degrading the channel never perturbs the
// workload/fault random stream, and two runs with the same seeds are
// exactly reproducible event for event.
package ctrlchan

import (
	"math/rand"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// Direction identifies which way a message travels.
type Direction uint8

const (
	// ToController is switch → controller (notifications, responses).
	ToController Direction = iota
	// ToSwitch is controller → switch (requests, threshold pushes).
	ToSwitch
)

func (d Direction) String() string {
	if d == ToController {
		return "to-controller"
	}
	return "to-switch"
}

// Kind enumerates the typed control-channel exchanges.
type Kind uint8

const (
	// KindNotification is a data-plane anomaly trigger (switch → controller).
	KindNotification Kind = iota
	// KindCollectRequest asks an edge switch for its Ring Table (diagnosis).
	KindCollectRequest
	// KindCollectResponse returns the Ring Table snapshot.
	KindCollectResponse
	// KindRefreshRequest is the periodic incremental latency pull; it
	// carries the controller's per-sink watermark so the switch sends only
	// records it has not seen.
	KindRefreshRequest
	// KindRefreshResponse returns the records newer than the watermark.
	KindRefreshResponse
	// KindThresholdPush installs a per-flow dynamic threshold at a switch.
	KindThresholdPush
	// KindThresholdAck confirms a threshold push (switch → controller).
	KindThresholdAck
)

func (k Kind) String() string {
	switch k {
	case KindNotification:
		return "notification"
	case KindCollectRequest:
		return "collect-req"
	case KindCollectResponse:
		return "collect-resp"
	case KindRefreshRequest:
		return "refresh-req"
	case KindRefreshResponse:
		return "refresh-resp"
	case KindThresholdPush:
		return "threshold-push"
	case KindThresholdAck:
		return "threshold-ack"
	default:
		return "threshold-ack"
	}
}

// Wire sizes of the request/ack message types this layer adds. The
// response payloads keep the seed repo's accounting (dataplane.RTRecordBytes
// per collected record, 8 B per refreshed latency, ThresholdPushBytes and
// NotificationBytes unchanged); requests and acks are small fixed-size
// frames counted separately so the Fig. 9 "Diagnosis" bar keeps its
// original definition.
const (
	// CollectRequestBytes is one Ring Table collection request.
	CollectRequestBytes = 16
	// RefreshRequestBytes is one watermark-carrying refresh pull request.
	RefreshRequestBytes = 16
	// AckBytes is one threshold acknowledgement.
	AckBytes = 12
)

// Message is one typed control-channel exchange. Exactly the fields of
// its Kind are meaningful; the rest are zero.
type Message struct {
	Kind Kind
	// Seq matches responses (and acks) to requests and deduplicates
	// duplicated or reordered deliveries. Every transmission attempt gets
	// a fresh Seq, so a retry is distinguishable from the original.
	Seq uint64
	// Switch is the switch-side endpoint of the exchange.
	Switch topology.NodeID
	// Note is the payload of KindNotification.
	Note dataplane.Notification
	// Records is the payload of collect/refresh responses.
	Records []dataplane.RTRecord
	// Watermark is the refresh request's newest-already-seen arrival time.
	Watermark netsim.Time
	// Flow and Threshold are the payload of threshold pushes and acks.
	Flow      dataplane.FlowID
	Threshold netsim.Time
	// Wire is the message's size on the channel in bytes (set by the
	// sender; the Channel only accounts it).
	Wire int64
	// Stamp is the sender's clock at snapshot time on collect/refresh
	// responses. The in-simulator path leaves it zero (collection there is
	// synchronous); the real-socket deployment mode sets it so the
	// controller can anchor record-recency analysis to the data's own
	// timeline rather than the wall clock.
	Stamp netsim.Time
}

// DirConfig is the fault model of one channel direction.
type DirConfig struct {
	// Loss is the probability a message vanishes in transit.
	Loss float64
	// Latency is the base one-way delivery delay.
	Latency netsim.Time
	// Jitter adds a uniform [0, Jitter) extra delay per delivery; two
	// messages sent back to back can therefore arrive reordered.
	Jitter netsim.Time
	// DupProb is the probability a message is delivered twice (the second
	// copy takes an independent delay draw).
	DupProb float64
	// ReorderProb is the probability a message is held back an extra
	// 3×Jitter (a deliberate reordering spike on top of natural jitter).
	ReorderProb float64
}

// perfect reports whether the direction needs no event-heap involvement.
func (d DirConfig) perfect() bool {
	return d.Loss == 0 && d.Latency == 0 && d.Jitter == 0 &&
		d.DupProb == 0 && d.ReorderProb == 0
}

// Config parameterizes both directions plus the channel's random source.
type Config struct {
	ToController DirConfig
	ToSwitch     DirConfig
	// Seed drives the channel's own deterministic randomness.
	Seed int64
}

// Lossy returns a symmetric fault model: the given loss rate both ways,
// 1 ms ± 0.5 ms one-way latency, 1% duplication, and 5% reordering
// spikes — the regime the ctrlchan experiment sweeps.
func Lossy(loss float64, seed int64) Config {
	dir := DirConfig{
		Loss:        loss,
		Latency:     netsim.Millisecond,
		Jitter:      500 * netsim.Microsecond,
		DupProb:     0.01,
		ReorderProb: 0.05,
	}
	return Config{ToController: dir, ToSwitch: dir, Seed: seed}
}

// DirStats counts one direction's traffic.
type DirStats struct {
	// Sent counts submission attempts (including ones later lost).
	Sent int64
	// SentBytes sums the wire size of every submission.
	SentBytes int64
	// Lost counts messages dropped by the fault model.
	Lost int64
	// Duplicated counts extra deliveries minted by duplication.
	Duplicated int64
	// Delivered counts deliveries handed to the receiving endpoint.
	Delivered int64
}

// Stats aggregates both directions.
type Stats struct {
	ToController DirStats
	ToSwitch     DirStats
}

// Channel is the fault-injectable message layer. All methods must be
// called from inside the simulator's event loop (the whole system is
// single-threaded discrete-event code).
type Channel struct {
	Cfg   Config
	Stats Stats

	sim *netsim.Simulator
	rng *rand.Rand
}

// New attaches a channel to a simulator. The zero Config is a perfect
// channel: synchronous, lossless, byte-identical to direct calls.
func New(sim *netsim.Simulator, cfg Config) *Channel {
	return &Channel{Cfg: cfg, sim: sim, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// dir returns the fault model and stats slot of a direction.
func (ch *Channel) dir(d Direction) (*DirConfig, *DirStats) {
	if d == ToController {
		return &ch.Cfg.ToController, &ch.Stats.ToController
	}
	return &ch.Cfg.ToSwitch, &ch.Stats.ToSwitch
}

// SetLoss adjusts one direction's loss probability at runtime (the
// control-channel degradation fault injector's knob).
func (ch *Channel) SetLoss(d Direction, p float64) {
	cfg, _ := ch.dir(d)
	cfg.Loss = p
}

// Loss returns one direction's current loss probability (the value a
// revert must restore when degradation windows overlap).
func (ch *Channel) Loss(d Direction) float64 {
	cfg, _ := ch.dir(d)
	return cfg.Loss
}

// Send submits a message in direction d; deliver runs when (and if) the
// message arrives. A perfect direction delivers synchronously before Send
// returns; otherwise delivery is scheduled on the event heap after the
// drawn delay, may happen twice (duplication), may never happen (loss),
// and later Sends can overtake earlier ones (jitter/reorder).
func (ch *Channel) Send(d Direction, m Message, deliver func(Message)) {
	cfg, st := ch.dir(d)
	st.Sent++
	st.SentBytes += m.Wire
	if cfg.perfect() {
		st.Delivered++
		deliver(m)
		return
	}
	if cfg.Loss > 0 && ch.rng.Float64() < cfg.Loss {
		st.Lost++
		return
	}
	ch.scheduleDelivery(cfg, st, m, deliver)
	if cfg.DupProb > 0 && ch.rng.Float64() < cfg.DupProb {
		st.Duplicated++
		ch.scheduleDelivery(cfg, st, m, deliver)
	}
}

// scheduleDelivery queues one delivery with an independent delay draw.
func (ch *Channel) scheduleDelivery(cfg *DirConfig, st *DirStats, m Message, deliver func(Message)) {
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += netsim.Time(ch.rng.Int63n(int64(cfg.Jitter)))
	}
	if cfg.ReorderProb > 0 && ch.rng.Float64() < cfg.ReorderProb {
		delay += 3 * cfg.Jitter
	}
	ch.sim.After(delay, func() {
		st.Delivered++
		deliver(m)
	})
}
