package main

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/fsm"
	"mars/internal/netsim"
	"mars/internal/sbfl"
	"mars/internal/topology"
)

// layer names one module whose time the traced run attributes.
type layer int

const (
	layerNetsim layer = iota
	layerControl
	layerRCA
	layerStreamIngest
	layerStreamClose
	numLayers
)

var layerNames = [numLayers]string{"netsim", "controlplane", "rca", "stream.ingest", "stream.close"}

// span is one recorded call into a layer: what ran, when, for how long,
// and which open span caused it (-1 for none).
type span struct {
	Layer  string `json:"layer"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type frame struct {
	layer layer
	start time.Time
	child time.Duration
	span  int
}

// tracer records spans around calls into each layer from a single
// goroutine. A layer's self time is its span minus the time its child
// spans cover. Calls too frequent to record one by one (per-packet hooks,
// per-record ingest) keep only per-layer accumulators.
//
// A nil *tracer is the untraced mode: every method is a no-op, so the
// workloads run the same code with tracing on and off.
type tracer struct {
	origin time.Time
	op     int // operation index stamped on each span
	stack  []frame
	self   [numLayers]time.Duration
	total  [numLayers]time.Duration
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: now()} }

// begin opens a span for l; record says whether to keep the span itself
// or only its accumulators.
func (t *tracer) begin(l layer, record bool) {
	if t == nil {
		return
	}
	f := frame{layer: l, start: now(), span: -1}
	if record {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].span
		}
		f.span = len(t.spans)
		t.spans = append(t.spans, span{Layer: layerNames[l], Op: t.op, Parent: parent, Start: int64(f.start.Sub(t.origin))})
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := since(f.start)
	t.self[f.layer] += d - f.child
	t.total[f.layer] += d
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.span >= 0 {
		t.spans[f.span].Dur = int64(d)
	}
}

// openChild is the child time accumulated so far by the innermost open
// span, so a sampled hook can subtract nested spans from its own time.
func (t *tracer) openChild() time.Duration {
	if t == nil || len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1].child
}

// hookSampleEvery is the hook-timing stride: timing every per-packet hook
// call costs more than the hook itself, so one call in this many is timed
// and the busy time is scaled up by the call count.
const hookSampleEvery = 16

// hookTap wraps the data-plane program's netsim.Hooks. It counts every
// call and times one in hookSampleEvery. Each simulator shard gets its own
// tap, so the counters need no synchronization.
type hookTap struct {
	inner netsim.Hooks
	// nested, when set, is the single-goroutine tracer whose spans can
	// open inside a hook (controller notifications in the classic
	// simulator); their time is subtracted from the hook's.
	nested  *tracer
	calls   int64
	sampled int64
	busy    time.Duration
}

func (h *hookTap) timed() bool {
	h.calls++
	return h.calls%hookSampleEvery == 0
}

func (h *hookTap) record(start time.Time, child0 time.Duration) {
	h.sampled++
	h.busy += since(start) - (h.nested.openChild() - child0)
}

// estimate scales the sampled hook time to every call.
func (h *hookTap) estimate() time.Duration {
	if h.sampled == 0 {
		return 0
	}
	return time.Duration(float64(h.busy) * float64(h.calls) / float64(h.sampled))
}

func (h *hookTap) OnSwitchArrival(s *netsim.Simulator, sw topology.NodeID, in topology.PortID, pkt *netsim.Packet) {
	if !h.timed() {
		h.inner.OnSwitchArrival(s, sw, in, pkt)
		return
	}
	c0, t0 := h.nested.openChild(), now()
	h.inner.OnSwitchArrival(s, sw, in, pkt)
	h.record(t0, c0)
}

func (h *hookTap) OnForward(s *netsim.Simulator, sw topology.NodeID, in, out topology.PortID, pkt *netsim.Packet, qlen int) netsim.Action {
	if !h.timed() {
		return h.inner.OnForward(s, sw, in, out, pkt, qlen)
	}
	c0, t0 := h.nested.openChild(), now()
	a := h.inner.OnForward(s, sw, in, out, pkt, qlen)
	h.record(t0, c0)
	return a
}

func (h *hookTap) OnDeliver(s *netsim.Simulator, host topology.NodeID, pkt *netsim.Packet) {
	if !h.timed() {
		h.inner.OnDeliver(s, host, pkt)
		return
	}
	c0, t0 := h.nested.openChild(), now()
	h.inner.OnDeliver(s, host, pkt)
	h.record(t0, c0)
}

func (h *hookTap) OnDrop(s *netsim.Simulator, sw topology.NodeID, port topology.PortID, pkt *netsim.Packet, r netsim.DropReason) {
	if !h.timed() {
		h.inner.OnDrop(s, sw, port, pkt, r)
		return
	}
	c0, t0 := h.nested.openChild(), now()
	h.inner.OnDrop(s, sw, port, pkt, r)
	h.record(t0, c0)
}

// notifyTap wraps the controller's dataplane.Notifier in a span.
type notifyTap struct {
	inner dataplane.Notifier
	tr    *tracer
}

func (n notifyTap) Notify(note dataplane.Notification) {
	n.tr.begin(layerControl, true)
	n.inner.Notify(note)
	n.tr.end()
}

// minerTap wraps rca.Config.Miner: the FSM stage of every Analyze call.
// In deploy-loopback it runs on the controller node's goroutine, so it
// keeps atomic accumulators instead of tracer spans.
type minerTap struct {
	inner fsm.Miner
	calls atomic.Int64
	ns    atomic.Int64
}

func (m *minerTap) Name() string { return m.inner.Name() }

func (m *minerTap) Mine(db fsm.Dataset, p fsm.Params) []fsm.Pattern {
	t0 := now()
	out := m.inner.Mine(db, p)
	m.ns.Add(int64(since(t0)))
	m.calls.Add(1)
	return out
}

// countFormula wraps an SBFL formula with a call counter.
func countFormula(f sbfl.Formula, n *atomic.Int64) sbfl.Formula {
	return func(s sbfl.Spectrum) float64 {
		n.Add(1)
		return f(s)
	}
}

// wireReps is how many times wireCost encodes and decodes the response.
const wireReps = 200

// wireCost times ctrlchan.EncodeMessage and DecodeMessage on a collect
// response carrying recs, and checks that the message survives the round
// trip. It returns ns per record for each direction.
func wireCost(recs []dataplane.RTRecord) (encNs, decNs float64, err error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	m := ctrlchan.Message{Kind: ctrlchan.KindCollectResponse, Seq: 7, Switch: recs[0].Flow.Sink,
		Records: recs, Stamp: recs[len(recs)-1].Arrival}
	m.Wire = int64(len(ctrlchan.EncodeMessage(&m)))
	var frame []byte
	t0 := now()
	for i := 0; i < wireReps; i++ {
		frame = ctrlchan.EncodeMessage(&m)
	}
	enc := since(t0)
	var got ctrlchan.Message
	t0 = now()
	for i := 0; i < wireReps; i++ {
		if got, _, err = ctrlchan.DecodeMessage(frame); err != nil {
			return 0, 0, fmt.Errorf("decode collect response: %w", err)
		}
	}
	dec := since(t0)
	if !reflect.DeepEqual(got, m) {
		return 0, 0, fmt.Errorf("collect response of %d records does not survive encode/decode", len(recs))
	}
	n := float64(wireReps * len(recs))
	return float64(enc) / n, float64(dec) / n, nil
}
