package obs

import (
	"sync"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// NetProbe instruments the packet plane through the netsim.Probe
// observation point: queue depth at enqueue, drops split by cause and
// packet kind, and per-link latency (queuing + serialization +
// propagation) at delivery. Attach it network-wide with
// Network.AttachProbe, or per-link with Link.Attach.
//
// Because probes are the packet plane's only observation hook, a
// simulation without a NetProbe attached runs the exact pre-obs hot path:
// the disabled cost of this instrument is zero by construction.
//
// The probe carries no engine handle: on a sharded engine there is no one
// clock, so each callback reads the observed link's own context — the
// sending side's clock for Enqueue/Drop, the receiving side's for Deliver
// (Link.NowTx / Link.NowRx). A mutex guards the latency-matching map,
// which links in different shards touch concurrently.
//
// Latency is measured by remembering, per (link, packet), when the link
// accepted the packet. Two edge cases lose the enqueue timestamp and are
// skipped rather than guessed: a packet accepted before the probe was
// attached, and a priority-dropping arrival that replaced a queued victim
// (the link transfers the victim's accounting to the arrival without a
// fresh enqueue).
type NetProbe struct {
	rec     *Recorder
	mu      sync.Mutex
	pending map[pendKey]sim.Time

	enqueues, delivers    *Counter
	dropsQueue, dropsDown *Counter // drop-policy discards / losses to failed links
	dropsData, dropsCtl   *Counter // dropped media / control packets
	queueDepth, latencyMs *Histogram
}

type pendKey struct {
	l *netsim.Link
	p *netsim.Packet
}

// NewNetProbe builds a probe and registers its link_* instruments in o.
// Probes on several networks of one run share the instruments.
func NewNetProbe(o *Obs) *NetProbe {
	if o == nil {
		panic("obs: NewNetProbe requires an Obs")
	}
	r := o.Reg
	return &NetProbe{
		rec:        o.Rec,
		pending:    make(map[pendKey]sim.Time),
		enqueues:   r.Counter("link_enqueues"),
		delivers:   r.Counter("link_delivers"),
		dropsQueue: r.Counter("link_drops_queue"),
		dropsDown:  r.Counter("link_drops_down"),
		dropsData:  r.Counter("link_drops_data"),
		dropsCtl:   r.Counter("link_drops_control"),
		queueDepth: r.Histogram("link_queue_depth", []float64{0, 1, 2, 4, 8, 12, 16, 20, 32, 64}),
		latencyMs:  r.Histogram("link_latency_ms", []float64{1, 5, 10, 25, 50, 100, 200, 300, 500, 1000, 2000}),
	}
}

// Enqueue implements netsim.Probe.
func (np *NetProbe) Enqueue(l *netsim.Link, p *netsim.Packet) {
	now := l.NowTx()
	depth := l.QueueLen() // depth the arrival saw (it is not queued yet)
	np.enqueues.Inc()
	np.queueDepth.Observe(float64(depth))
	np.mu.Lock()
	np.pending[pendKey{l, p}] = now
	np.mu.Unlock()
	np.rec.Record(Event{
		At: now, Kind: EvEnqueue,
		From: int32(l.From), To: int32(l.To),
		Session: int32(p.Session), Layer: int32(p.Layer),
		Seq: p.Seq, Aux: int64(depth),
	})
}

// Drop implements netsim.Probe.
func (np *NetProbe) Drop(l *netsim.Link, p *netsim.Packet) {
	now := l.NowTx()
	cause := DropQueue
	if l.Down() {
		cause = DropLinkDown
		np.dropsDown.Inc()
	} else {
		np.dropsQueue.Inc()
	}
	if p.Kind == netsim.Control {
		np.dropsCtl.Inc()
	} else {
		np.dropsData.Inc()
	}
	np.mu.Lock()
	delete(np.pending, pendKey{l, p})
	np.mu.Unlock()
	np.rec.Record(Event{
		At: now, Kind: EvDrop,
		From: int32(l.From), To: int32(l.To),
		Session: int32(p.Session), Layer: int32(p.Layer),
		Seq: p.Seq, Aux: cause,
	})
}

// Deliver implements netsim.Probe.
func (np *NetProbe) Deliver(l *netsim.Link, p *netsim.Packet) {
	now := l.NowRx()
	np.delivers.Inc()
	lat := int64(-1)
	k := pendKey{l, p}
	np.mu.Lock()
	t, ok := np.pending[k]
	if ok {
		delete(np.pending, k)
	}
	np.mu.Unlock()
	if ok {
		lat = int64(now - t)
		np.latencyMs.Observe(float64(now-t) / float64(sim.Millisecond))
	}
	np.rec.Record(Event{
		At: now, Kind: EvDeliver,
		From: int32(l.From), To: int32(l.To),
		Session: int32(p.Session), Layer: int32(p.Layer),
		Seq: p.Seq, Aux: lat,
	})
}
