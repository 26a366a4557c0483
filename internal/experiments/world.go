// Package experiments contains the benchmark harness that regenerates every
// figure of the paper's evaluation (Section IV): stability on Topologies A
// and B (Figures 6 and 7), inter-session fairness (Figure 8), the
// subscription/loss trace with four competing sessions (Figure 9), the
// impact of stale topology information (Figure 10), and an RLM-baseline
// comparison. Each runner assembles a full simulated world — network,
// multicast domain, layered sources, receivers, topology-discovery tool and
// controller — runs it for the configured duration, and reduces receiver
// traces to the numbers the paper plots.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"toposense/internal/churn"
	"toposense/internal/controller"
	"toposense/internal/core"
	"toposense/internal/federation"
	"toposense/internal/mcast"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/receiver"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
	"toposense/internal/topology"
)

// Traffic names a source model used across the experiments.
type Traffic struct {
	Name       string
	PeakToMean float64 // 0 or 1 = CBR
}

// The paper's three traffic models.
var (
	CBR  = Traffic{Name: "CBR", PeakToMean: 0}
	VBR3 = Traffic{Name: "VBR(P=3)", PeakToMean: 3}
	VBR6 = Traffic{Name: "VBR(P=6)", PeakToMean: 6}
)

// AllTraffic is the sweep used by Figures 6-8.
var AllTraffic = []Traffic{CBR, VBR3, VBR6}

// Duration of every paper run.
const PaperDuration = 1200 * sim.Second

// World is an assembled TopoSense simulation on one of three control
// planes (WorldConfig.Plane). Flat, the default: one controller at
// Build.Controller sees every receiver. PerDomain: one scoped controller per
// receiver-bearing topology domain, each seeing only its own subtree and
// unaware of the others — the paper's Figure 3 per-domain agents; every
// receiver registers with its own domain's controller. Federated: the
// PerDomain controllers become federation leaves under a parent at
// Build.Controller that reconciles per-domain session budgets. Sources, the
// multicast domain, receivers, traces and the run lifecycle are the same on
// every plane.
type World struct {
	Engine    sim.Runner
	Net       *netsim.Network
	Domain    *mcast.Domain
	Build     *topology.Build
	Sources   []*source.Source
	Receivers [][]*receiver.Receiver // [session][i]; a churn slot's live incarnation, nil while departed
	// Controllers lists every controller receivers register with: the flat
	// controller alone, or each domain's scoped controller in domain order.
	Controllers []*controller.Controller
	Controller  *controller.Controller // the flat controller; nil on the scoped planes
	Aggregator  *mcast.Aggregator      // non-nil when WorldConfig.Aggregate is set
	Tool        *topodisc.Tool         // the flat controller's discovery tool; nil on the scoped planes
	Traces      [][]*metrics.Trace     // parallel to Receivers
	Optimal     [][]int                // parallel to Receivers

	// The federation parent and its leaves; nil unless Federated.
	Parent *federation.Parent
	Leaves []*federation.Leaf // sorted by domain id
	// ScopeFor maps each controlled domain label to its node set; nil when
	// flat.
	ScopeFor map[int]map[netsim.NodeID]bool

	// Churn drives membership churn; nil until ChurnSlot adds a slot.
	Churn *churn.Driver

	layers  int
	leafAt  map[int]netsim.NodeID // scoped planes: domain label -> its controller's node
	obs     *obs.Obs
	started bool
}

// Plane selects a world's control plane; see World.
type Plane int

// The control planes.
const (
	Flat Plane = iota
	PerDomain
	Federated
)

// WorldConfig carries the knobs shared by all experiments.
type WorldConfig struct {
	Seed      int64
	Traffic   Traffic
	Staleness sim.Time
	Layers    int // 0 = source.DefaultLayers
	// Rates overrides the default doubling layer rates (granularity
	// extension experiments); determines the layer count when set.
	Rates []float64
	// LeaveLatency overrides the multicast group-leave latency; 0 keeps
	// mcast.DefaultLeaveLatency.
	LeaveLatency sim.Time
	// ProbeDiscovery switches topology discovery to the mtrace-style
	// hop-by-hop probe mode instead of the instantaneous oracle.
	ProbeDiscovery bool
	// Aggregate installs the in-network feedback aggregation layer: tree
	// nodes fold upward loss reports into per-subtree report.Aggregates and
	// the controller fans suggestions out as batched per-next-hop packets.
	// Off (the default) the control plane is byte-identical to the flat
	// report path.
	Aggregate bool
	// Plane selects the control plane; the zero value is Flat. The scoped
	// planes need a domain-labelled build; see Validate.
	Plane Plane
	// Algorithm overrides; zero values take core defaults.
	Alg core.Config
}

// Validate reports why c cannot build a world on b. Only the scoped planes
// have preconditions: the build must carry domain labels (the tiered,
// tree, star and linear generators emit them), and Aggregate is rejected —
// the in-network aggregation layer serves exactly one flat controller node.
func (c WorldConfig) Validate(b *topology.Build) error {
	if c.Plane == Flat {
		return nil
	}
	plane := "federation"
	if c.Plane == PerDomain {
		plane = "per-domain"
	}
	if b.Domains == nil {
		return fmt.Errorf("%s: topology family emits no domain labels; use tiered/tree/star/linear", plane)
	}
	if c.Aggregate {
		return fmt.Errorf("%s: -aggregate serves a single flat controller; drop one of the two flags", plane)
	}
	return nil
}

// NewWorld assembles a world on a built topology. One source per session is
// placed at Build.Sources[i], the flat controller (or the federation
// parent) at Build.Controller, the scoped controllers at their domains, and
// one receiver per entry of Build.Receivers. It panics with Validate's
// message on an invalid config.
//
// When e is a ShardedEngine the network is partitioned across e's shards
// before any component is wired, so every subsequently created timer lands
// on its owning shard. Builds without generator-emitted domain labels
// (Topology A/B, mesh) fall back to the min-cut heuristic; if that finds
// no usable cut either, the sharded engine degenerates to one partition —
// same results, no parallelism.
func NewWorld(e sim.Runner, b *topology.Build, cfg WorldConfig) *World {
	if err := cfg.Validate(b); err != nil {
		panic(err.Error())
	}
	if se, ok := e.(*sim.ShardedEngine); ok {
		doms := b.Domains
		if doms == nil {
			doms = b.FallbackDomains()
		}
		b.Net.Partition(se, doms)
	}
	layers := cfg.Layers
	if len(cfg.Rates) > 0 {
		layers = len(cfg.Rates)
	} else if layers == 0 {
		layers = source.DefaultLayers
	}
	d := mcast.NewDomain(b.Net)
	if cfg.LeaveLatency != 0 {
		d.LeaveLatency = cfg.LeaveLatency
	}

	w := &World{Engine: e, Net: b.Net, Domain: d, Build: b, Optimal: b.Optimal, layers: layers}
	sessions := make([]int, len(b.Sources))
	for i, srcNode := range b.Sources {
		sessions[i] = i
		w.Sources = append(w.Sources, source.New(b.Net, d, srcNode, source.Config{
			Session:    i,
			Layers:     layers,
			PeakToMean: cfg.Traffic.PeakToMean,
			Rates:      cfg.Rates,
		}))
	}

	algCfg := cfg.Alg
	if algCfg.LayerRates == nil {
		if len(cfg.Rates) > 0 {
			algCfg.LayerRates = append([]float64(nil), cfg.Rates...)
		} else {
			algCfg.LayerRates = source.Rates(layers)
		}
	}
	algCfg.Normalize()
	if cfg.Plane != Flat {
		w.federate(cfg, algCfg, sessions)
	} else {
		w.Controller, w.Tool = w.addController(b.Controller, nil, cfg.Seed+1, cfg, algCfg, sessions)
	}

	for s := range b.Receivers {
		var rxs []*receiver.Receiver
		var trs []*metrics.Trace
		for _, node := range b.Receivers[s] {
			tr := metrics.NewTrace(0, 0)
			rxs = append(rxs, w.newReceiver(s, node, tr))
			trs = append(trs, tr)
		}
		w.Receivers = append(w.Receivers, rxs)
		w.Traces = append(w.Traces, trs)
	}
	if cfg.Aggregate {
		// Installed after the receivers so each node's delivery order is
		// receiver-then-aggregator; the aggregator's deferred batch release
		// makes either order safe.
		w.Aggregator = mcast.NewAggregator(b.Net, b.Controller.ID, 0)
		w.Controller.EnableAggregation()
	}
	return w
}

// addController wires one controller at node with its own discovery tool
// (limited to scope; nil sees the whole network) and an algorithm instance
// on RNG stream seed, and appends it to Controllers.
func (w *World) addController(at *netsim.Node, scope map[netsim.NodeID]bool, seed int64,
	cfg WorldConfig, algCfg core.Config, sessions []int) (*controller.Controller, *topodisc.Tool) {
	tool := topodisc.NewTool(w.Net, w.Domain, sessions)
	tool.Scope = scope
	tool.Staleness = cfg.Staleness
	tool.ProbeMode = cfg.ProbeDiscovery
	alg := core.New(algCfg, rand.New(rand.NewSource(seed)))
	ctrl := controller.New(w.Net, w.Domain, at, tool, alg)
	// The paper's staleness experiments age both halves of the
	// controller's input: the discovered topology and the loss reports.
	ctrl.Staleness = cfg.Staleness
	w.Controllers = append(w.Controllers, ctrl)
	return ctrl, tool
}

// federate builds the scoped control planes: a controller for every domain
// containing receivers, in domain order, at the domain's top node — the
// lowest node id carrying the label, which is its ingress since builds emit
// parents before children. Federated adds the parent at Build.Controller
// and wraps each controller in a federation leaf.
func (w *World) federate(cfg WorldConfig, algCfg core.Config, sessions []int) {
	b := w.Build
	// Domain geography: node sets per label, and which domains hold
	// receivers (only those need a controller).
	w.ScopeFor = make(map[int]map[netsim.NodeID]bool)
	w.leafAt = make(map[int]netsim.NodeID)
	for id, dom := range b.Domains {
		nid := netsim.NodeID(id)
		if w.ScopeFor[dom] == nil {
			w.ScopeFor[dom] = make(map[netsim.NodeID]bool)
			w.leafAt[dom] = nid
		}
		w.ScopeFor[dom][nid] = true
		if nid < w.leafAt[dom] {
			w.leafAt[dom] = nid
		}
	}
	needLeaf := make(map[int]bool)
	for s := range b.Receivers {
		for _, node := range b.Receivers[s] {
			needLeaf[b.Domains[node.ID]] = true
		}
	}
	// Domain 0 holds the backbone and Build.Controller; any receivers there
	// are controlled by a controller co-resident with it, scoped to label 0.
	w.leafAt[0] = b.Controller.ID
	doms := make([]int, 0, len(needLeaf))
	for dom := range w.ScopeFor {
		if needLeaf[dom] {
			doms = append(doms, dom)
		} else {
			delete(w.ScopeFor, dom)
		}
	}
	sort.Ints(doms)

	if cfg.Plane == Federated {
		w.Parent = federation.NewParent(b.Net, b.Controller, algCfg.LayerRates, algCfg.Interval)
	}
	for _, dom := range doms {
		// Distinct RNG stream per domain, derived from the run seed the
		// same way the flat controller's is.
		ctrl, _ := w.addController(b.Net.Node(w.leafAt[dom]), w.ScopeFor[dom], cfg.Seed+1+int64(dom), cfg, algCfg, sessions)
		if w.Parent == nil {
			continue
		}
		w.Leaves = append(w.Leaves, federation.NewLeaf(ctrl, dom, b.Controller.ID))
		w.Parent.AddDomain(federation.DomainConfig{
			Domain:          dom,
			Leaf:            w.leafAt[dom],
			BorderBandwidth: borderBandwidth(b, dom),
		})
	}
}

// borderBandwidth returns the tightest link capacity crossing from outside
// into domain dom — the border the parent budgets against. 0 (uncapped)
// when the domain has no inbound border link (domain 0, the backbone).
func borderBandwidth(b *topology.Build, dom int) float64 {
	if dom == 0 {
		return 0
	}
	best := 0.0
	for _, l := range b.Net.Links() {
		if b.Domains[l.To] == dom && b.Domains[l.From] != dom {
			if best == 0 || l.Bandwidth < best {
				best = l.Bandwidth
			}
		}
	}
	return best
}

// newReceiver builds session s's receiver at node, registered with the
// controller serving node and recording its level changes into tr.
func (w *World) newReceiver(s int, node *netsim.Node, tr *metrics.Trace) *receiver.Receiver {
	ctrl := w.Build.Controller.ID
	if w.leafAt != nil {
		ctrl = w.leafAt[w.Build.Domains[node.ID]]
	}
	rx := receiver.New(w.Net, w.Domain, node, receiver.Config{
		Session:      s,
		MaxLayers:    w.layers,
		InitialLevel: 1,
		Controller:   ctrl,
	})
	rx.OnChange = func(c receiver.Change) { tr.Set(c.At, c.To) }
	return rx
}

// ChurnSlot makes receiver i of session s a Poisson membership slot of the
// world's churn driver (created on first use) with the given mean on/off
// period. A departure is the full lifecycle — Depart leaves every layer
// group and deregisters with the controller; a rejoin is a fresh
// incarnation that registers from scratch with the same controller and
// feeds the same trace. Receivers[s][i] holds the live incarnation, nil
// while departed. Call before the run: registration draws from the
// run-wide RNG.
func (w *World) ChurnSlot(s, i int, period sim.Time) {
	if w.Churn == nil {
		w.Churn = churn.New(w.Net)
		w.Churn.SetObs(w.obs)
	}
	node, tr := w.Build.Receivers[s][i], w.Traces[s][i]
	w.Churn.Slot(0, period, period,
		func() {
			rx := w.newReceiver(s, node, tr)
			rx.Start()
			w.Receivers[s][i] = rx
		},
		func() {
			w.Receivers[s][i].Depart()
			w.Receivers[s][i] = nil
		})
}

// SetObs wires an observability bundle into the world's control plane: the
// multicast domain's tree events, every controller's pass audit, the
// aggregation layer, the federation parent and the churn driver. The packet
// probe and engine registration are Meter.Observe's job. A nil bundle is a
// no-op — the world then runs the exact pre-obs hot path.
func (w *World) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	w.obs = o
	w.Domain.SetObs(o)
	for _, c := range w.Controllers {
		c.SetObs(o)
	}
	w.Aggregator.SetObs(o)
	if w.Parent != nil {
		w.Parent.SetObs(o)
	}
	if w.Churn != nil {
		w.Churn.SetObs(o)
	}
}

// Start launches sources, controllers, the federation parent and
// receivers.
func (w *World) Start() {
	if w.started {
		return
	}
	w.started = true
	for _, s := range w.Sources {
		s.Start()
	}
	for _, c := range w.Controllers {
		c.Start()
	}
	if w.Parent != nil {
		w.Parent.Start()
	}
	for _, rxs := range w.Receivers {
		for _, rx := range rxs {
			rx.Start()
		}
	}
}

// Shutdown stops every component and drains the aggregation layer's pooled
// payloads back to their pools. After Shutdown the world holds no pooled
// Aggregate or SuggestionBatch — in a drop-free run the process-wide
// report.AggregatesLive/BatchesLive counters return to their pre-world
// values, which is exactly what the pool-balance regression test asserts.
func (w *World) Shutdown() {
	for _, s := range w.Sources {
		s.Stop()
	}
	for _, c := range w.Controllers {
		c.Stop()
	}
	if w.Parent != nil {
		w.Parent.Stop()
	}
	for _, rxs := range w.Receivers {
		for _, rx := range rxs {
			if rx != nil {
				rx.Stop()
			}
		}
	}
	w.Aggregator.Stop()
}

// Run starts the world (if needed) and advances to the given time.
func (w *World) Run(until sim.Time) {
	w.Start()
	w.Engine.RunUntil(until)
}

// AllTraces flattens traces with their optima, session-major.
func (w *World) AllTraces() (traces []*metrics.Trace, optima []int) {
	for s := range w.Traces {
		traces = append(traces, w.Traces[s]...)
		optima = append(optima, w.Optimal[s]...)
	}
	return traces, optima
}

// NewRunEngine builds the engine a run executes on. shards <= 0 is the
// default single-threaded engine. shards >= 1 selects the sharded
// execution model with that many workers — the worker count is purely
// physical: the logical partitioning comes from the topology's domain
// labels, so any two worker counts (including 1) produce byte-identical
// results. Against the single-threaded engine the sharded model executes
// the same events with the same clocks and RNG stream; the one defined
// difference is the serialization of same-timestamp events that meet at a
// partition boundary (partition order instead of schedule-call order), so
// the two engines are separate golden lineages rather than bit-equal.
func NewRunEngine(seed int64, shards int) sim.Runner {
	if shards >= 1 {
		return sim.NewShardedEngine(seed, shards)
	}
	return sim.NewEngine(seed)
}

// NewWorldA builds the paper's Topology A world on the single-threaded
// engine.
func NewWorldA(receiversPerSet int, cfg WorldConfig) *World {
	e := sim.NewEngine(cfg.Seed)
	b := topology.MustGenerate(e, &topology.AConfig{ReceiversPerSet: receiversPerSet})
	return NewWorld(e, b, cfg)
}

// NewWorldB builds the paper's Topology B world with the given number of
// competing sessions on the single-threaded engine.
func NewWorldB(sessions int, cfg WorldConfig) *World {
	e := sim.NewEngine(cfg.Seed)
	b := topology.MustGenerate(e, &topology.BConfig{Sessions: sessions})
	return NewWorld(e, b, cfg)
}

// buildTestB is a tiny helper for tests that need a raw Build.
func buildTestB(e *sim.Engine, sessions int) *topology.Build {
	return topology.MustGenerate(e, &topology.BConfig{Sessions: sessions})
}
