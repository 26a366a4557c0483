package experiments

import (
	"fmt"

	"toposense/internal/churn"
	"toposense/internal/mcast"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/rlm"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topology"
)

// RLMWorld is a simulation using uncoordinated receiver-driven (RLM-style)
// receivers instead of a TopoSense controller — the baseline class of
// approaches the paper contrasts with.
type RLMWorld struct {
	Engine    sim.Runner
	Build     *topology.Build
	Domain    *mcast.Domain
	Sources   []*source.Source
	Receivers [][]*rlm.Receiver // [session][i]; a churn slot's live incarnation, nil while departed
	Traces    [][]*metrics.Trace
	Optimal   [][]int

	// Churn drives membership churn; nil until ChurnSlot adds a slot.
	Churn *churn.Driver

	layers  int
	obs     *obs.Obs
	started bool
}

// NewRLMWorld assembles an RLM world on a built topology.
func NewRLMWorld(e sim.Runner, b *topology.Build, cfg WorldConfig) *RLMWorld {
	layers := cfg.Layers
	if layers == 0 {
		layers = source.DefaultLayers
	}
	d := mcast.NewDomain(b.Net)
	w := &RLMWorld{Engine: e, Build: b, Domain: d, Optimal: b.Optimal, layers: layers}
	for i, srcNode := range b.Sources {
		w.Sources = append(w.Sources, source.New(b.Net, d, srcNode, source.Config{
			Session: i, Layers: layers, PeakToMean: cfg.Traffic.PeakToMean,
		}))
	}
	for s := range b.Receivers {
		var rxs []*rlm.Receiver
		var trs []*metrics.Trace
		for _, node := range b.Receivers[s] {
			tr := metrics.NewTrace(0, 0)
			rxs = append(rxs, w.newReceiver(s, node, tr))
			trs = append(trs, tr)
		}
		w.Receivers = append(w.Receivers, rxs)
		w.Traces = append(w.Traces, trs)
	}
	return w
}

// newReceiver builds session s's receiver at node, recording its level
// changes into tr.
func (w *RLMWorld) newReceiver(s int, node *netsim.Node, tr *metrics.Trace) *rlm.Receiver {
	rx := rlm.New(w.Build.Net, w.Domain, node, rlm.Config{Session: s, MaxLayers: w.layers})
	rx.OnChange = func(c rlm.Change) { tr.Set(c.At, c.To) }
	return rx
}

// ChurnSlot makes receiver i of session s a Poisson membership slot of the
// world's churn driver (created on first use) with the given mean on/off
// period. A departure is Stop — RLM has no control plane to deregister
// from; a rejoin is a fresh receiver probing up from the base layer and
// feeding the same trace. Receivers[s][i] holds the live incarnation, nil
// while departed. Call before the run: registration draws from the
// run-wide RNG.
func (w *RLMWorld) ChurnSlot(s, i int, period sim.Time) {
	if w.Churn == nil {
		w.Churn = churn.New(w.Build.Net)
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
			w.Receivers[s][i].Stop()
			w.Receivers[s][i] = nil
		})
}

// SetObs wires an observability bundle into the multicast domain and the
// churn driver. A nil bundle is a no-op.
func (w *RLMWorld) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	w.obs = o
	w.Domain.SetObs(o)
	if w.Churn != nil {
		w.Churn.SetObs(o)
	}
}

// Run starts everything and advances to the given time.
func (w *RLMWorld) Run(until sim.Time) {
	if !w.started {
		w.started = true
		for _, s := range w.Sources {
			s.Start()
		}
		for _, rxs := range w.Receivers {
			for _, rx := range rxs {
				rx.Start()
			}
		}
	}
	w.Engine.RunUntil(until)
}

// AllTraces flattens traces with their optima.
func (w *RLMWorld) AllTraces() (traces []*metrics.Trace, optima []int) {
	for s := range w.Traces {
		traces = append(traces, w.Traces[s]...)
		optima = append(optima, w.Optimal[s]...)
	}
	return traces, optima
}

// BaselineRow compares TopoSense and RLM on the same scenario.
type BaselineRow struct {
	Scenario   string
	Algo       string // "TopoSense" | "RLM"
	Deviation  float64
	MaxChanges int
}

// BaselineConfig parameterizes the comparison.
type BaselineConfig struct {
	Seed     int64
	Duration sim.Time  // 0 = the paper's 1200 s
	Traffics []Traffic // nil = {CBR, VBR(P=3)}
	// Topology A set size and Topology B session count.
	PerSet   int // 0 = 4 (8 receivers)
	Sessions int // 0 = 4
}

func (c *BaselineConfig) normalize() {
	d := PaperDefaults()
	c.Duration = d.Dur(c.Duration)
	if c.Traffics == nil {
		c.Traffics = []Traffic{CBR, VBR3}
	}
	if c.PerSet == 0 {
		c.PerSet = 4
	}
	if c.Sessions == 0 {
		c.Sessions = 4
	}
}

// BaselineSpecs enumerates the TopoSense-vs-RLM comparison as independent
// runs, one per (topology, traffic, algorithm) combination. The shape the
// paper argues for: topology-aware coordination tracks the optimum at least
// as closely with fewer subscription changes, because receivers never probe
// a bottleneck another receiver already mapped.
func BaselineSpecs(cfg BaselineConfig) []Spec {
	cfg.normalize()
	var specs []Spec
	add := func(scenario string, tr Traffic, topoSense bool) {
		algo := "RLM"
		if topoSense {
			algo = "TopoSense"
		}
		scenarioName := fmt.Sprintf("Topology %s", scenario)
		if scenario == "A" {
			scenarioName += fmt.Sprintf(" (%d receivers)", 2*cfg.PerSet)
		} else {
			scenarioName += fmt.Sprintf(" (%d sessions)", cfg.Sessions)
		}
		scenarioName += ", " + tr.Name
		specs = append(specs, NewSpec("baseline",
			fmt.Sprintf("baseline/topo=%s/%s/%s", scenario, tr.Name, algo),
			cfg.Seed, cfg.Duration,
			func(m *Meter) (any, error) {
				e := sim.NewEngine(cfg.Seed)
				var b *topology.Build
				if scenario == "A" {
					b = topology.MustGenerate(e, &topology.AConfig{ReceiversPerSet: cfg.PerSet})
				} else {
					b = topology.MustGenerate(e, &topology.BConfig{Sessions: cfg.Sessions})
				}
				var traces []*metrics.Trace
				var optima []int
				wc := WorldConfig{Seed: cfg.Seed, Traffic: tr}
				if topoSense {
					w := NewWorld(e, b, wc)
					m.ObserveWorld(w)
					w.Run(cfg.Duration)
					traces, optima = w.AllTraces()
				} else {
					w := NewRLMWorld(e, b, wc)
					m.Observe(e, b.Net)
					w.SetObs(m.Obs())
					w.Run(cfg.Duration)
					traces, optima = w.AllTraces()
				}
				return []BaselineRow{{
					Scenario:   scenarioName,
					Algo:       algo,
					Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
					MaxChanges: metrics.MaxChanges(traces, 0, cfg.Duration),
				}}, nil
			}))
	}
	for _, scenario := range []string{"A", "B"} {
		for _, tr := range cfg.Traffics {
			add(scenario, tr, true)
			add(scenario, tr, false)
		}
	}
	return specs
}

// RunBaseline runs the comparison by executing its specs serially.
func RunBaseline(cfg BaselineConfig) []BaselineRow {
	return mustGather[BaselineRow](ExecuteAll(BaselineSpecs(cfg)))
}

// BaselineTable renders the comparison.
func BaselineTable(rows []BaselineRow) *Table {
	t := &Table{
		Title:  "Baseline comparison: TopoSense vs receiver-driven (RLM-style)",
		Header: []string{"scenario", "algorithm", "mean relative deviation", "max changes"},
	}
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Algo, fmt.Sprintf("%.3f", r.Deviation), fmt.Sprintf("%d", r.MaxChanges))
	}
	return t
}
