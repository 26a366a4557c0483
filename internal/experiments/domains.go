package experiments

import (
	"fmt"
	"math/rand"

	"toposense/internal/controller"
	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/receiver"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
)

// This file reproduces the paper's Figure 3 architecture: "multiple
// controller agents, each concerned with one particular administrative
// domain. Each domain and controller agent is unaware of the other
// controller agents' existence." The claim behind it is subtree
// independence — "disjoint subtrees on the multicast tree do not affect
// each other as long as their common ancestors have a high capacity" — so
// per-domain local control should match a single omniscient controller.

// DomainRow reports one control architecture's outcome.
type DomainRow struct {
	Variant    string // "global" or "per-domain"
	Domain     string // which domain the row describes
	Deviation  float64
	FinalOK    bool // all receivers within 1 layer of optimal at the end
	MaxChanges int
}

// DomainsConfig parameterizes the multi-domain experiment.
type DomainsConfig struct {
	Seed         int64
	Seeds        int      // runs averaged per variant; 0 = 3
	Duration     sim.Time // 0 = 600 s
	ReceiversPer int      // receivers per domain; 0 = 3
	Traffic      Traffic  // zero = CBR
}

func (c *DomainsConfig) normalize() {
	d := ShortDefaults()
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.Tr(c.Traffic)
	c.Seeds = d.SeedCount(c.Seeds)
	if c.ReceiversPer == 0 {
		c.ReceiversPer = 3
	}
}

// domainsWorld is the two-domain topology:
//
//	src ── bb ── gw1 ──(100 Kbps)── d1r ── domain-1 receivers
//	        └─── gw2 ──(500 Kbps)── d2r ── domain-2 receivers
type domainsWorld struct {
	engine      sim.Runner
	net         *netsim.Network
	domain      *mcast.Domain
	src         *netsim.Node
	gw          [2]*netsim.Node
	rxNodes     [2][]*netsim.Node
	scope       [2]map[netsim.NodeID]bool
	receivers   [2][]*receiver.Receiver
	traces      [2][]*metrics.Trace
	optimal     [2]int
	controllers []*controller.Controller
}

func buildDomainsWorld(cfg DomainsConfig) *domainsWorld {
	e := sim.NewEngine(cfg.Seed)
	n := netsim.New(e)
	w := &domainsWorld{engine: e, net: n}
	fat := netsim.LinkConfig{Bandwidth: 100e6, Delay: 200 * sim.Millisecond}
	w.src = n.AddNode("src")
	bb := n.AddNode("backbone")
	n.Connect(w.src, bb, fat)
	bandwidth := [2]float64{100e3, 500e3}
	for d := 0; d < 2; d++ {
		gw := n.AddNode(fmt.Sprintf("gw%d", d+1))
		n.Connect(bb, gw, fat)
		agg := n.AddNode(fmt.Sprintf("d%dr", d+1))
		n.Connect(gw, agg, netsim.LinkConfig{Bandwidth: bandwidth[d], Delay: 200 * sim.Millisecond})
		w.gw[d] = gw
		w.scope[d] = map[netsim.NodeID]bool{gw.ID: true, agg.ID: true}
		for i := 0; i < cfg.ReceiversPer; i++ {
			rx := n.AddNode(fmt.Sprintf("d%d-rx%d", d+1, i))
			n.Connect(agg, rx, fat)
			w.rxNodes[d] = append(w.rxNodes[d], rx)
			w.scope[d][rx.ID] = true
		}
		w.optimal[d] = source.LevelForBandwidth(source.Rates(6), bandwidth[d])
	}
	w.domain = mcast.NewDomain(n)
	return w
}

// wire attaches sources, controllers (global or per-domain) and receivers.
func (w *domainsWorld) wire(cfg DomainsConfig, perDomain bool) {
	src := source.New(w.net, w.domain, w.src, source.Config{Session: 0, PeakToMean: cfg.Traffic.PeakToMean})
	src.Start()

	newController := func(at *netsim.Node, scope map[netsim.NodeID]bool, seedOff int64) *controller.Controller {
		tool := topodisc.NewTool(w.net, w.domain, []int{0})
		tool.Scope = scope
		alg := core.New(core.NewConfig(source.Rates(6)), rand.New(rand.NewSource(cfg.Seed+seedOff)))
		ctrl := controller.New(w.net, w.domain, at, tool, alg)
		ctrl.Start()
		return ctrl
	}

	var ctrlFor [2]*netsim.Node
	if perDomain {
		// One agent per domain, stationed at the domain gateway, seeing
		// only its own subtree — unaware of the other domain.
		for d := 0; d < 2; d++ {
			w.controllers = append(w.controllers, newController(w.gw[d], w.scope[d], int64(d+1)))
			ctrlFor[d] = w.gw[d]
		}
	} else {
		// A single global controller at the source, seeing everything.
		w.controllers = append(w.controllers, newController(w.src, nil, 1))
		ctrlFor[0], ctrlFor[1] = w.src, w.src
	}

	for d := 0; d < 2; d++ {
		for _, node := range w.rxNodes[d] {
			rx := receiver.New(w.net, w.domain, node, receiver.Config{
				Session: 0, MaxLayers: 6, InitialLevel: 1, Controller: ctrlFor[d].ID,
			})
			tr := metrics.NewTrace(0, 0)
			rx.OnChange = func(c receiver.Change) { tr.Set(c.At, c.To) }
			rx.Start()
			w.receivers[d] = append(w.receivers[d], rx)
			w.traces[d] = append(w.traces[d], tr)
		}
	}
}

// DomainsSpecs enumerates both control architectures as one run per
// (variant, seed); each run reports its own per-domain DomainRows with that
// seed's deviation. ReduceDomains averages them back into the table the
// report prints.
func DomainsSpecs(cfg DomainsConfig) []Spec {
	cfg.normalize()
	var specs []Spec
	for _, perDomain := range []bool{false, true} {
		perDomain := perDomain
		variant := "global"
		if perDomain {
			variant = "per-domain"
		}
		for s := 0; s < cfg.Seeds; s++ {
			runCfg := cfg
			runCfg.Seed = cfg.Seed + int64(s)
			specs = append(specs, NewSpec("domains",
				fmt.Sprintf("domains/%s/seed=%d", variant, runCfg.Seed),
				runCfg.Seed, cfg.Duration,
				func(m *Meter) (any, error) {
					w := buildDomainsWorld(runCfg)
					w.wire(runCfg, perDomain)
					m.Observe(w.engine, w.net)
					w.domain.SetObs(m.Obs())
					for _, c := range w.controllers {
						c.SetObs(m.Obs())
					}
					w.engine.RunUntil(cfg.Duration)
					var rows []DomainRow
					for d := 0; d < 2; d++ {
						optima := make([]int, len(w.traces[d]))
						for i := range optima {
							optima[i] = w.optimal[d]
						}
						ok := true
						for _, rx := range w.receivers[d] {
							if diff := rx.Level() - w.optimal[d]; diff < -1 || diff > 1 {
								ok = false
							}
						}
						rows = append(rows, DomainRow{
							Variant:    variant,
							Domain:     fmt.Sprintf("domain %d (opt %d)", d+1, w.optimal[d]),
							Deviation:  metrics.MeanRelativeDeviation(w.traces[d], optima, 0, cfg.Duration),
							FinalOK:    ok,
							MaxChanges: metrics.MaxChanges(w.traces[d], 0, cfg.Duration),
						})
					}
					return rows, nil
				}))
		}
	}
	return specs
}

// ReduceDomains merges per-seed DomainRows into one row per
// (variant, domain): deviations averaged, change counts maxed, and FinalOK
// true only when every seed finished within one layer of optimal.
func ReduceDomains(perSeed []DomainRow) []DomainRow {
	type key struct{ variant, domain string }
	var order []key
	acc := map[key]*DomainRow{}
	count := map[key]int{}
	for _, r := range perSeed {
		k := key{r.Variant, r.Domain}
		a, seen := acc[k]
		if !seen {
			order = append(order, k)
			cp := r
			acc[k] = &cp
			count[k] = 1
			continue
		}
		a.Deviation += r.Deviation
		a.FinalOK = a.FinalOK && r.FinalOK
		if r.MaxChanges > a.MaxChanges {
			a.MaxChanges = r.MaxChanges
		}
		count[k]++
	}
	var rows []DomainRow
	for _, k := range order {
		a := acc[k]
		a.Deviation /= float64(count[k])
		rows = append(rows, *a)
	}
	return rows
}

// RunDomains runs both control architectures on the identical two-domain
// topology and reports per-domain quality. The paper's scalability claim
// holds if per-domain local controllers match the global one.
func RunDomains(cfg DomainsConfig) []DomainRow {
	return ReduceDomains(mustGather[DomainRow](ExecuteAll(DomainsSpecs(cfg))))
}

// DomainsTable renders the comparison.
func DomainsTable(rows []DomainRow) *Table {
	t := &Table{
		Title:  "Multi-domain control (paper Figure 3): independent per-domain agents vs one global agent",
		Header: []string{"variant", "domain", "rel deviation", "final within 1", "max changes"},
	}
	for _, r := range rows {
		t.AddRow(r.Variant, r.Domain, fmt.Sprintf("%.3f", r.Deviation), fmt.Sprintf("%v", r.FinalOK), fmt.Sprintf("%d", r.MaxChanges))
	}
	return t
}
