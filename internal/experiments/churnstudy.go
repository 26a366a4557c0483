package experiments

import (
	"fmt"

	"toposense/internal/churn"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/topology"
	"toposense/internal/trace"
)

// fig_churn: the full receiver leave lifecycle under Poisson join/leave
// churn. The study exercises the explicit departure path end to end —
// Depart() tears down every layer group, the Deregister control packet
// removes the controller's entry the moment it lands, and the multicast tree
// prunes behind the last member — sweeping the churn period around the
// decision interval on Topology B (TopoSense vs RLM) plus one large
// tree-ladder point at ~1% churn.

// churnSettleWindow is the tail window settled receivers are judged over:
// a settled receiver must track its optimum regardless of the churn around
// it. Runs shorter than twice the window are judged over their second half.
const churnSettleWindow = 30 * sim.Second

// ChurnStudyRow summarizes one (topology, algorithm, period) run.
type ChurnStudyRow struct {
	Topo    string
	Algo    string // "TopoSense" | "RLM"
	PeriodS float64
	Slots   int

	// Churn driver activity and the controller's lifecycle view.
	Joins, Leaves   int64
	Deregisters     int64 // Deregister packets the controller consumed
	FinalRegistered int   // registration-table size at the end of the run

	// Multicast tree maintenance rates over the run.
	GraftsPerSec, PrunesPerSec float64

	// Tree cost (total edges carrying any group) sampled through the run:
	// drift between the start and end thirds exposes leaked state — a
	// departed receiver whose branch never pruned.
	TreeCostMean, TreeCostStart, TreeCostEnd float64

	// Settled receivers (the ones that never churn) judged over the tail
	// window: mean relative deviation and how many converged (<= 0.25).
	SettledDev       float64
	SettledConverged int
	SettledTotal     int

	// Sharded records the execution model (true = sharded engine). The
	// worker count is deliberately NOT recorded: it is purely physical, and
	// any worker count must reproduce the same rows byte-identically.
	Sharded bool
}

// ChurnStudyConfig parameterizes the fig_churn sweep.
type ChurnStudyConfig struct {
	Seed     int64
	Duration sim.Time // 0 = 600 s
	Quick    bool
	Sessions int        // Topology B sessions; 0 = 4 (quick 2)
	Periods  []sim.Time // churn mean on/off periods; nil = sweep around the interval
	Shards   int        // engine for the TopoSense B arms (RLM is always serial)

	// TreeTopo is the tree-ladder point's generator spec and TreeDuration
	// its (shorter) run length; zero values take the defaults.
	TreeTopo     string
	TreeDuration sim.Time
}

func (c *ChurnStudyConfig) normalize() {
	d := ShortDefaults()
	c.Duration = d.Dur(c.Duration)
	if c.Sessions == 0 {
		c.Sessions = 4
		if c.Quick {
			c.Sessions = 2
		}
	}
	if c.Periods == nil {
		// The decision interval is 4 s: sweep churn faster than, at, and
		// well above it.
		c.Periods = []sim.Time{2 * sim.Second, 4 * sim.Second, 16 * sim.Second}
		if c.Quick {
			c.Periods = []sim.Time{4 * sim.Second}
		}
	}
	if c.TreeTopo == "" {
		c.TreeTopo = "tree,depth=4,branch=10,rxleaf=1"
		if c.Quick {
			c.TreeTopo = "tree,depth=3,branch=4,rxleaf=2"
		}
	}
	if c.TreeDuration == 0 {
		c.TreeDuration = 30 * sim.Second
		if c.Quick {
			c.TreeDuration = 12 * sim.Second
		}
	}
}

// churnSlotRef names one churning receiver: an index into Build.Receivers.
type churnSlotRef struct{ session, idx int }

// addChurnNodesB grows a Topology B build by one churn receiver per
// session, hung off Y over the same fat link as the session's settled
// receiver, and returns the slot references. Must run before the world is
// built (and so before any partitioning).
func addChurnNodesB(b *topology.Build) []churnSlotRef {
	var y *netsim.Node
	for _, n := range b.Net.Nodes() {
		if n.Name == "Y" {
			y = n
			break
		}
	}
	if y == nil {
		panic("fig_churn: Topology B build has no node Y")
	}
	fat := netsim.LinkConfig{
		Bandwidth:  topology.FatBandwidth,
		Delay:      topology.DefaultDelay,
		QueueLimit: topology.DefaultQueueLimit,
	}
	refs := make([]churnSlotRef, 0, len(b.Receivers))
	for s := range b.Receivers {
		node := b.Net.AddNode(fmt.Sprintf("churn%d", s))
		b.Net.Connect(y, node, fat)
		b.Receivers[s] = append(b.Receivers[s], node)
		// Same bottleneck as the settled receiver, same optimum.
		b.Optimal[s] = append(b.Optimal[s], b.Optimal[s][0])
		refs = append(refs, churnSlotRef{session: s, idx: len(b.Receivers[s]) - 1})
	}
	return refs
}

// churnTopoB is the Topology B arms' build: sessions competing sessions,
// each with one churn receiver added by addChurnNodesB.
func churnTopoB(sessions int) func(e sim.Runner) (*topology.Build, []churnSlotRef) {
	return func(e sim.Runner) (*topology.Build, []churnSlotRef) {
		b := topology.MustGenerate(e, &topology.BConfig{Sessions: sessions})
		return b, addChurnNodesB(b)
	}
}

// treeChurnSlots picks ~1% of a single-session build's receivers (at least
// one), evenly spaced, as churn slots.
func treeChurnSlots(b *topology.Build) []churnSlotRef {
	n := len(b.Receivers[0])
	slots := n / 100
	if slots < 1 {
		slots = 1
	}
	refs := make([]churnSlotRef, 0, slots)
	for i := 0; i < slots; i++ {
		refs = append(refs, churnSlotRef{session: 0, idx: i * n / slots})
	}
	return refs
}

// churnMetrics fills the post-run half of a row from the shared pieces of
// both worlds.
func churnMetrics(row *ChurnStudyRow, drv *churn.Driver, grafts, prunes int64,
	sp *trace.Sampler, traces [][]*metrics.Trace, optimal [][]int,
	refs []churnSlotRef, dur sim.Time) {
	row.Joins, row.Leaves = drv.Joins, drv.Leaves
	row.GraftsPerSec = float64(grafts) / dur.Seconds()
	row.PrunesPerSec = float64(prunes) / dur.Seconds()
	tc := sp.Series("tree_cost")
	row.TreeCostMean = tc.Mean()
	row.TreeCostStart = tc.Window(0, dur/3).Mean()
	row.TreeCostEnd = tc.Window(dur-dur/3, dur).Mean()

	churning := make(map[churnSlotRef]bool, len(refs))
	for _, r := range refs {
		churning[r] = true
	}
	from := dur - churnSettleWindow
	if from < dur/2 {
		from = dur / 2
	}
	for s := range traces {
		for i, tr := range traces[s] {
			if churning[churnSlotRef{session: s, idx: i}] {
				continue
			}
			dev := tr.RelativeDeviation(optimal[s][i], from, dur)
			row.SettledDev += dev
			row.SettledTotal++
			if dev <= 0.25 {
				row.SettledConverged++
			}
		}
	}
	if row.SettledTotal > 0 {
		row.SettledDev /= float64(row.SettledTotal)
	}
}

// runChurnTopoSense is one TopoSense arm: build the world, drive churn
// through the full departure lifecycle (Depart -> Deregister -> prune), and
// reduce. mkBuild must emit the build with churn nodes already in place.
// The world is returned for inspection after the run.
func runChurnTopoSense(topo string, seed int64, dur, period sim.Time, shards int,
	mkBuild func(e sim.Runner) (*topology.Build, []churnSlotRef), m *Meter) (ChurnStudyRow, *World) {
	e := NewRunEngine(seed, shards)
	b, refs := mkBuild(e)
	w := NewWorld(e, b, WorldConfig{Seed: seed})
	m.ObserveWorld(w)
	row := ChurnStudyRow{Topo: topo, Algo: "TopoSense", PeriodS: period.Seconds(),
		Slots: len(refs), Sharded: shards >= 1}
	for _, ref := range refs {
		w.ChurnSlot(ref.session, ref.idx, period)
	}

	sp := trace.NewSampler(e, 2*sim.Second)
	sp.Probe("tree_cost", func() float64 { return float64(w.Domain.TreeCost()) })
	sp.Start()
	w.Run(dur)
	sp.Stop()

	row.Deregisters = w.Controller.DeregistersRecv
	row.FinalRegistered = len(w.Controller.RegisteredReceivers())
	churnMetrics(&row, w.Churn, w.Domain.Grafts, w.Domain.Prunes, sp, w.Traces, w.Optimal, refs, dur)
	return row, w
}

// runChurnRLM is the receiver-driven arm: churn slots Stop (silent leave —
// RLM has no controller to notify) and restart as fresh rlm receivers.
// Always serial: NewRLMWorld does not partition.
func runChurnRLM(topo string, seed int64, dur, period sim.Time,
	mkBuild func(e sim.Runner) (*topology.Build, []churnSlotRef), m *Meter) ChurnStudyRow {
	e := sim.NewEngine(seed)
	b, refs := mkBuild(e)
	w := NewRLMWorld(e, b, WorldConfig{Seed: seed})
	m.Observe(e, b.Net)
	w.SetObs(m.Obs())
	row := ChurnStudyRow{Topo: topo, Algo: "RLM", PeriodS: period.Seconds(), Slots: len(refs)}
	for _, ref := range refs {
		w.ChurnSlot(ref.session, ref.idx, period)
	}

	sp := trace.NewSampler(e, 2*sim.Second)
	sp.Probe("tree_cost", func() float64 { return float64(w.Domain.TreeCost()) })
	sp.Start()
	w.Run(dur)
	sp.Stop()

	churnMetrics(&row, w.Churn, w.Domain.Grafts, w.Domain.Prunes, sp, w.Traces, w.Optimal, refs, dur)
	return row
}

// ChurnStudySpecs enumerates the fig_churn sweep: TopoSense-vs-RLM pairs on
// Topology B across the period sweep, plus one TopoSense tree-ladder point
// at ~1% churn.
func ChurnStudySpecs(cfg ChurnStudyConfig) []Spec {
	cfg.normalize()
	mkB := churnTopoB(cfg.Sessions)
	var specs []Spec
	for _, period := range cfg.Periods {
		period := period
		specs = append(specs, NewSpec("fig_churn",
			fmt.Sprintf("fig_churn/topo=B/period=%gs/TopoSense", period.Seconds()),
			cfg.Seed, cfg.Duration,
			func(m *Meter) (any, error) {
				row, _ := runChurnTopoSense("B", cfg.Seed, cfg.Duration, period, cfg.Shards, mkB, m)
				return []ChurnStudyRow{row}, nil
			}))
		specs = append(specs, NewSpec("fig_churn",
			fmt.Sprintf("fig_churn/topo=B/period=%gs/RLM", period.Seconds()),
			cfg.Seed, cfg.Duration,
			func(m *Meter) (any, error) {
				return []ChurnStudyRow{runChurnRLM("B", cfg.Seed, cfg.Duration, period, mkB, m)}, nil
			}))
	}
	treePeriod := 4 * sim.Second
	mkTree := func(e sim.Runner) (*topology.Build, []churnSlotRef) {
		_, tc, err := topology.Parse(cfg.TreeTopo)
		if err != nil {
			panic("fig_churn: " + err.Error())
		}
		b := topology.MustGenerate(e, tc)
		return b, treeChurnSlots(b)
	}
	specs = append(specs, NewSpec("fig_churn",
		fmt.Sprintf("fig_churn/topo=%s/period=%gs/TopoSense", cfg.TreeTopo, treePeriod.Seconds()),
		cfg.Seed, cfg.TreeDuration,
		func(m *Meter) (any, error) {
			row, _ := runChurnTopoSense(cfg.TreeTopo, cfg.Seed, cfg.TreeDuration, treePeriod, cfg.Shards, mkTree, m)
			return []ChurnStudyRow{row}, nil
		}))
	return specs
}

// ChurnStudyTable renders the sweep.
func ChurnStudyTable(rows []ChurnStudyRow) *Table {
	t := &Table{
		Title: "Membership churn: Poisson join/leave swept around the decision interval",
		Header: []string{"topology", "algorithm", "period", "slots", "joins/leaves",
			"dereg", "reg at end", "grafts+prunes/s", "tree cost start→end",
			"settled dev", "converged"},
	}
	for _, r := range rows {
		t.AddRow(
			r.Topo,
			r.Algo,
			fmt.Sprintf("%gs", r.PeriodS),
			fmt.Sprintf("%d", r.Slots),
			fmt.Sprintf("%d/%d", r.Joins, r.Leaves),
			fmt.Sprintf("%d", r.Deregisters),
			fmt.Sprintf("%d", r.FinalRegistered),
			fmt.Sprintf("%.2f", r.GraftsPerSec+r.PrunesPerSec),
			fmt.Sprintf("%.1f→%.1f (mean %.1f)", r.TreeCostStart, r.TreeCostEnd, r.TreeCostMean),
			fmt.Sprintf("%.3f", r.SettledDev),
			fmt.Sprintf("%d/%d", r.SettledConverged, r.SettledTotal),
		)
	}
	return t
}
