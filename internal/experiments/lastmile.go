package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topology"
)

// Last-mile study: the architecture is built on the premise that
// "bottlenecks lie deep in the tree" (Section II, the tiered Internet of
// Figure 2) and on subtree independence. This experiment places the SAME
// capacity constraint at different depths of a three-tier tree and
// measures how TopoSense copes:
//
//   - backbone (tier 1): every receiver shares the one bottleneck —
//     congestion is global, coordination happens at the root;
//   - regional (tier 2): half the receivers share it — one subtree
//     coordinates, the other must be untouched;
//   - last mile (tier 3): each constrained receiver has its own bottleneck
//     — the paper's canonical case.
type LastMileRow struct {
	Where     string
	Deviation float64
	// UnaffectedDev is the deviation of receivers NOT behind the
	// bottleneck — subtree independence says it must stay near zero.
	UnaffectedDev float64
	MaxChanges    int
}

// LastMileConfig parameterizes the depth study.
type LastMileConfig struct {
	Seed     int64
	Duration sim.Time // 0 = 600 s
	Traffic  Traffic  // zero = CBR
}

func (c *LastMileConfig) normalize() {
	d := ShortDefaults()
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.Tr(c.Traffic)
}

// LastMileSpecs builds, per depth, a binary three-tier tree with 4
// receivers and a single 224 Kbps (3-layer) constraint at the chosen tier,
// everything else fat. Receivers behind the constraint have optimum 3; the
// rest 6. One run per depth.
func LastMileSpecs(cfg LastMileConfig) []Spec {
	cfg.normalize()
	depths := []struct{ key, label string }{
		{"backbone", "backbone (tier 1)"},
		{"regional", "regional (tier 2)"},
		{"lastmile", "last mile (tier 3)"},
	}
	var specs []Spec
	for di, depth := range depths {
		specs = append(specs, NewSpec("lastmile",
			"lastmile/"+depth.key, cfg.Seed, cfg.Duration,
			func(m *Meter) (any, error) {
				return []LastMileRow{runLastMileDepth(cfg, di, depth.label, m)}, nil
			}))
	}
	return specs
}

// RunLastMile runs the depth study by executing its specs serially.
func RunLastMile(cfg LastMileConfig) []LastMileRow {
	return mustGather[LastMileRow](ExecuteAll(LastMileSpecs(cfg)))
}

func runLastMileDepth(cfg LastMileConfig, di int, where string, m *Meter) LastMileRow {
	e := sim.NewEngine(cfg.Seed)
	n := netsim.New(e)
	fat := netsim.LinkConfig{Bandwidth: topology.FatBandwidth, Delay: topology.DefaultDelay}
	narrow := netsim.LinkConfig{Bandwidth: 240e3, Delay: topology.DefaultDelay} // 3 layers (224k) + headroom

	pick := func(tier, index int) netsim.LinkConfig {
		// Constrain exactly one link of the chosen tier: the first
		// branch at that depth.
		if tier == di+1 && index == 0 {
			return narrow
		}
		return fat
	}

	src := n.AddNode("src")
	b := &topology.Build{Net: n, Sources: []*netsim.Node{src}, Controller: src,
		Receivers: [][]*netsim.Node{nil}, Optimal: [][]int{nil}}
	// Tier 1: one backbone node; tier 2: two regionals; tier 3: four
	// last-mile gateways, one receiver each.
	bb := n.AddNode("bb")
	n.Connect(src, bb, pick(1, 0))
	var behind []bool // per receiver: behind the narrow link?
	for r := 0; r < 2; r++ {
		reg := n.AddNode(fmt.Sprintf("reg%d", r))
		n.Connect(bb, reg, pick(2, r))
		for l := 0; l < 2; l++ {
			gwIdx := r*2 + l
			gw := n.AddNode(fmt.Sprintf("gw%d", gwIdx))
			n.Connect(reg, gw, pick(3, gwIdx))
			rx := n.AddNode(fmt.Sprintf("rx%d", gwIdx))
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			constrained := di == 0 || // backbone: everyone
				(di == 1 && r == 0) || // regional: first subtree
				(di == 2 && gwIdx == 0) // last mile: first gateway
			behind = append(behind, constrained)
			if constrained {
				b.Optimal[0] = append(b.Optimal[0], source.LevelForBandwidth(source.Rates(6), 240e3))
			} else {
				b.Optimal[0] = append(b.Optimal[0], 6)
			}
		}
	}

	w := NewWorld(e, b, WorldConfig{Seed: cfg.Seed, Traffic: cfg.Traffic})
	m.ObserveWorld(w)
	w.Run(cfg.Duration)
	traces, optima := w.AllTraces()
	var conTr, freeTr []*metrics.Trace
	var conOpt, freeOpt []int
	for i := range traces {
		if behind[i] {
			conTr = append(conTr, traces[i])
			conOpt = append(conOpt, optima[i])
		} else {
			freeTr = append(freeTr, traces[i])
			freeOpt = append(freeOpt, optima[i])
		}
	}
	row := LastMileRow{
		Where:      where,
		Deviation:  metrics.MeanRelativeDeviation(conTr, conOpt, 0, cfg.Duration),
		MaxChanges: metrics.MaxChanges(traces, 0, cfg.Duration),
	}
	if len(freeTr) > 0 {
		row.UnaffectedDev = metrics.MeanRelativeDeviation(freeTr, freeOpt, 0, cfg.Duration)
	}
	return row
}

// LastMileTable renders the depth study.
func LastMileTable(rows []LastMileRow) *Table {
	t := &Table{
		Title:  "Bottleneck depth: the same 3-layer constraint at each tier of a tiered tree",
		Header: []string{"bottleneck at", "constrained dev", "unaffected dev", "max changes"},
	}
	for _, r := range rows {
		un := fmt.Sprintf("%.3f", r.UnaffectedDev)
		if r.Where == "backbone (tier 1)" {
			un = "-" // everyone is constrained
		}
		t.AddRow(r.Where, fmt.Sprintf("%.3f", r.Deviation), un, fmt.Sprintf("%d", r.MaxChanges))
	}
	return t
}
