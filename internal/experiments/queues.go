package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// Queue-policy comparison: the paper cites router-based priority
// packet-dropping (Bajaj, Breslau, Shenker) as "effective, but may not be
// easy to deploy" and positions TopoSense as the deployable alternative.
// This experiment quantifies that trade: the same Topology B under
// drop-tail routers (the paper's setting), priority-dropping routers with
// no controller (the router-based approach alone), and both combined.

// QueueRow reports one configuration's outcome.
type QueueRow struct {
	Config    string
	Deviation float64
	// BaseLoss is the mean loss rate receivers saw on their base layer —
	// what priority dropping protects.
	MeanLoss   float64
	MaxChanges int
}

// QueueConfig parameterizes the queue-policy comparison.
type QueueConfig struct {
	Seed     int64
	Duration sim.Time // 0 = 600 s
	Sessions int      // 0 = 4
	Traffic  Traffic  // zero = VBR(P=3): burstiness is where policies differ
}

func (c *QueueConfig) normalize() {
	d := ShortDefaults()
	d.Traffic = VBR3
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.Tr(c.Traffic)
	if c.Sessions == 0 {
		c.Sessions = 4
	}
}

// QueuePolicySpecs compares drop-tail vs priority dropping, with and
// without the TopoSense controller — one run per configuration.
func QueuePolicySpecs(cfg QueueConfig) []Spec {
	cfg.normalize()
	type variant struct {
		key, name string
		policy    netsim.DropPolicy
		toposense bool
	}
	variants := []variant{
		{"droptail+toposense", "drop-tail + TopoSense (paper)", netsim.DropTail, true},
		{"priority+toposense", "priority + TopoSense", netsim.DropPriority, true},
		{"droptail+rlm", "drop-tail + RLM", netsim.DropTail, false},
		{"priority+rlm", "priority + RLM", netsim.DropPriority, false},
	}
	var specs []Spec
	for _, v := range variants {
		specs = append(specs, NewSpec("queues",
			"queues/"+v.key, cfg.Seed, cfg.Duration,
			func(m *Meter) (any, error) {
				e := sim.NewEngine(cfg.Seed)
				b := topology.MustGenerate(e, &topology.BConfig{Sessions: cfg.Sessions})
				for _, l := range b.Net.Links() {
					l.Policy = v.policy
				}
				wc := WorldConfig{Seed: cfg.Seed, Traffic: cfg.Traffic}
				var traces []*metrics.Trace
				var optima []int
				lossSum, lossN := 0.0, 0
				if v.toposense {
					w := NewWorld(e, b, wc)
					m.ObserveWorld(w)
					sim.Every(sim.GlobalOf(w.Engine), sim.Second, func() {
						for _, rxs := range w.Receivers {
							lossSum += rxs[0].LastLoss
							lossN++
						}
					})
					w.Run(cfg.Duration)
					traces, optima = w.AllTraces()
				} else {
					w := NewRLMWorld(e, b, wc)
					m.Observe(e, b.Net)
					w.SetObs(m.Obs())
					w.Run(cfg.Duration)
					traces, optima = w.AllTraces()
				}
				row := QueueRow{
					Config:     v.name,
					Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
					MaxChanges: metrics.MaxChanges(traces, 0, cfg.Duration),
				}
				if lossN > 0 {
					row.MeanLoss = lossSum / float64(lossN)
				}
				return []QueueRow{row}, nil
			}))
	}
	return specs
}

// RunQueuePolicies runs the comparison by executing its specs serially.
func RunQueuePolicies(cfg QueueConfig) []QueueRow {
	return mustGather[QueueRow](ExecuteAll(QueuePolicySpecs(cfg)))
}

// QueueTable renders the comparison.
func QueueTable(rows []QueueRow) *Table {
	t := &Table{
		Title:  "Queue policy: drop-tail vs router-based priority dropping (related work [16])",
		Header: []string{"configuration", "rel deviation", "mean loss", "max changes"},
	}
	for _, r := range rows {
		loss := fmt.Sprintf("%.4f", r.MeanLoss)
		if r.MeanLoss == 0 {
			loss = "-"
		}
		t.AddRow(r.Config, fmt.Sprintf("%.3f", r.Deviation), loss, fmt.Sprintf("%d", r.MaxChanges))
	}
	return t
}
