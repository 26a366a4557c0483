package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// StabilityRow is one point of Figure 6 or 7: for a receiver/session count
// and traffic model, the maximum number of subscription changes by any
// receiver over the run and the mean time between successive changes for
// that receiver.
type StabilityRow struct {
	X           int    // receivers in the session (Fig 6) or sessions (Fig 7)
	Traffic     string // CBR / VBR(P=3) / VBR(P=6)
	MaxChanges  int
	MeanBetween sim.Time
}

// Fig6Config parameterizes the Topology A stability experiment.
type Fig6Config struct {
	Seed     int64
	Duration sim.Time  // 0 = the paper's 1200 s
	PerSet   []int     // receivers per set; nil = {1, 2, 4, 8}
	Traffic  []Traffic // nil = AllTraffic
	Shards   int       // engine worker count; 0 = single-threaded engine (see NewRunEngine)
}

func (c *Fig6Config) normalize() {
	d := PaperDefaults()
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.TrafficSweep(c.Traffic)
	if c.PerSet == nil {
		c.PerSet = []int{1, 2, 4, 8}
	}
}

// Fig6Specs enumerates Figure 6 ("Stability in Topology A") as independent
// runs, one per (receiver-set size, traffic model) point; each run yields
// one StabilityRow for the busiest receiver.
func Fig6Specs(cfg Fig6Config) []Spec {
	cfg.normalize()
	var specs []Spec
	for _, per := range cfg.PerSet {
		for _, tr := range cfg.Traffic {
			specs = append(specs, NewSpec("6",
				fmt.Sprintf("fig6/rx=%d/%s", 2*per, tr.Name),
				cfg.Seed, cfg.Duration,
				func(m *Meter) (any, error) {
					e := NewRunEngine(cfg.Seed, cfg.Shards)
					b := topology.MustGenerate(e, &topology.AConfig{ReceiversPerSet: per})
					w := NewWorld(e, b, WorldConfig{Seed: cfg.Seed, Traffic: tr})
					m.ObserveWorld(w)
					w.Run(cfg.Duration)
					traces, _ := w.AllTraces()
					return []StabilityRow{{
						X:           2 * per, // total receivers in the session
						Traffic:     tr.Name,
						MaxChanges:  metrics.MaxChanges(traces, 0, cfg.Duration),
						MeanBetween: metrics.MeanTimeBetweenChangesOfBusiest(traces, 0, cfg.Duration),
					}}, nil
				}))
		}
	}
	return specs
}

// RunFig6 reproduces Figure 6 by executing its specs serially.
func RunFig6(cfg Fig6Config) []StabilityRow {
	return mustGather[StabilityRow](ExecuteAll(Fig6Specs(cfg)))
}

// StabilityTable renders stability rows as the two panels the paper plots.
func StabilityTable(title, xLabel string, rows []StabilityRow) *Table {
	t := &Table{
		Title:  title,
		Header: []string{xLabel, "traffic", "max changes", "mean time between changes (s)"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.X),
			r.Traffic,
			fmt.Sprintf("%d", r.MaxChanges),
			fmt.Sprintf("%.1f", r.MeanBetween.Seconds()),
		)
	}
	return t
}
