package experiments

import (
	"fmt"

	"toposense/internal/core"
	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topology"
)

// This file implements the "challenges" of the paper's Section V as
// measurable experiments — the future-work knobs the authors discuss in
// prose:
//
//   - layer granularity ("A possible remedy ... is to have finer
//     granularity in bandwidth requirements of layers ... However, a very
//     large number of layers can delay convergence");
//   - group-leave latency ("Leaving a troublesome group may not
//     immediately alleviate congestion");
//   - decision-interval size ("Choosing the optimal interval size is thus
//     crucial").

// ExtensionRow is one point of an extension sweep.
type ExtensionRow struct {
	Param      string // human-readable parameter value
	Deviation  float64
	MaxChanges int
	// TimeToOptimal is when the receiver first reached the optimal level,
	// measuring the convergence cost Section V predicts for many layers.
	TimeToOptimal sim.Time
}

// ExtensionConfig parameterizes the Section V sweeps.
type ExtensionConfig struct {
	Seed     int64
	Seeds    int      // runs averaged per point; 0 = 3
	Duration sim.Time // 0 = 600 s (each sweep runs several worlds)
	Traffic  Traffic  // zero = CBR (isolates the swept parameter)
}

func (c *ExtensionConfig) normalize() {
	d := ShortDefaults()
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.Tr(c.Traffic)
	c.Seeds = d.SeedCount(c.Seeds)
}

// reduceExtension folds per-seed rows into one averaged row per parameter.
// Rows for the same parameter are consecutive (spec enumeration order), so
// a linear grouping pass suffices and keeps the sweep order.
func reduceExtension(perSeed []ExtensionRow) []ExtensionRow {
	var rows []ExtensionRow
	for i := 0; i < len(perSeed); {
		j := i
		for j < len(perSeed) && perSeed[j].Param == perSeed[i].Param {
			j++
		}
		rows = append(rows, average(perSeed[i:j]))
		i = j
	}
	return rows
}

// average folds per-seed rows for the same parameter into one row.
func average(rows []ExtensionRow) ExtensionRow {
	out := rows[0]
	if len(rows) == 1 {
		return out
	}
	var dev, tto float64
	maxChg := 0
	for _, r := range rows {
		dev += r.Deviation
		tto += r.TimeToOptimal.Seconds()
		if r.MaxChanges > maxChg {
			maxChg = r.MaxChanges
		}
	}
	out.Deviation = dev / float64(len(rows))
	out.TimeToOptimal = sim.FromSeconds(tto / float64(len(rows)))
	out.MaxChanges = maxChg
	return out
}

// granularity describes one layering scheme of roughly equal total span.
type granularity struct {
	name   string
	rates  []float64
	bottle float64 // bottleneck sized so the optimum is mid-range
}

// GranularitySpecs sweeps layer granularity on a single-receiver bottleneck
// chain, one run per (scheme, seed): the paper's 6 doubling layers versus
// finer geometric layerings covering a similar range. Finer layers bound
// the over-subscription overshoot (each add risks less bandwidth) at the
// price of slower convergence (adds happen one layer at a time).
func GranularitySpecs(cfg ExtensionConfig) []Spec {
	cfg.normalize()
	schemes := []granularity{
		{name: "6 layers x2.0 (paper)", rates: source.RatesGeometric(6, 32e3, 2), bottle: 500e3},
		{name: "9 layers x1.5", rates: source.RatesGeometric(9, 32e3, 1.5), bottle: 500e3},
		{name: "12 layers x1.35", rates: source.RatesGeometric(12, 24e3, 1.35), bottle: 500e3},
	}
	var specs []Spec
	for _, g := range schemes {
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.Seed + int64(s)
			specs = append(specs, NewSpec("extensions",
				fmt.Sprintf("extensions/granularity/%d-layers/seed=%d", len(g.rates), seed),
				seed, cfg.Duration,
				func(m *Meter) (any, error) {
					e := sim.NewEngine(seed)
					b := topology.MustGenerate(e, &topology.AConfig{
						ReceiversPerSet: 2,
						Set1Bandwidth:   g.bottle,
						Set2Bandwidth:   g.bottle,
						Layers:          len(g.rates),
					})
					w := NewWorld(e, b, WorldConfig{Seed: seed, Traffic: cfg.Traffic, Rates: g.rates})
					m.ObserveWorld(w)
					optimal := source.LevelForBandwidth(g.rates, g.bottle)
					w.Run(cfg.Duration)
					traces, _ := w.AllTraces()
					optima := make([]int, len(traces))
					for i := range optima {
						optima[i] = optimal
					}
					return []ExtensionRow{{
						Param:         g.name,
						Deviation:     metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
						MaxChanges:    metrics.MaxChanges(traces, 0, cfg.Duration),
						TimeToOptimal: firstTimeAt(traces[0], optimal, cfg.Duration),
					}}, nil
				}))
		}
	}
	return specs
}

// RunGranularity runs the granularity sweep serially and averages seeds.
func RunGranularity(cfg ExtensionConfig) []ExtensionRow {
	return reduceExtension(mustGather[ExtensionRow](ExecuteAll(GranularitySpecs(cfg))))
}

// LeaveLatencySpecs sweeps the multicast group-leave latency on Topology B,
// one run per (latency, seed): the longer pruning takes, the longer a
// dropped layer keeps congesting the bottleneck after the decision, and the
// worse the post-drop transients. LeaveLatency ~0 models the "expedited
// group-leaves" the paper proposes. The sweep always runs VBR traffic:
// under CBR the system converges and rarely drops layers, so there is
// nothing for the prune latency to act on.
func LeaveLatencySpecs(cfg ExtensionConfig) []Spec {
	cfg.normalize()
	traffic := cfg.Traffic
	if traffic.PeakToMean <= 1 {
		traffic = VBR3
	}
	var specs []Spec
	for _, ll := range []sim.Time{1, 500 * sim.Millisecond, sim.Second, 2 * sim.Second, 4 * sim.Second} {
		name := ll.String()
		if ll == 1 {
			name = "~0 (expedited)"
		}
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.Seed + int64(s)
			specs = append(specs, NewSpec("extensions",
				fmt.Sprintf("extensions/leave/%s/seed=%d", name, seed),
				seed, cfg.Duration,
				func(m *Meter) (any, error) {
					w := worldBWithOverrides(seed, WorldConfig{Seed: seed, Traffic: traffic, LeaveLatency: ll}, m)
					w.Run(cfg.Duration)
					traces, optima := w.AllTraces()
					return []ExtensionRow{{
						Param:         name,
						Deviation:     metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
						MaxChanges:    metrics.MaxChanges(traces, 0, cfg.Duration),
						TimeToOptimal: firstTimeAt(traces[0], optima[0], cfg.Duration),
					}}, nil
				}))
		}
	}
	return specs
}

// RunLeaveLatency runs the leave-latency sweep serially and averages seeds.
func RunLeaveLatency(cfg ExtensionConfig) []ExtensionRow {
	return reduceExtension(mustGather[ExtensionRow](ExecuteAll(LeaveLatencySpecs(cfg))))
}

// IntervalSizeSpecs sweeps the controller's decision interval, one run per
// (interval, seed): short intervals react fast but see bursty noise and
// drain transients; long intervals smooth the noise but react slowly — the
// trade-off of the paper's final Section V bullet.
func IntervalSizeSpecs(cfg ExtensionConfig) []Spec {
	cfg.normalize()
	var specs []Spec
	for _, iv := range []sim.Time{2 * sim.Second, 4 * sim.Second, 8 * sim.Second, 16 * sim.Second} {
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.Seed + int64(s)
			specs = append(specs, NewSpec("extensions",
				fmt.Sprintf("extensions/interval/%s/seed=%d", iv, seed),
				seed, cfg.Duration,
				func(m *Meter) (any, error) {
					w := worldBWithOverrides(seed, WorldConfig{
						Seed:    seed,
						Traffic: cfg.Traffic,
						Alg:     core.Config{Interval: iv},
					}, m)
					w.Run(cfg.Duration)
					traces, optima := w.AllTraces()
					return []ExtensionRow{{
						Param:         iv.String(),
						Deviation:     metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
						MaxChanges:    metrics.MaxChanges(traces, 0, cfg.Duration),
						TimeToOptimal: firstTimeAt(traces[0], optima[0], cfg.Duration),
					}}, nil
				}))
		}
	}
	return specs
}

// RunIntervalSize runs the interval sweep serially and averages seeds.
func RunIntervalSize(cfg ExtensionConfig) []ExtensionRow {
	return reduceExtension(mustGather[ExtensionRow](ExecuteAll(IntervalSizeSpecs(cfg))))
}

func worldBWithOverrides(seed int64, wc WorldConfig, m *Meter) *World {
	e := sim.NewEngine(seed)
	b := topology.MustGenerate(e, &topology.BConfig{Sessions: 4})
	w := NewWorld(e, b, wc)
	m.ObserveWorld(w)
	return w
}

// firstTimeAt returns the first instant the trace reaches level target, or
// the full duration if it never does.
func firstTimeAt(tr *metrics.Trace, target int, duration sim.Time) sim.Time {
	for _, p := range tr.Points() {
		if p.Level >= target {
			return p.At
		}
	}
	return duration
}

// ExtensionTable renders one extension sweep.
func ExtensionTable(title, param string, rows []ExtensionRow) *Table {
	t := &Table{
		Title:  title,
		Header: []string{param, "rel deviation", "max changes", "time to optimal (s)"},
	}
	for _, r := range rows {
		t.AddRow(r.Param,
			fmt.Sprintf("%.3f", r.Deviation),
			fmt.Sprintf("%d", r.MaxChanges),
			fmt.Sprintf("%.1f", r.TimeToOptimal.Seconds()),
		)
	}
	return t
}
