package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// This file is the hierarchical-control-plane experiment: the same
// tiered-Internet topology run twice, once under one flat controller seeing
// every receiver, once federated — scoped per-domain leaf controllers under
// a federation parent that reconciles per-domain session budgets against
// each domain's border-link bandwidth. The two claims measured: per-domain
// budgets converge (churn stops well before the run ends) and quality
// matches the flat controller per domain, with the leaves provably never
// consuming feedback from outside their own domain.

// FederationConfig parameterizes the experiment.
type FederationConfig struct {
	Seed             int64
	Duration         sim.Time // 0 = 600 s
	ReceiversPerLeaf int      // 0 = 2
	Traffic          Traffic  // zero = CBR
}

func (c *FederationConfig) normalize() {
	d := ShortDefaults()
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.Tr(c.Traffic)
	if c.ReceiversPerLeaf == 0 {
		c.ReceiversPerLeaf = 2
	}
}

// federationTopology builds the experiment's tiered-Internet instance: two
// tier-1 domains behind ~2 Mbit/s border links (tight enough that the
// derived domain ceilings sit inside the 6-layer stack), three tier-2
// leaves each behind ~600 Kbit/s last hops.
func federationTopology(e sim.Scheduler, seed int64, rxPerLeaf int) *topology.Build {
	return topology.MustGenerate(e, &topology.TieredConfig{
		Seed:             seed,
		FanOut:           []int{2, 3},
		Bandwidth:        []float64{2e6, 600e3},
		ReceiversPerLeaf: rxPerLeaf,
	})
}

// FederationRow is one (variant, domain) outcome.
type FederationRow struct {
	Variant   string  `json:"variant"` // "flat" or "federated"
	Domain    int     `json:"domain"`  // -1 = all domains together
	Receivers int     `json:"receivers"`
	MeanDev   float64 `json:"mean_rel_deviation"`
	FinalOK   bool    `json:"final_within_1"` // every receiver within 1 layer of optimal at the end

	// Federated-only: the parent's view of the domain.
	Ceiling       int     `json:"ceiling,omitempty"`        // border-bandwidth level ceiling
	EndBudget     int     `json:"end_budget,omitempty"`     // session-0 budget in force at the end
	BudgetChanges int64   `json:"budget_changes,omitempty"` // budget entries pushed over the run
	LastChangeS   float64 `json:"last_change_s,omitempty"`  // when the last budget push happened
	Converged     bool    `json:"converged,omitempty"`      // no budget churn in the final third
	CrossDomain   int     `json:"cross_domain_regs"`        // receivers registered outside their leaf's scope (must be 0)
	Capped        int64   `json:"capped_suggestions,omitempty"`
}

// federationGroups splits session-0 receiver indices by domain label, in
// ascending domain order.
func federationGroups(b *topology.Build) (doms []int, byDom map[int][]int) {
	byDom = make(map[int][]int)
	for i, node := range b.Receivers[0] {
		d := b.Domains[node.ID]
		if _, ok := byDom[d]; !ok {
			doms = append(doms, d)
		}
		byDom[d] = append(byDom[d], i)
	}
	// Insertion order follows node creation, which is already ascending by
	// domain for the tiered generator; sort defensively anyway.
	for i := 1; i < len(doms); i++ {
		for j := i; j > 0 && doms[j] < doms[j-1]; j-- {
			doms[j], doms[j-1] = doms[j-1], doms[j]
		}
	}
	return doms, byDom
}

// federationQuality reduces one receiver group to (deviation, finalOK).
func federationQuality(traces []*metrics.Trace, optima []int, finals []int, idx []int, dur sim.Time) (float64, bool) {
	var trs []*metrics.Trace
	var opts []int
	ok := true
	for _, i := range idx {
		trs = append(trs, traces[i])
		opts = append(opts, optima[i])
		if diff := finals[i] - optima[i]; diff < -1 || diff > 1 {
			ok = false
		}
	}
	return metrics.MeanRelativeDeviation(trs, opts, 0, dur), ok
}

// FederationSpecs enumerates the experiment: one flat run and one federated
// run on the identical topology and seed.
func FederationSpecs(cfg FederationConfig) []Spec {
	cfg.normalize()
	return []Spec{federationSpec(cfg, Flat), federationSpec(cfg, Federated)}
}

// federationSpec is one variant: the all-domains row, then one row per
// receiver-bearing domain. Federated rows add the parent's view of each
// domain and the leaf's isolation check.
func federationSpec(cfg FederationConfig, plane Plane) Spec {
	variant := "flat"
	if plane == Federated {
		variant = "federated"
	}
	return NewSpec("fig_federation",
		fmt.Sprintf("fig_federation/%s/%s/seed=%d", variant, cfg.Traffic.Name, cfg.Seed),
		cfg.Seed, cfg.Duration,
		func(m *Meter) (any, error) {
			e := NewRunEngine(cfg.Seed, 0)
			b := federationTopology(e, cfg.Seed, cfg.ReceiversPerLeaf)
			w := NewWorld(e, b, WorldConfig{Seed: cfg.Seed, Traffic: cfg.Traffic, Plane: plane})
			m.ObserveWorld(w)
			w.Run(cfg.Duration)
			traces, optima := w.AllTraces()
			finals := make([]int, len(w.Receivers[0]))
			for i, rx := range w.Receivers[0] {
				finals[i] = rx.Level()
			}
			doms, byDom := federationGroups(b)
			all := make([]int, len(traces))
			for i := range all {
				all[i] = i
			}
			dev, ok := federationQuality(traces, optima, finals, all, cfg.Duration)
			allRow := FederationRow{Variant: variant, Domain: -1, Receivers: len(all), MeanDev: dev, FinalOK: ok}
			var rows []FederationRow
			for _, d := range doms {
				dev, ok := federationQuality(traces, optima, finals, byDom[d], cfg.Duration)
				row := FederationRow{Variant: variant, Domain: d, Receivers: len(byDom[d]), MeanDev: dev, FinalOK: ok}
				for _, leaf := range w.Leaves {
					if leaf.Domain != d {
						continue
					}
					changes, last := w.Parent.ChangesFor(d)
					row.Ceiling = w.Parent.Ceiling(d)
					row.EndBudget = w.Parent.Budget(d, 0)
					row.BudgetChanges = changes
					row.LastChangeS = last.Seconds()
					// Converged: budgets were granted and none moved in the
					// final third of the run.
					row.Converged = changes > 0 && last <= cfg.Duration-cfg.Duration/3
					row.Capped = leaf.Controller().SuggestionsCapped
					// Domain isolation: every receiver the leaf ever
					// registered lies inside its scope.
					for _, r := range leaf.Controller().RegisteredReceivers() {
						if !w.ScopeFor[d][r.Node] {
							row.CrossDomain++
						}
					}
					allRow.BudgetChanges += changes
					allRow.Capped += row.Capped
					allRow.CrossDomain += row.CrossDomain
				}
				rows = append(rows, row)
			}
			// The all-domains row converged only if every domain did.
			allRow.Converged = true
			for _, r := range rows {
				if !r.Converged {
					allRow.Converged = false
				}
			}
			return append([]FederationRow{allRow}, rows...), nil
		})
}

// FederationTable renders the comparison.
func FederationTable(rows []FederationRow) *Table {
	t := &Table{
		Title: "Hierarchical control plane: per-domain leaf controllers under a federation parent vs one flat controller",
		Header: []string{"variant", "domain", "receivers", "rel deviation", "final within 1",
			"ceiling", "end budget", "budget changes", "last change", "converged", "cross-domain regs", "capped"},
	}
	for _, r := range rows {
		dom := "all"
		if r.Domain >= 0 {
			dom = fmt.Sprintf("%d", r.Domain)
		}
		ceiling, budget, changes, last, conv, capped := "-", "-", "-", "-", "-", "-"
		if r.Variant == "federated" {
			changes = fmt.Sprintf("%d", r.BudgetChanges)
			conv = fmt.Sprintf("%v", r.Converged)
			capped = fmt.Sprintf("%d", r.Capped)
			if r.Domain >= 0 {
				ceiling = fmt.Sprintf("%d", r.Ceiling)
				budget = fmt.Sprintf("%d", r.EndBudget)
				last = fmt.Sprintf("%.0f s", r.LastChangeS)
			}
		}
		t.AddRow(r.Variant, dom, fmt.Sprintf("%d", r.Receivers),
			fmt.Sprintf("%.3f", r.MeanDev), fmt.Sprintf("%v", r.FinalOK),
			ceiling, budget, changes, last, conv, fmt.Sprintf("%d", r.CrossDomain), capped)
	}
	return t
}
