package federation

import (
	"sort"
	"time"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// Reconcile defaults. Budgets start at InitialBudget and climb one level per
// clean reconcile pass while they bind, so a domain's granted bandwidth
// converges from below — the convergence curve fig_federation plots. The
// loss thresholds are deliberately far apart: the leaf algorithm already
// steers receivers away from mildly lossy levels, so the parent only cuts on
// severe domain-wide distress and only raises on a clean bill.
const (
	DefaultLossLow  = 0.05
	DefaultLossHigh = 0.25
	InitialBudget   = 1
	// DefaultCutAfter is how many consecutive fresh exports must show severe
	// loss before the parent cuts. A budget raise makes every capped receiver
	// in the domain join the new layer at once, and that synchronized join can
	// spike loss for one report interval even at a perfectly sustainable
	// level; cutting (and ratcheting the learned ceiling) on that single
	// sample would lock the domain below its real capacity. Genuine overload
	// persists into the next export; a join transient does not.
	DefaultCutAfter = 2
	// DefaultRaiseAfter is the symmetric hysteresis for raises: the budget
	// must bind cleanly for this many consecutive fresh exports before one
	// more level is granted. A single receiver's momentary probe to the
	// budget level counts as binding for one export; without persistence the
	// parent would keep drip-feeding raises long after the domain settled,
	// and the churn clock would never stop.
	DefaultRaiseAfter = 2
)

// DomainConfig declares one leaf domain to the parent: where its controller
// lives and how much of its border link the domain is granted.
type DomainConfig struct {
	Domain int
	Leaf   netsim.NodeID // node the domain's leaf controller runs on
	// BorderBandwidth is the capacity (bits/s) of the border link connecting
	// the domain to the backbone; 0 leaves the domain ceiling at the full
	// layer stack.
	BorderBandwidth float64
	// Share is the fraction of the border bandwidth this domain's sessions
	// may claim together — the inter-domain fairness knob. 0 means 1.0.
	Share float64
}

// domainState is the parent's per-domain reconcile state: configuration,
// the derived level ceiling, the freshest export, and the budgets in force.
// learned starts at the bandwidth-derived ceiling and ratchets down on every
// cut: a level that showed severe loss while the budget bound there is never
// re-granted, so the cut/raise cycle cannot oscillate and churn provably
// terminates (one climb up, at most ceiling cuts down).
type domainState struct {
	cfg        DomainConfig
	ceiling    int
	learned    int // loss-learned ceiling, <= ceiling, never raised
	latest     *DomainExport
	seenPass   int64 // newest export pass already reconciled
	budgets    map[int]int
	streaks    map[int]int // per-session consecutive high-loss binding exports
	raises     map[int]int // per-session consecutive clean binding exports
	changes    int64
	lastChange sim.Time
}

// Parent is the controller of controllers. It consumes DomainExports in
// node context, and a global-scheduler ticker runs the reconcile loop:
// domains in id order, sessions in export order (sorted), adjusting each
// budget by at most one level per fresh export and pushing only the deltas.
type Parent struct {
	net      *netsim.Network
	node     *netsim.Node
	rates    []float64 // layer rates the ceilings are computed against
	interval sim.Time
	ticker   *sim.Ticker

	// Loss thresholds and the hysteresis depths; see the package defaults.
	LossLow, LossHigh    float64
	CutAfter, RaiseAfter int

	domains  []*domainState // sorted by domain id
	byDomain map[int]*domainState

	// Stats.
	ExportsRecv        int64
	Reconciles         int64
	BudgetChanges      int64 // budget entries pushed down (the churn number)
	ReconcileWallNanos int64 // host wall time inside reconcile (reporting only)

	// Set by SetObs: reconcile host wall latency (µs, reporting only) and
	// the budget levels pushed down.
	reconcileUs, budgetLevel *obs.Histogram
}

// NewParent creates the parent controller at node. rates are the session
// layer rates domain ceilings are computed from; interval is the reconcile
// period (the natural choice is the leaf decision interval, so every
// reconcile pass sees at most one fresh export per domain).
func NewParent(net *netsim.Network, node *netsim.Node, rates []float64, interval sim.Time) *Parent {
	p := &Parent{
		net: net, node: node,
		rates: append([]float64(nil), rates...), interval: interval,
		LossLow: DefaultLossLow, LossHigh: DefaultLossHigh,
		CutAfter: DefaultCutAfter, RaiseAfter: DefaultRaiseAfter,
		byDomain: make(map[int]*domainState),
	}
	node.AttachAgent(p)
	return p
}

// SetObs registers the parent's counts and reconcile histograms with o.
// Nil is a no-op.
func (p *Parent) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	o.Reg.CounterOf("federation_exports", &p.ExportsRecv)
	o.Reg.CounterOf("federation_reconciles", &p.Reconciles)
	o.Reg.CounterOf("federation_budget_churn", &p.BudgetChanges)
	p.reconcileUs = o.Reg.Histogram("federation_reconcile_us",
		[]float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000})
	p.budgetLevel = o.Reg.Histogram("federation_budget_level",
		[]float64{1, 2, 3, 4, 5, 6, 8, 12, 15})
}

// Node returns the node the parent runs on.
func (p *Parent) Node() *netsim.Node { return p.node }

// AddDomain registers a leaf domain. The domain's level ceiling is the
// highest cumulative-rate level that fits its granted share of the border
// bandwidth (at least level 1, so a domain is never starved outright).
// Call before Start.
func (p *Parent) AddDomain(cfg DomainConfig) {
	share := cfg.Share
	if share <= 0 || share > 1 {
		share = 1
	}
	ceiling := len(p.rates)
	if cfg.BorderBandwidth > 0 {
		ceiling = source.LevelForBandwidth(p.rates, cfg.BorderBandwidth*share)
		if ceiling < 1 {
			ceiling = 1
		}
	}
	ds := &domainState{
		cfg: cfg, ceiling: ceiling, learned: ceiling,
		budgets: make(map[int]int), streaks: make(map[int]int), raises: make(map[int]int),
	}
	p.domains = append(p.domains, ds)
	sort.Slice(p.domains, func(i, j int) bool { return p.domains[i].cfg.Domain < p.domains[j].cfg.Domain })
	p.byDomain[cfg.Domain] = ds
}

// Ceiling returns a domain's bandwidth-derived level ceiling (0 for an
// unknown domain).
func (p *Parent) Ceiling(domain int) int {
	if ds := p.byDomain[domain]; ds != nil {
		return ds.ceiling
	}
	return 0
}

// Learned returns a domain's loss-learned ceiling: the bandwidth ceiling
// lowered by every cut the domain has suffered. Budgets never climb past it.
func (p *Parent) Learned(domain int) int {
	if ds := p.byDomain[domain]; ds != nil {
		return ds.learned
	}
	return 0
}

// Budget returns the budget in force for (domain, session); 0 = none granted
// yet.
func (p *Parent) Budget(domain, session int) int {
	if ds := p.byDomain[domain]; ds != nil {
		return ds.budgets[session]
	}
	return 0
}

// ChangesFor returns how many budget entries the parent has pushed to one
// domain, and when the last push happened — the per-domain convergence
// numbers fig_federation reports.
func (p *Parent) ChangesFor(domain int) (changes int64, last sim.Time) {
	if ds := p.byDomain[domain]; ds != nil {
		return ds.changes, ds.lastChange
	}
	return 0, 0
}

// Start launches the reconcile ticker on the global scheduler: the loop
// reads state written by every domain's shard, so on a partitioned network
// it runs as a stop-the-world event at window barriers, like a leaf
// controller's decision pass.
func (p *Parent) Start() {
	if p.ticker != nil {
		return
	}
	p.ticker = sim.Every(sim.GlobalOf(p.net.Engine()), p.interval, p.reconcile)
}

// Stop halts the reconcile loop. Budgets already pushed stay in force at the
// leaves.
func (p *Parent) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
		p.ticker = nil
	}
}

// Recv implements netsim.Agent: consume domain exports. The newest export
// per domain wins; the reconcile loop reads it at the next tick.
func (p *Parent) Recv(pkt *netsim.Packet) {
	e, ok := pkt.Payload.(*DomainExport)
	if !ok {
		return
	}
	ds := p.byDomain[e.Domain]
	if ds == nil {
		return // an unregistered domain's export is dropped, not acted on
	}
	p.ExportsRecv++
	ds.latest = e
}

// reconcile runs one declarative pass: compare each domain's observed state
// (its freshest export) against the desired state (budgets within the
// domain ceiling) and push the per-session deltas. Decisions read only
// simulated state; the host clock below feeds the latency histogram and
// nothing else.
func (p *Parent) reconcile() {
	start := time.Now()
	now := sim.GlobalOf(p.net.Engine()).Now()
	for _, ds := range p.domains {
		e := ds.latest
		if e == nil || e.Pass == ds.seenPass {
			continue // no fresh evidence: budgets hold steady
		}
		ds.seenPass = e.Pass
		var changed []SessionBudget
		for _, s := range e.Sessions {
			b, ok := ds.budgets[s.Session]
			if s.Receivers == 0 && s.Departures > 0 {
				// A drained session: every receiver departed this pass.
				// Silence from departure is not congestion evidence — hold
				// the budget where it climbed and reset the hysteresis, so
				// rejoining receivers resume at the earned level instead of
				// a cut one. A session only ever seen drained gets no
				// initial grant either.
				if ok {
					ds.streaks[s.Session] = 0
					ds.raises[s.Session] = 0
				}
				continue
			}
			if !ok {
				// First sighting of the session in this domain: grant the
				// initial budget and let it climb on later passes.
				ds.budgets[s.Session] = InitialBudget
				changed = append(changed, SessionBudget{Session: s.Session, MaxLevel: InitialBudget})
				continue
			}
			nb := b
			switch {
			case s.MaxLoss >= p.LossHigh && (s.TopLevel >= b || ds.streaks[s.Session] > 0) && b > 1:
				// Severe loss in a distress episode that STARTED while the
				// budget bound (TopLevel >= b opens the streak; the echo
				// exports after the receivers retreat keep it open). One
				// sample is not enough: a fresh raise makes the whole domain
				// join the new layer at once, which can spike loss for a
				// single interval even at a sustainable level. Once the
				// distress persists across CutAfter consecutive exports the
				// granted level is judged unsustainable: cut, and ratchet
				// the learned ceiling down so this level is never re-probed
				// — which also spares the domain's receivers the failed join
				// experiments that produced the loss. Severe loss with no
				// binding episode is the leaf algorithm's problem; adjusting
				// the budget then would be pure churn.
				ds.raises[s.Session] = 0
				ds.streaks[s.Session]++
				if ds.streaks[s.Session] >= p.CutAfter {
					ds.streaks[s.Session] = 0
					nb = b - 1
					if nb < ds.learned {
						ds.learned = nb
					}
				}
			case s.MeanLoss <= p.LossLow && s.TopLevel >= b && b < ds.learned:
				// Clean pass and the budget binds (receivers sit at it):
				// after RaiseAfter consecutive such exports, grant one more
				// level, up to the learned ceiling. The raise gate reads the
				// domain MEAN, not the max: the budget caps the strongest
				// receivers, so one weak receiver's steady moderate loss
				// (the leaf algorithm's problem) must not veto headroom for
				// everyone else. A budget above what the leaf algorithm
				// chooses on its own stops binding, so raises — and churn —
				// stop by themselves.
				ds.streaks[s.Session] = 0
				ds.raises[s.Session]++
				if ds.raises[s.Session] >= p.RaiseAfter {
					ds.raises[s.Session] = 0
					nb = b + 1
				}
			default:
				ds.streaks[s.Session] = 0
				ds.raises[s.Session] = 0
			}
			if nb != b {
				ds.budgets[s.Session] = nb
				changed = append(changed, SessionBudget{Session: s.Session, MaxLevel: nb})
			}
		}
		if len(changed) > 0 {
			ds.changes += int64(len(changed))
			ds.lastChange = now
			p.BudgetChanges += int64(len(changed))
			for _, cb := range changed {
				p.budgetLevel.Observe(float64(cb.MaxLevel))
			}
			bu := &BudgetUpdate{Domain: ds.cfg.Domain, Sent: now, Budgets: changed}
			p.node.SendUnicast(report.NewControlPacket(p.node.ID, ds.cfg.Leaf, bu.WireSize(), now, bu))
		}
	}
	p.Reconciles++
	wall := int64(time.Since(start))
	p.ReconcileWallNanos += wall
	p.reconcileUs.Observe(float64(wall) / 1e3)
}
