// Package controller implements the per-domain controller agent of the
// TopoSense architecture. The agent sits on a network node (the paper
// stations it at a source node, so its control traffic crosses the same
// congested links as the media). Receivers register with it and send
// periodic loss reports; a topology discovery tool supplies (possibly
// stale) session trees; every decision interval the agent runs the
// TopoSense algorithm and unicasts a subscription suggestion to every
// registered receiver.
package controller

import (
	"sort"
	"time"

	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/topodisc"
)

// receiverKey identifies one registered receiver of one session.
type receiverKey struct {
	session int
	node    netsim.NodeID
}

// subtreeKey identifies one controller-adjacent subtree's aggregate stream.
type subtreeKey struct {
	session int
	origin  netsim.NodeID
}

// fanGroup is the batched fan-out's scratch: one outgoing SuggestionBatch
// per next hop from the controller.
type fanGroup struct {
	next  netsim.NodeID
	batch *report.SuggestionBatch
}

// accum aggregates the sub-interval receiver reports that arrive between
// two algorithm steps into the single per-interval view the algorithm
// consumes.
type accum struct {
	bytes    int64
	lossSum  float64
	lossN    int
	level    int
	reported bool
}

// Controller is the controller agent.
type Controller struct {
	net    *netsim.Network
	domain *mcast.Domain
	node   *netsim.Node
	tool   *topodisc.Tool
	alg    *core.Algorithm

	interval sim.Time
	ticker   *sim.Ticker
	// gen is bumped by Stop so suggestion resends scheduled before the
	// stop recognize they are stale and do not fire.
	gen uint64

	// DisableResend suppresses the mid-interval suggestion repeat
	// (ablation switch; the repeat protects against control loss on the
	// congested links suggestions must cross).
	DisableResend bool

	// Staleness delays the controller's view of receiver feedback: a
	// report is only usable Staleness after it arrives, matching the
	// paper's stale-information experiments ("the impact of old topology
	// and loss information"). The discovery tool carries its own staleness
	// for the topology half.
	Staleness sim.Time

	// registered maps each live receiver to its registration generation.
	// The generation is bumped every time the receiver (re-)registers, so a
	// pending mid-interval resend — computed for the previous incarnation —
	// can tell that the receiver it targets is not the one it was meant
	// for, even when expiry and re-registration happen within one pass.
	registered map[receiverKey]uint64
	regSeq     uint64
	lastHeard  map[receiverKey]sim.Time
	acc        map[receiverKey]*accum
	// departed counts, per session, the receivers unregistered since the
	// last decision pass. It is read during OnStep (the federation leaf
	// folds departures into its export) and cleared at the end of every
	// step. Lazily allocated: without churn it stays nil and costs nothing.
	departed map[int]int
	billing    *ledger // non-nil once EnableBilling is called
	// last holds the most recent completed aggregate per receiver, used
	// when a receiver goes silent for a whole interval (its reports were
	// lost): the algorithm then sees the stale numbers, like a real
	// controller would.
	last map[receiverKey]core.ReceiverState

	// levelCap caps the level the controller may suggest per session — the
	// enforcement half of the hierarchical control plane: a parent
	// controller (internal/federation) pushes per-domain session budgets
	// down, and the leaf clamps every core.Algorithm suggestion to its
	// budget before fan-out. Empty (the default) leaves suggestions
	// untouched, so a non-federated controller is byte-identical to the
	// pre-federation code path.
	levelCap map[int]int

	// aggregated switches the suggestion fan-out to pooled per-next-hop
	// SuggestionBatch packets (see EnableAggregation); subtrees collects the
	// latest aggregate summary per (session, origin) for the algorithm's
	// aggregate-aware input, and the batch*/fan* slices are per-pass scratch
	// reused so the steady-state fan-out allocates nothing.
	aggregated bool
	subtrees   map[subtreeKey]core.SubtreeSummary
	batchSugs  []core.Suggestion
	batchGens  []uint64
	fanGroups  []fanGroup

	// Stats.
	StepsRun        int64
	SuggestionsSent int64
	ReportsRecv     int64
	RegistersRecv   int64
	DeregistersRecv int64
	// Control-plane fan-in, counted at packet delivery: every control
	// message (and its modeled wire bytes) the controller's node handed to
	// the agent. With aggregation on, AggregatesRecv of those were compact
	// in-network merges and BatchesSent counts the pooled downward packets.
	CtlMsgsRecv    int64
	CtlBytesRecv   int64
	AggregatesRecv int64
	BatchesSent    int64
	// SuggestionsCapped counts suggestions clamped down to a session's
	// federation budget before fan-out.
	SuggestionsCapped int64
	// PassWallNanos / PassWallMaxNanos accumulate the host wall-clock time
	// spent inside step() — total and worst single pass. Wall time feeds
	// only reporting (the fig_scale controller-latency column); simulation
	// behaviour never reads the host clock, so determinism is unaffected.
	PassWallNanos    int64
	PassWallMaxNanos int64

	// OnStep, if set, observes each step's inputs and outputs. The out
	// slice is backed by the algorithm's scratch arena and only valid for
	// the duration of the call; copy it to retain.
	OnStep func(now sim.Time, in core.Input, out []core.Suggestion)

	// Set by SetObs: obs takes pass events and the decision audit;
	// passEvents observes the engine events between passes, fanIn the
	// control messages consumed per pass.
	obs               *obs.Obs
	passEvents, fanIn *obs.Histogram
	lastPassFired     uint64
	lastPassMsgs      int64
}

// New creates a controller at node using the given discovery tool and
// algorithm. The algorithm's configured Interval drives the decision timer.
func New(net *netsim.Network, domain *mcast.Domain, node *netsim.Node, tool *topodisc.Tool, alg *core.Algorithm) *Controller {
	c := &Controller{
		net:        net,
		domain:     domain,
		node:       node,
		tool:       tool,
		alg:        alg,
		interval:   alg.Config().Interval,
		registered: make(map[receiverKey]uint64),
		lastHeard:  make(map[receiverKey]sim.Time),
		acc:        make(map[receiverKey]*accum),
		last:       make(map[receiverKey]core.ReceiverState),
	}
	node.AttachAgent(c)
	return c
}

// Node returns the node the controller runs on.
func (c *Controller) Node() *netsim.Node { return c.node }

// global returns the scheduler for the controller's domain-wide work. The
// decision pass reads cross-shard state (discovery snapshots, algorithm
// runs spanning every session), so on a partitioned network it runs as a
// stop-the-world global event at window barriers.
func (c *Controller) global() sim.Scheduler { return sim.GlobalOf(c.net.Engine()) }

// nodeSched returns the scheduler owning the controller's node: report and
// registration consumption happens in node context, on the node's shard.
func (c *Controller) nodeSched() sim.Scheduler { return c.net.SchedulerFor(c.node.ID) }

// Algorithm returns the underlying TopoSense instance.
func (c *Controller) Algorithm() *core.Algorithm { return c.alg }

// SetObs attaches the observability bundle and registers StepsRun,
// SuggestionsCapped and the pass histograms with it. Nil (the default) is
// a no-op: the only cost left is one pointer check per decision interval.
func (c *Controller) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	c.obs = o
	o.Reg.CounterOf("controller_passes", &c.StepsRun)
	o.Reg.CounterOf("federation_capped_suggestions", &c.SuggestionsCapped)
	c.passEvents = o.Reg.Histogram("controller_pass_events",
		[]float64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000})
	c.fanIn = o.Reg.Histogram("controller_fanin",
		[]float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000})
}

// EnableAggregation switches the suggestion fan-out from per-receiver
// unicasts to one pooled SuggestionBatch per next hop, for worlds running an
// in-network aggregation layer (mcast.Aggregator) that splits the batches
// down the tree. Aggregate consumption needs no switch — consume handles
// report.Aggregate payloads whenever they arrive. Call before Start.
func (c *Controller) EnableAggregation() { c.aggregated = true }

// SetLevelCap caps the controller's suggestions for one session at max
// (the per-domain session budget a federation parent granted). max <= 0
// clears the cap. Takes effect from the next decision pass.
func (c *Controller) SetLevelCap(session, max int) {
	if max <= 0 {
		delete(c.levelCap, session)
		return
	}
	if c.levelCap == nil {
		c.levelCap = make(map[int]int)
	}
	c.levelCap[session] = max
}

// LevelCap returns the session's budget cap (0 = uncapped).
func (c *Controller) LevelCap(session int) int { return c.levelCap[session] }

// RegisteredReceivers returns every currently registered (session, node)
// pair, sorted — the controller's membership view. The federation
// experiment uses it to prove domain isolation: a leaf controller must
// never have consumed a report from outside its domain.
func (c *Controller) RegisteredReceivers() []ReceiverID {
	out := make([]ReceiverID, 0, len(c.registered))
	for k := range c.registered {
		out = append(out, ReceiverID{Session: k.session, Node: k.node})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// ReceiverID identifies one registered receiver of one session.
type ReceiverID struct {
	Session int
	Node    netsim.NodeID
}

// Unregister forgets a receiver immediately: it is removed from the
// registration tables (which invalidates any pending mid-interval
// suggestion resend through the registration-generation check — the key's
// absence fails the recheck) and evicted from the next algorithm pass. A
// later Register from the same node is a fresh incarnation and opens a new
// generation, exactly like a re-registration after expiry. Unknown
// receivers are ignored.
func (c *Controller) Unregister(session int, node netsim.NodeID) {
	c.unregister(receiverKey{session, node})
}

// unregister drops one receiver's state — the same four tables the
// expiry sweep in step() clears — and records the departure for this pass.
func (c *Controller) unregister(k receiverKey) {
	if _, ok := c.registered[k]; !ok {
		return
	}
	delete(c.registered, k)
	delete(c.lastHeard, k)
	delete(c.acc, k)
	delete(c.last, k)
	if c.departed == nil {
		c.departed = make(map[int]int)
	}
	c.departed[k.session]++
}

// PassDepartures returns how many receivers of session have deregistered
// since the last decision pass. Valid during OnStep; the count resets when
// the pass completes.
func (c *Controller) PassDepartures(session int) int { return c.departed[session] }

// DepartedSessions returns the sessions with departures pending in the
// current pass, sorted; nil when there were none.
func (c *Controller) DepartedSessions() []int {
	if len(c.departed) == 0 {
		return nil
	}
	out := make([]int, 0, len(c.departed))
	for s := range c.departed {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Start begins the discovery tool and the periodic decision timer.
func (c *Controller) Start() {
	if c.ticker != nil {
		return
	}
	c.tool.Start()
	c.ticker = sim.Every(c.global(), c.interval, c.step)
}

// Stop halts the decision timer (the discovery tool keeps running so a
// restart has fresh history). Pending mid-interval suggestion resends are
// invalidated: a stopped controller must go silent immediately.
func (c *Controller) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
		c.gen++
	}
}

// Recv implements netsim.Agent: consume registrations and loss reports.
// With Staleness set, processing is deferred so the information is that old
// by the time the algorithm sees it.
func (c *Controller) Recv(p *netsim.Packet) {
	c.CtlMsgsRecv++
	c.CtlBytesRecv += int64(p.Size)
	if c.Staleness > 0 {
		payload := p.Payload
		c.nodeSched().Schedule(c.Staleness, func() { c.consume(payload) })
		return
	}
	c.consume(p.Payload)
}

func (c *Controller) consume(payload any) {
	now := c.nodeSched().Now()
	switch pl := payload.(type) {
	case report.Register:
		c.RegistersRecv++
		k := receiverKey{pl.Session, pl.Node}
		// Every Register is a (re)start of the receiver, so it opens a new
		// registration generation — pending resends aimed at the previous
		// incarnation go inert.
		c.regSeq++
		c.registered[k] = c.regSeq
		c.lastHeard[k] = now
		if a := c.acc[k]; a == nil {
			c.acc[k] = &accum{level: pl.Level}
		} else {
			// A re-registration is a receiver restarting, possibly at a
			// different level; tracking it at the stale level until its
			// first loss report would mis-steer the next step.
			a.level = pl.Level
		}
	case report.LossReport:
		c.ReportsRecv++
		k := receiverKey{pl.Session, pl.Node}
		// Reports imply registration (the Register packet may be lost), but
		// a report from an already-registered receiver is the same
		// incarnation — it must not open a new generation, or every report
		// would invalidate the pending mid-interval resend.
		if _, ok := c.registered[k]; !ok {
			c.regSeq++
			c.registered[k] = c.regSeq
		}
		c.lastHeard[k] = now
		a := c.acc[k]
		if a == nil {
			a = &accum{}
			c.acc[k] = a
		}
		a.bytes += pl.Bytes
		a.lossSum += pl.LossRate
		a.lossN++
		a.level = pl.Level
		a.reported = true
		if c.billing != nil {
			c.billing.meter(pl.Session, pl.Node, pl.Bytes, pl.Level, pl.Interval)
		}
	case report.Deregister:
		c.DeregistersRecv++
		c.unregister(receiverKey{pl.Session, pl.Node})
	case *report.Aggregate:
		// An in-network merge of many receivers' reports. Each entry carries
		// the exact sums of its receiver's folded reports, so folding it here
		// reproduces the flat path's accumulator state bit for bit; that is
		// the decision-equivalence contract the aggregation layer keeps.
		c.AggregatesRecv++
		c.ReportsRecv += pl.ReportCount
		for i := range pl.Entries {
			e := &pl.Entries[i]
			k := receiverKey{pl.Session, e.Node}
			if _, ok := c.registered[k]; !ok {
				c.regSeq++
				c.registered[k] = c.regSeq
			}
			c.lastHeard[k] = now
			a := c.acc[k]
			if a == nil {
				a = &accum{}
				c.acc[k] = a
			}
			a.bytes += e.Bytes
			a.lossSum += e.LossSum
			a.lossN += int(e.Reports)
			a.level = e.Level
			a.reported = true
			if c.billing != nil {
				c.billing.meter(pl.Session, e.Node, e.Bytes, e.Level, pl.Interval)
			}
		}
		if c.subtrees == nil {
			c.subtrees = make(map[subtreeKey]core.SubtreeSummary)
		}
		c.subtrees[subtreeKey{pl.Session, pl.Origin}] = core.SubtreeSummary{
			Session:   pl.Session,
			Origin:    pl.Origin,
			Receivers: pl.Receivers(),
			Reports:   pl.ReportCount,
			Bytes:     pl.ByteTotal,
			MeanLoss:  pl.MeanLoss(),
			MaxLoss:   pl.MaxLoss,
			Worst:     pl.Worst,
		}
		pl.Release()
	}
}

// step runs one TopoSense interval: assemble topologies and reports, run
// the algorithm, send suggestions.
func (c *Controller) step() {
	passStart := time.Now()
	defer func() {
		d := int64(time.Since(passStart))
		c.PassWallNanos += d
		if d > c.PassWallMaxNanos {
			c.PassWallMaxNanos = d
		}
	}()
	now := c.global().Now()

	// Expire receivers that have gone silent for several intervals: they
	// left (or died) and instructing them would steer the tree with ghost
	// demand. Generosity scales with staleness, since reports are consumed
	// late on purpose.
	horizon := 5*c.interval + c.Staleness
	for k, heard := range c.lastHeard {
		if now-heard > horizon {
			delete(c.registered, k)
			delete(c.lastHeard, k)
			delete(c.acc, k)
			delete(c.last, k)
		}
	}

	// Topologies from the discovery tool (respecting its staleness).
	var topos []*core.Topology
	for _, s := range c.tool.Sessions() {
		snap := c.tool.Discover(s)
		if snap == nil || snap.Empty() {
			continue
		}
		topo := SnapshotToTopology(snap)
		if err := topo.Validate(); err != nil {
			continue // a torn snapshot is skipped, not acted on
		}
		topos = append(topos, topo)
	}

	// Fold accumulated receiver reports into per-interval states. When the
	// audit log is live, mirror each state into an audit entry as it is
	// assembled — the audit records exactly what the algorithm consumed.
	auditing := c.obs != nil && c.obs.Audit != nil
	var audit []obs.AuditEntry
	var auditIdx map[receiverKey]int
	var reports []core.ReceiverState
	keys := make([]receiverKey, 0, len(c.registered))
	for k := range c.registered {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].session != keys[j].session {
			return keys[i].session < keys[j].session
		}
		return keys[i].node < keys[j].node
	})
	if auditing {
		audit = make([]obs.AuditEntry, 0, len(keys))
		auditIdx = make(map[receiverKey]int, len(keys))
	}
	for _, k := range keys {
		a := c.acc[k]
		stale := a == nil || !a.reported
		var st core.ReceiverState
		if stale {
			// Silent interval: reuse the last known state if any.
			var ok bool
			if st, ok = c.last[k]; !ok {
				continue
			}
		} else {
			st = core.ReceiverState{
				Node:     k.node,
				Session:  k.session,
				Level:    a.level,
				LossRate: a.lossSum / float64(a.lossN),
				Bytes:    a.bytes,
			}
			c.last[k] = st
			*a = accum{level: a.level}
		}
		reports = append(reports, st)
		if auditing {
			auditIdx[k] = len(audit)
			audit = append(audit, obs.AuditEntry{
				Node: int(k.node), Session: k.session,
				Level: st.Level, Loss: st.LossRate, Bytes: st.Bytes,
				Stale: stale, Parent: -1, Prescribed: -1,
			})
		}
	}
	if auditing {
		// Topology evidence: each receiver's parent in its session's
		// validated discovered tree, when one covered it this pass.
		for _, topo := range topos {
			for i := range audit {
				if audit[i].Session != topo.Session {
					continue
				}
				if p, ok := topo.Parent[core.NodeID(audit[i].Node)]; ok {
					audit[i].OnTree = true
					audit[i].Parent = int(p)
				}
			}
		}
	}

	// Subtree summaries from consumed aggregates: the latest per (session,
	// origin), sorted for determinism, cleared each pass like the accums.
	var subs []core.SubtreeSummary
	if len(c.subtrees) > 0 {
		subs = make([]core.SubtreeSummary, 0, len(c.subtrees))
		for _, s := range c.subtrees {
			subs = append(subs, s)
		}
		sort.Slice(subs, func(i, j int) bool {
			if subs[i].Session != subs[j].Session {
				return subs[i].Session < subs[j].Session
			}
			return subs[i].Origin < subs[j].Origin
		})
		for k := range c.subtrees {
			delete(c.subtrees, k)
		}
	}

	in := core.Input{Now: now, Topologies: topos, Reports: reports, Subtrees: subs}
	out := c.alg.Step(in)
	c.StepsRun++

	// Federation budget enforcement: clamp each suggestion to its session's
	// cap before any fan-out path sees it (the algorithm's scratch-backed
	// slice is safely mutable until its next Step).
	if len(c.levelCap) > 0 {
		for i := range out {
			if _, ok := c.registered[receiverKey{out[i].Session, out[i].Node}]; !ok {
				// A receiver that deregistered mid-interval: the fan-out below
				// skips it, so clamping it here would only inflate the capped
				// counter with ghost bookkeeping.
				continue
			}
			if lim, ok := c.levelCap[out[i].Session]; ok && out[i].Level > lim {
				out[i].Level = lim
				c.SuggestionsCapped++
			}
		}
	}

	sent := 0
	if c.aggregated {
		// Batched fan-out: filter to registered receivers into the per-pass
		// scratch (with registration generations for the resend recheck),
		// then send one pooled batch per next hop — and one resend closure
		// per pass instead of one per receiver.
		c.batchSugs = c.batchSugs[:0]
		c.batchGens = c.batchGens[:0]
		for _, sg := range out {
			k := receiverKey{sg.Session, sg.Node}
			if auditing {
				if i, ok := auditIdx[k]; ok {
					audit[i].Prescribed = sg.Level
				}
			}
			rgen, ok := c.registered[k]
			if !ok {
				continue // never instruct an unregistered receiver
			}
			c.batchSugs = append(c.batchSugs, sg)
			c.batchGens = append(c.batchGens, rgen)
			sent++
		}
		c.sendBatched(c.batchSugs, c.batchGens, false)
		if !c.DisableResend && sent > 0 {
			gen := c.gen
			c.global().Schedule(c.interval/2, func() {
				if c.ticker == nil || c.gen != gen {
					return
				}
				// The scratch is only rewritten by the next pass, a half
				// interval after this fires; recheck generations per entry.
				c.sendBatched(c.batchSugs, c.batchGens, true)
			})
		}
	} else {
		for _, sg := range out {
			k := receiverKey{sg.Session, sg.Node}
			if auditing {
				if i, ok := auditIdx[k]; ok {
					audit[i].Prescribed = sg.Level
				}
			}
			rgen, ok := c.registered[k]
			if !ok {
				continue // never instruct an unregistered receiver
			}
			send := func() {
				at := c.global().Now()
				pkt := report.NewControlPacket(c.node.ID, sg.Node, report.SuggestionSize, at,
					report.Suggestion{Node: sg.Node, Session: sg.Session, Level: sg.Level, Sent: at})
				c.node.SendUnicast(pkt)
				c.SuggestionsSent++
			}
			send()
			sent++
			// Suggestions cross the congested links they are trying to relieve
			// and are routinely lost exactly when they matter most; a single
			// mid-interval repeat makes the control loop robust without
			// meaningful extra traffic. The repeat is dropped if the controller
			// stopped, the receiver expired, or the receiver re-registered as a
			// new incarnation (even within this same pass), in the meantime.
			if !c.DisableResend {
				gen := c.gen
				c.global().Schedule(c.interval/2, func() {
					if c.ticker == nil || c.gen != gen {
						return
					}
					if cur, ok := c.registered[k]; !ok || cur != rgen {
						return
					}
					send()
				})
			}
		}
	}
	if c.obs != nil {
		c.fanIn.Observe(float64(c.CtlMsgsRecv - c.lastPassMsgs))
		c.lastPassMsgs = c.CtlMsgsRecv
		var fired uint64
		// Schedulers expose the fired-event counter only through their
		// concrete engines; a scheduler without one reports zero distance.
		if f, ok := c.net.Engine().(interface{ Fired() uint64 }); ok {
			fired = f.Fired()
		}
		since := fired - c.lastPassFired
		c.lastPassFired = fired
		c.passEvents.Observe(float64(since))
		c.obs.Rec.Record(obs.Event{
			At: now, Kind: obs.EvPass,
			From: int32(c.node.ID), To: -1, Session: -1,
			Seq: c.StepsRun, Aux: int64(sent),
		})
		c.obs.Audit.Add(obs.AuditPass{
			At: now, Topologies: len(topos), EventsSince: since,
			Receivers: audit,
		})
	}
	if c.OnStep != nil {
		c.OnStep(now, in, out)
	}
	// Departure counts cover exactly one pass; OnStep (the federation leaf's
	// export hook) was the last reader. Ranging a nil map is free, so the
	// churn-free pass stays allocation-free.
	for s := range c.departed {
		delete(c.departed, s)
	}
}

// sendBatched sends the suggestions in sugs as one pooled SuggestionBatch
// per next hop from the controller; the in-network aggregation layer splits
// each batch further down the tree. With recheck set (the mid-interval
// resend) entries whose receiver expired or re-registered since the pass are
// skipped, exactly like the per-receiver resend guard on the flat path. The
// fan-group scratch is reused across calls, so steady-state passes allocate
// nothing here.
func (c *Controller) sendBatched(sugs []core.Suggestion, gens []uint64, recheck bool) {
	at := c.global().Now()
	groups := c.fanGroups[:0]
	for i, sg := range sugs {
		if recheck {
			if cur, ok := c.registered[receiverKey{sg.Session, sg.Node}]; !ok || cur != gens[i] {
				continue
			}
		}
		if sg.Node == c.node.ID {
			// A receiver co-located with the controller: no hop to batch
			// over, deliver the plain suggestion locally.
			pkt := report.NewControlPacket(c.node.ID, sg.Node, report.SuggestionSize, at,
				report.Suggestion{Node: sg.Node, Session: sg.Session, Level: sg.Level, Sent: at})
			c.node.SendUnicast(pkt)
			c.SuggestionsSent++
			continue
		}
		next := c.net.NextHop(c.node.ID, sg.Node)
		if next == netsim.NoNode {
			continue // unreachable, as the equivalent unicast would be
		}
		var g *fanGroup
		for j := range groups {
			if groups[j].next == next {
				g = &groups[j]
				break
			}
		}
		if g == nil {
			groups = append(groups, fanGroup{next: next, batch: report.NewSuggestionBatch()})
			g = &groups[len(groups)-1]
			g.batch.Sent = at
		}
		g.batch.Add(sg.Node, sg.Session, sg.Level)
		c.SuggestionsSent++
	}
	for i := range groups {
		g := &groups[i]
		pkt := c.net.NewPacket()
		pkt.Kind = netsim.Control
		pkt.Src = c.node.ID
		pkt.Dst = g.next
		pkt.Group = netsim.NoGroup
		pkt.Size = g.batch.WireSize()
		pkt.Sent = at
		pkt.Payload = g.batch
		c.node.SendUnicast(pkt)
		pkt.Release()
		g.batch = nil
		c.BatchesSent++
	}
	c.fanGroups = groups
}

// SnapshotToTopology converts a discovery snapshot into the algorithm's
// topology type.
func SnapshotToTopology(s *topodisc.Snapshot) *core.Topology {
	t := &core.Topology{
		Session:   s.Session,
		Root:      s.Root,
		Parent:    make(map[core.NodeID]core.NodeID, len(s.Parent)),
		Children:  make(map[core.NodeID][]core.NodeID, len(s.Children)),
		Receivers: make(map[core.NodeID]bool, len(s.Receivers)),
	}
	for k, v := range s.Parent {
		t.Parent[k] = v
	}
	for k, v := range s.Children {
		t.Children[k] = append([]core.NodeID(nil), v...)
	}
	for k, v := range s.Receivers {
		t.Receivers[k] = v
	}
	return t
}
