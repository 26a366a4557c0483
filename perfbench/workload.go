package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"toposense/internal/churn"
	"toposense/internal/controller"
	"toposense/internal/experiments"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/receiver"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topology"
)

// Workload is one scenario the benchmark runs: a topology spec, a traffic
// model, an engine and a control-plane shape, simulated for Duration.
type Workload struct {
	Name      string
	Topo      string
	Traffic   experiments.Traffic
	Duration  sim.Time
	Sharded   bool     // sharded engine with GOMAXPROCS workers; else the default engine
	Aggregate bool     // in-network report aggregation
	Churn     sim.Time // Poisson mean on/off period of every receiver; 0 = static
	// Replicas is how many differently seeded worlds a measured run
	// simulates; its model metrics are their mean.
	Replicas int
}

// Workloads are the benchmark's scenarios, in BENCHMARK.json order.
var Workloads = []Workload{
	{
		Name:     "paper_b16_vbr",
		Topo:     "b,sessions=16",
		Traffic:  experiments.VBR3,
		Duration: experiments.PaperDuration,
		Replicas: 6,
	},
	{
		Name:     "tree10k_flat",
		Topo:     "tree,depth=4,branch=10,rxleaf=1",
		Traffic:  experiments.CBR,
		Duration: 10 * sim.Second,
		Replicas: 3,
	},
	{
		Name:      "tree10k_sharded_agg_churn",
		Topo:      "tree,depth=4,branch=10,rxleaf=1",
		Traffic:   experiments.CBR,
		Duration:  10 * sim.Second,
		Sharded:   true,
		Aggregate: true,
		Churn:     16 * sim.Second,
		Replicas:  3,
	},
}

// workloadByName looks a workload up.
func workloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// settle is simulated time run after the measured horizon, with churn
// stopped, so registrations and deregistrations in flight land before the
// membership check. drain then empties the queue after Shutdown so pooled
// payloads in flight come home before the pool check.
const (
	settle = 2 * sim.Second
	drain  = 30 * sim.Second
)

// Outputs are an episode's simulated results: a pure function of the
// workload, the seed and the execution model.
type Outputs struct {
	Events           uint64
	PacketsDelivered int64
	QueueDrops       int64
	Levels           []int // per receiver slot, session-major; 0 = departed
	Changes          []int // per receiver slot, subscription changes over the run
	MeanDev          float64
	ChangesPerRxMin  float64
	CtlBytesPerRx    float64
	GoodputKbpsPerRx float64

	StepsRun, CtlMsgsRecv, Deregisters int64
	ChurnTransitions                   int64
	TreeCost, StateBytes               int64
	AggFlushes, AggAbsorbed, AggPurged int64
	PacketAllocs                       uint64
}

// Digest hashes the outputs that the benchmark's golden file pins.
func (o *Outputs) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "events=%d delivered=%d dev=%.12g\n", o.Events, o.PacketsDelivered, o.MeanDev)
	for i := range o.Levels {
		fmt.Fprintf(h, "%d:%d/%d\n", i, o.Levels[i], o.Changes[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Episode is one built-and-run world with its host measurements.
type Episode struct {
	SetupS, RunS, CPUS, PeakLiveMB float64
	GenerateS, RouteBuildS         float64
	Allocs, GCCycles               uint64
	GCCPUPct                       float64
	Stats                          sim.EngineStats
	Out                            Outputs
	Trace                          TraceStats // the measured run's, on a traced episode
}

// runEpisode builds w's world from the public wiring API, runs it for
// w.Duration, reduces its outputs and checks the invariants an outside
// observer can see. shards > 0 selects the sharded engine with that many
// workers; traced wraps the default engine in a Tracer (shards must be 0).
// setupOnly stops after set-up, so only the set-up times are filled in. A
// panic anywhere in the model is returned as an error.
func runEpisode(w Workload, seed int64, shards int, traced, setupOnly bool) (ep *Episode, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	runtime.GC()
	aggBase, batchBase := report.AggregatesLive(), report.BatchesLive()
	ep = &Episode{}

	t0 := time.Now()
	var eng sim.Runner = experiments.NewRunEngine(seed, shards)
	var tracer *Tracer
	if traced {
		tracer = NewTracer(eng.(*sim.Engine), traceSampleEvery)
		eng = tracer
	}
	_, cfg, err := topology.Parse(w.Topo)
	if err != nil {
		return nil, err
	}
	b, err := topology.Generate(eng, cfg)
	if err != nil {
		return nil, err
	}
	ep.GenerateS = time.Since(t0).Seconds()
	t1 := time.Now()
	b.Net.NextHop(0, 0) // materialize the route tables
	ep.RouteBuildS = time.Since(t1).Seconds()

	world := experiments.NewWorld(eng, b, experiments.WorldConfig{
		Seed: seed, Traffic: w.Traffic, Aggregate: w.Aggregate,
	})
	if tracer != nil {
		tracer.WrapSeams(b.Net, world.Domain, world.Aggregator)
	}
	var aggDropped, batchDropped atomic.Int64
	if w.Aggregate {
		// A congestion-dropped control packet's pooled payload goes to the
		// garbage collector, not back to its pool; count those so the pool
		// balance below exempts them.
		world.Net.AttachProbe(&netsim.FuncProbe{OnDrop: func(_ *netsim.Link, p *netsim.Packet) {
			switch p.Payload.(type) {
			case *report.Aggregate:
				aggDropped.Add(1)
			case *report.SuggestionBatch:
				batchDropped.Add(1)
			}
		}})
	}
	cur, drv := wireChurn(w, b, world)
	world.Start()
	ep.SetupS = time.Since(t0).Seconds()
	if setupOnly {
		return ep, nil
	}

	firedBefore := eng.Fired()
	hw := startHeapWatch()
	before := readRuntime()
	start := time.Now()
	eng.RunUntil(w.Duration)
	ep.RunS = time.Since(start).Seconds()
	after := readRuntime()
	ep.PeakLiveMB = float64(hw.stop()) / (1 << 20)
	ep.CPUS = after.cpuS - before.cpuS
	ep.Allocs = after.allocs - before.allocs
	ep.GCCycles = after.gcCycles - before.gcCycles
	if d := after.totalCPU - before.totalCPU; d > 0 {
		ep.GCCPUPct = 100 * (after.gcCPU - before.gcCPU) / d
	}
	ep.Stats = eng.Stats()

	o := &ep.Out
	o.Events = eng.Fired() - firedBefore
	reduce(o, w, b, world, cur, drv)
	if tracer != nil {
		ep.Trace = tracer.Snapshot()
		if err := checkLayerSum(&ep.Trace, eng.Fired()); err != nil {
			return ep, err
		}
	}

	// Invariant: the controller's membership equals the live receivers.
	if drv != nil {
		drv.Stop()
	}
	eng.RunUntil(w.Duration + settle)
	if err := checkMembership(world.Controller, liveReceivers(world, cur)); err != nil {
		return ep, err
	}
	// Invariant: after Shutdown and a drain, every pooled aggregate and
	// suggestion batch is back in its pool (less those lost to drops).
	// Shutdown stops the original incarnations; stop the churn ones too.
	for _, rx := range liveReceivers(world, cur) {
		if rx != nil {
			rx.Stop()
		}
	}
	world.Shutdown()
	world.Tool.Stop()
	eng.RunUntil(w.Duration + settle + drain)
	world.Aggregator.Stop()
	if got, want := report.AggregatesLive(), aggBase+aggDropped.Load(); got != want {
		return ep, fmt.Errorf("pooled aggregates live after shutdown: %d, want %d", got, want)
	}
	if got, want := report.BatchesLive(), batchBase+batchDropped.Load(); got != want {
		return ep, fmt.Errorf("pooled suggestion batches live after shutdown: %d, want %d", got, want)
	}
	return ep, nil
}

// checkLayerSum verifies that the per-layer event counts add up exactly to
// the events the engine fired.
func checkLayerSum(ts *TraceStats, fired uint64) error {
	var sum uint64
	for _, ls := range ts.Layers {
		sum += ls.events
	}
	if sum != ts.Fired || ts.Fired != fired {
		return fmt.Errorf("per-layer events sum to %d, tracer fired %d, engine fired %d", sum, ts.Fired, fired)
	}
	return nil
}

// wireChurn registers every receiver of a churning workload as a Poisson
// membership slot: a departure is the full lifecycle (Depart), a rejoin a
// fresh incarnation feeding the same level trace. cur holds each slot's
// live incarnation (nil while departed). Static workloads get nil, nil.
func wireChurn(w Workload, b *topology.Build, world *experiments.World) ([][]*receiver.Receiver, *churn.Driver) {
	if w.Churn <= 0 {
		return nil, nil
	}
	drv := churn.New(b.Net)
	cur := make([][]*receiver.Receiver, len(world.Receivers))
	for s := range world.Receivers {
		cur[s] = append([]*receiver.Receiver(nil), world.Receivers[s]...)
		for i := range world.Receivers[s] {
			s, i := s, i
			node := b.Receivers[s][i]
			tr := world.Traces[s][i]
			drv.Slot(0, w.Churn, w.Churn,
				func() {
					rx := receiver.New(b.Net, world.Domain, node, receiver.Config{
						Session: s, MaxLayers: source.DefaultLayers,
						InitialLevel: 1, Controller: b.Controller.ID,
					})
					rx.OnChange = func(c receiver.Change) { tr.Set(c.At, c.To) }
					rx.Start()
					cur[s][i] = rx
				},
				func() {
					if rx := cur[s][i]; rx != nil {
						rx.Depart()
						cur[s][i] = nil
					}
				})
		}
	}
	return cur, drv
}

// liveReceivers returns each slot's live incarnation, session-major, with
// nil for a departed slot.
func liveReceivers(world *experiments.World, cur [][]*receiver.Receiver) []*receiver.Receiver {
	var out []*receiver.Receiver
	for s := range world.Receivers {
		for i, rx := range world.Receivers[s] {
			if cur != nil {
				rx = cur[s][i]
			}
			out = append(out, rx)
		}
	}
	return out
}

// checkMembership compares the controller's registration table with the
// set of live receivers.
func checkMembership(c *controller.Controller, live []*receiver.Receiver) error {
	var want []controller.ReceiverID
	for _, rx := range live {
		if rx != nil {
			want = append(want, controller.ReceiverID{Session: rx.Session(), Node: rx.Node().ID})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Session != want[j].Session {
			return want[i].Session < want[j].Session
		}
		return want[i].Node < want[j].Node
	})
	got := c.RegisteredReceivers()
	if len(got) != len(want) {
		return fmt.Errorf("controller registers %d receivers, %d are live", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("controller registers %v where live receiver %v was expected", got[i], want[i])
		}
	}
	return nil
}

// reduce fills the outputs from the world at the end of the measured run.
func reduce(o *Outputs, w Workload, b *topology.Build, world *experiments.World, cur [][]*receiver.Receiver, drv *churn.Driver) {
	dur := w.Duration
	traces, optima := world.AllTraces()
	o.MeanDev = metrics.MeanRelativeDeviation(traces, optima, 0, dur)
	total := 0
	for _, tr := range traces {
		c := tr.Changes(0, dur)
		o.Changes = append(o.Changes, c)
		total += c
	}
	for _, rx := range liveReceivers(world, cur) {
		lvl := 0
		if rx != nil {
			lvl = rx.Level()
		}
		o.Levels = append(o.Levels, lvl)
	}
	rxs := float64(len(traces))
	o.ChangesPerRxMin = float64(total) / rxs / (dur.Seconds() / 60)

	rxNode := make(map[netsim.NodeID]bool)
	for _, nodes := range b.Receivers {
		for _, n := range nodes {
			rxNode[n.ID] = true
		}
	}
	var lastHop int64
	for _, l := range b.Net.Links() {
		st := l.Stats()
		o.PacketsDelivered += st.Delivered
		o.QueueDrops += st.Dropped
		if rxNode[l.To] {
			lastHop += st.TxBytes
		}
	}
	o.GoodputKbpsPerRx = float64(lastHop) * 8 / 1000 / rxs / dur.Seconds()

	c := world.Controller
	o.CtlBytesPerRx = float64(c.CtlBytesRecv) / rxs
	o.StepsRun, o.CtlMsgsRecv, o.Deregisters = c.StepsRun, c.CtlMsgsRecv, c.DeregistersRecv
	if drv != nil {
		o.ChurnTransitions = drv.Joins + drv.Leaves
	}
	o.TreeCost = int64(world.Domain.TreeCost())
	o.StateBytes = int64(world.Domain.StateStats().Bytes)
	if a := world.Aggregator; a != nil {
		o.AggFlushes, o.AggAbsorbed, o.AggPurged = a.Flushes, a.Absorbed, a.Purged
	}
	o.PacketAllocs = b.Net.PacketAllocs()
}
