package main

import (
	"bytes"
	"runtime/pprof"
	"testing"

	"toposense/internal/experiments"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// tinyA is a Topology A world small enough for unit tests.
var tinyA = Workload{
	Name:     "tinyA",
	Topo:     "a,rxset=2",
	Traffic:  experiments.VBR3,
	Duration: 60 * sim.Second,
}

// tracedTinyA wires tinyA behind a Tracer that times every callback and
// runs it for its duration.
func tracedTinyA(t *testing.T) (*Tracer, *experiments.World) {
	t.Helper()
	tr := NewTracer(sim.NewEngine(1), 1)
	_, cfg, err := topology.Parse(tinyA.Topo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.Generate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := experiments.NewWorld(tr, b, experiments.WorldConfig{Seed: 1, Traffic: tinyA.Traffic})
	tr.WrapSeams(b.Net, w.Domain, w.Aggregator)
	w.Run(tinyA.Duration)
	return tr, w
}

func TestCallbackAttribution(t *testing.T) {
	tr, w := tracedTinyA(t)
	ts := tr.Snapshot()
	ev := func(l layer) uint64 { return ts.Layers[l].events }

	// Each receiver fires one start-offset closure, then one report tick
	// per report sent: the ticker's firings belong to the receiver.
	var reports uint64
	rxs := 0
	for _, set := range w.Receivers {
		for _, rx := range set {
			reports += uint64(rx.ReportsSent)
			rxs++
		}
	}
	if got, want := ev(lReceiver), reports+uint64(rxs); got != want {
		t.Errorf("receiver events %d, want %d (%d reports + %d start offsets)", got, want, reports, rxs)
	}
	// The controller's decision ticker: every firing is one pass.
	if got, want := int64(len(ts.Passes)), w.Controller.StepsRun; got != want {
		t.Errorf("controller pass spans %d, controller ran %d passes", got, want)
	}
	// Discovery snapshots once a second: 60 ticks in 60 s.
	if got := ev(lTopodisc); got != 60 || len(ts.Snaps) != 60 {
		t.Errorf("topodisc events %d, snapshot spans %d, want 60", got, len(ts.Snaps))
	}
	if ev(lSource) == 0 || ev(lNetsim) == 0 {
		t.Errorf("source events %d, netsim events %d: both layers must fire", ev(lSource), ev(lNetsim))
	}
	// No ticker may be left charged to package sim, nothing to other.
	if ev(lSim) != 0 || ev(lOther) != 0 {
		t.Errorf("unattributed events: sim %d, other %d", ev(lSim), ev(lOther))
	}
	if ts.McastH.calls == 0 || ts.McastH.timed != ts.McastH.calls {
		t.Errorf("replication calls %d, timed %d: every call sits inside a timed callback", ts.McastH.calls, ts.McastH.timed)
	}
}

func TestLayerEventsSumToFired(t *testing.T) {
	tr, _ := tracedTinyA(t)
	ts := tr.Snapshot()
	if err := checkLayerSum(&ts, tr.Fired()); err != nil {
		t.Fatal(err)
	}
	ts.Layers[lNetsim].events++
	if checkLayerSum(&ts, tr.Fired()) == nil {
		t.Fatal("a miscounted layer passed the sum check")
	}
}

// fakeHandler and fakeFilter advance the tracer's clock and optionally
// call through to a nested seam.
type fakeHandler struct {
	clock *int64
	cost  int64
	inner *traceFilter
}

func (h *fakeHandler) HandleMulticast(n *netsim.Node, p *netsim.Packet, _ *netsim.Link) {
	*h.clock += h.cost
	if h.inner != nil {
		h.inner.FilterTransit(n, p)
	}
}

type fakeFilter struct {
	clock *int64
	cost  int64
}

func (f *fakeFilter) FilterTransit(*netsim.Node, *netsim.Packet) bool {
	*f.clock += f.cost
	return false
}

func TestSpanSelfTime(t *testing.T) {
	var clock int64
	tr := NewTracer(sim.NewEngine(1), 1)
	tr.now = func() int64 { return clock }
	filter := &traceFilter{t: tr, f: &fakeFilter{clock: &clock, cost: 1}}
	handler := &traceHandler{t: tr, h: &fakeHandler{clock: &clock, cost: 3, inner: filter}}

	// A callback of 10 + 2 ns of its own around a 4 ns handler span, which
	// holds a 1 ns filter span: self times 12, 3 and 1.
	tr.Schedule(sim.Second, func() {
		clock += 10
		handler.HandleMulticast(nil, nil, nil)
		clock += 2
	})
	tr.Run()
	ts := tr.Snapshot()
	cb := ts.Layers[lOther]
	if cb.events != 1 || cb.timed != 1 || cb.timedSelfNs != 12 || cb.timedSpanNs != 16 {
		t.Errorf("callback: %+v, want 1 event, self 12, span 16", cb)
	}
	if ts.McastH.calls != 1 || ts.McastH.timedSelfNs != 3 {
		t.Errorf("handler: %+v, want 1 call, self 3", ts.McastH)
	}
	if ts.AggF.calls != 1 || ts.AggF.timedSelfNs != 1 {
		t.Errorf("filter: %+v, want 1 call, self 1", ts.AggF)
	}

	// Outside a timed callback the seams are counted, not timed.
	handler.HandleMulticast(nil, nil, nil)
	if ts := tr.Snapshot(); ts.McastH.calls != 2 || ts.McastH.timed != 1 {
		t.Errorf("untimed handler call: %+v, want 2 calls, 1 timed", ts.McastH)
	}
}

func TestTracedOutputsEqualUntraced(t *testing.T) {
	plain, err := runEpisode(tinyA, 1, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runEpisode(tinyA, 1, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := plain.Out.Digest(), traced.Out.Digest(); a != b {
		t.Fatalf("traced digest %s, untraced %s", b, a)
	}
	if traced.Trace.Fired != traced.Out.Events {
		t.Fatalf("tracer saw %d events, the run fired %d", traced.Trace.Fired, traced.Out.Events)
	}
}

func TestDigestCheckCatchesPerturbation(t *testing.T) {
	ep, err := runEpisode(tinyA, 1, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := *ep
	perturbed.Out.Levels = append([]int(nil), ep.Out.Levels...)
	perturbed.Out.Levels[0]++
	if ep.Out.Digest() == perturbed.Out.Digest() {
		t.Fatal("a changed final level left the digest unchanged")
	}

	r := &run{}
	checkRepeat(r, 0, ep, ep)
	if r.failures != 0 {
		t.Fatalf("a repeated replica failed the check: %v", r.rec.Errors)
	}
	checkRepeat(r, 0, ep, &perturbed)
	if r.failures != 1 {
		t.Fatalf("a perturbed repeat gave %d failures, want 1", r.failures)
	}

	// Off the default seed nothing is compared with golden.json; on it,
	// tinyA's outputs under a real workload's name must not match.
	named := tinyA
	named.Name = Workloads[0].Name
	r = &run{}
	checkGolden(r, named, defaultSeed+1, []*Episode{ep})
	if r.failures != 0 {
		t.Fatalf("a non-default seed was checked against golden.json: %v", r.rec.Errors)
	}
	checkGolden(r, named, defaultSeed, []*Episode{ep})
	if r.failures != 1 {
		t.Fatalf("a digest unlike the golden one gave %d failures, want 1", r.failures)
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		if len(g[w.Name]) != w.Replicas {
			t.Errorf("golden.json has %d digests for %s, want one per replica (%d)", len(g[w.Name]), w.Name, w.Replicas)
		}
	}
}

func TestCPUBuckets(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	long := tinyA
	long.Duration = 3000 * sim.Second
	_, err := runEpisode(long, 1, 0, false, false)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := leafShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range cpuLayers {
		v, ok := shares[l]
		if !ok {
			t.Errorf("no bucket for %s", l)
		}
		total += v
	}
	if total <= 0 || total > 100.0001 {
		t.Errorf("buckets sum to %.2f%%, want (0, 100]", total)
	}
	if shares["sim"] == 0 {
		t.Error("the engine's own frames never showed up as leaves")
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"toposense/internal/sim.(*Ticker).onTick-fm":          "toposense/internal/sim",
		"toposense/internal/receiver.(*Receiver).Start.func1": "toposense/internal/receiver",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
		"main.main":                               "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
	if cpuBucket("internal/runtime/maps") != "runtime" || cpuBucket("toposense/internal/core") != "core" || cpuBucket("sort") != "" {
		t.Error("cpuBucket misfiled a package")
	}
}
