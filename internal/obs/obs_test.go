package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if c.Name() != "x" {
		t.Errorf("Name = %q", c.Name())
	}
	if again := r.Counter("x"); again != c {
		t.Error("re-registration returned a different counter")
	}
}

// TestObsCounterOfSumsSources: a counter backed by component-owned counts
// reads their sum plus its own increments, and a source registered twice
// counts once.
func TestObsCounterOfSumsSources(t *testing.T) {
	r := NewRegistry()
	a, b := int64(3), int64(4)
	r.CounterOf("passes", &a)
	r.CounterOf("passes", &b)
	r.CounterOf("passes", &a)
	c := r.Counter("passes")
	if got := c.Value(); got != 7 {
		t.Errorf("Value = %d, want 7", got)
	}
	a++
	c.Inc()
	if got := c.Value(); got != 9 {
		t.Errorf("Value after updates = %d, want 9", got)
	}
	if len(r.Counters()) != 1 {
		t.Errorf("%d counters registered, want 1", len(r.Counters()))
	}
	var nilReg *Registry
	nilReg.CounterOf("passes", &a) // no-op
}

// TestObsCounterOfConcurrentSources: sources bumped atomically from several
// goroutines — the shards of a sharded engine — may be read while they
// move, and settle to the exact total.
func TestObsCounterOfConcurrentSources(t *testing.T) {
	r := NewRegistry()
	srcs := make([]int64, 4)
	for i := range srcs {
		r.CounterOf("grafts", &srcs[i])
	}
	c := r.Counter("grafts")
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(p *int64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				atomic.AddInt64(p, 1)
			}
		}(&srcs[i])
	}
	for c.Value() < 4000 {
		runtime.Gosched()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Errorf("Value = %d, want 4000", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 || c.Name() != "" {
		t.Error("nil counter not inert")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Name() != "" {
		t.Error("nil histogram not inert")
	}
	var rec *Recorder
	rec.Record(Event{})
	if rec.Total() != 0 || rec.Cap() != 0 || rec.Events() != nil {
		t.Error("nil recorder not inert")
	}
	if err := rec.WriteLog(&bytes.Buffer{}); err != nil {
		t.Errorf("nil recorder WriteLog: %v", err)
	}
	var a *Audit
	a.Add(AuditPass{})
	if a.Total() != 0 || a.Passes() != nil {
		t.Error("nil audit not inert")
	}
	var o *Obs
	o.ObserveEngine(sim.NewEngine(1))
	if o.Dump() != nil {
		t.Error("nil Obs Dump should be nil")
	}
	var reg *Registry
	if reg.Counter("x") != nil || reg.Histogram("y", nil) != nil {
		t.Error("nil registry should hand out nil instruments")
	}
	if reg.Counters() != nil || reg.Histograms() != nil {
		t.Error("nil registry enumerations should be nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d", h.Count())
	}
	want := []int64{2, 1, 1, 2} // <=1, <=10, <=100, overflow
	for i, w := range want {
		if h.counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
	if h.min != 0.5 || h.max != 5000 {
		t.Errorf("min/max = %g/%g", h.min, h.max)
	}
	if got, w := h.Mean(), h.Sum()/6; got != w {
		t.Errorf("Mean = %g, want %g", got, w)
	}
}

func TestRegistryCrossTypePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a")
	r.Histogram("b", []float64{1})
	for _, f := range []func(){
		func() { r.Histogram("a", []float64{1}) },
		func() { r.Counter("b") },
		func() { r.Histogram("c", []float64{2, 1}) },
		func() { r.CounterOf("b", new(int64)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestHistogramBoundsMismatchPanics: several components register the same
// histogram (every controller registers controller_fanin); identical bounds
// share one histogram, different bounds would silently merge differently
// bucketed data and must panic instead.
func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fanin", []float64{1, 10})
	if again := r.Histogram("fanin", []float64{1, 10}); again != h {
		t.Error("re-registration with the same bounds returned a different histogram")
	}
	for _, bounds := range [][]float64{{1, 100}, {1}, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-registration with bounds %v did not panic", bounds)
				}
			}()
			r.Histogram("fanin", bounds)
		}()
	}
}

func TestRegistrySortedEnumeration(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta")
	r.Counter("alpha")
	r.Histogram("mid", []float64{1})
	cs := r.Counters()
	if len(cs) != 2 || cs[0].Name() != "alpha" || cs[1].Name() != "zeta" {
		t.Errorf("counters not sorted: %v, %v", cs[0].Name(), cs[1].Name())
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(Event{Seq: int64(i)})
	}
	if r.Total() != 5 || r.Cap() != 3 {
		t.Fatalf("total/cap = %d/%d", r.Total(), r.Cap())
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, want := range []int64{2, 3, 4} {
		if evs[i].Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 events retained of 5 recorded") {
		t.Errorf("log header missing: %q", buf.String())
	}
}

func TestAuditRingAndNumbering(t *testing.T) {
	a := NewAudit(2)
	for i := 0; i < 3; i++ {
		a.Add(AuditPass{At: sim.Time(i) * sim.Second, Receivers: []AuditEntry{{Node: i}}})
	}
	if a.Total() != 3 {
		t.Fatalf("Total = %d", a.Total())
	}
	ps := a.Passes()
	if len(ps) != 2 || ps[0].Pass != 2 || ps[1].Pass != 3 {
		t.Fatalf("passes = %+v", ps)
	}
	if ps[1].AtSeconds != 2 {
		t.Errorf("AtSeconds = %g", ps[1].AtSeconds)
	}
	var buf bytes.Buffer
	if err := a.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pass 3 at 2.000s") {
		t.Errorf("log missing pass line: %q", buf.String())
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EvEnqueue: "enqueue", EvDrop: "drop", EvDeliver: "deliver",
		EvGraft: "graft", EvPrune: "prune", EvRepair: "repair", EvPass: "pass",
		EventKind(99): "kind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestDumpJSONAndCSV(t *testing.T) {
	e := sim.NewEngine(7)
	o := New(Options{FlightRecorder: 8, AuditPasses: 4})
	o.ObserveEngine(e)
	grafts := int64(3)
	o.Reg.CounterOf("mcast_grafts", &grafts)
	qd := o.Reg.Histogram("link_queue_depth", []float64{0, 1, 2, 4, 8})
	qd.Observe(2)
	qd.Observe(100)
	o.Rec.Record(Event{At: sim.Second, Kind: EvGraft, From: 1, To: 2, Session: 0, Seq: 5})
	o.Audit.Add(AuditPass{At: 2 * sim.Second, Topologies: 1,
		Receivers: []AuditEntry{{Node: 4, Session: 0, Level: 2, Loss: 0.25, Parent: 1, OnTree: true, Prescribed: 3}}})

	d := o.Dump()
	var js bytes.Buffer
	if err := d.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	// Round-trips as valid JSON (including the "+Inf" bucket bound).
	var back map[string]any
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	for _, want := range []string{`"mcast_grafts"`, `"+Inf"`, `"kind": "graft"`, `"prescribed": 3`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}

	var cs bytes.Buffer
	if err := d.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cs.String(), "counter,mcast_grafts,3") {
		t.Errorf("CSV missing counter row:\n%s", cs.String())
	}
	if !strings.Contains(cs.String(), "bucket,link_queue_depth,+Inf,2") {
		t.Errorf("CSV missing overflow bucket row:\n%s", cs.String())
	}
}

// TestBucketDumpRoundTrip: a marshalled dump must unmarshal back into the
// same typed buckets, "+Inf" bound included — consumers of -obs exports
// parse with the same types.
func TestBucketDumpRoundTrip(t *testing.T) {
	in := []BucketDump{{LE: 4, Count: 2}, {LE: math.Inf(1), Count: 7}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []BucketDump
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if len(out) != 2 || out[0] != in[0] || !math.IsInf(out[1].LE, 1) || out[1].Count != 7 {
		t.Errorf("round-trip mismatch: %v -> %v", in, out)
	}
}

func TestDumpCumulativeBuckets(t *testing.T) {
	o := New(Options{FlightRecorder: -1, AuditPasses: -1})
	h := o.Reg.Histogram("link_queue_depth", []float64{0, 1, 2, 4, 8, 12, 16, 20, 32, 64})
	for _, v := range []float64{0, 1, 3, 9, 1e9} {
		h.Observe(v)
	}
	d := o.Dump()
	var qd *HistogramDump
	for i := range d.Histograms {
		if d.Histograms[i].Name == "link_queue_depth" {
			qd = &d.Histograms[i]
		}
	}
	if qd == nil {
		t.Fatal("link_queue_depth not exported")
	}
	last := qd.Buckets[len(qd.Buckets)-1]
	if last.Count != qd.Count {
		t.Errorf("overflow cumulative count %d != total %d", last.Count, qd.Count)
	}
	for i := 1; i < len(qd.Buckets); i++ {
		if qd.Buckets[i].Count < qd.Buckets[i-1].Count {
			t.Errorf("bucket counts not cumulative at %d", i)
		}
	}
	if d.Flight != nil || d.Audit != nil {
		t.Error("disabled recorders leaked into the dump")
	}
}

// counterValue reads the counter registered in o under name.
func counterValue(t *testing.T, o *Obs, name string) int64 {
	t.Helper()
	for _, c := range o.Reg.Counters() {
		if c.Name() == name {
			return c.Value()
		}
	}
	t.Fatalf("no counter %q registered", name)
	return 0
}

// histogramOf returns the histogram registered in o under name.
func histogramOf(t *testing.T, o *Obs, name string) *Histogram {
	t.Helper()
	for _, h := range o.Reg.Histograms() {
		if h.Name() == name {
			return h
		}
	}
	t.Fatalf("no histogram %q registered", name)
	return nil
}

// netProbeRig runs a tiny congested line network with a NetProbe attached.
func netProbeRig(t *testing.T) (*sim.Engine, *Obs, *netsim.Link) {
	t.Helper()
	e := sim.NewEngine(1)
	n := netsim.New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	// 1000B at 8e5 bps = 10ms serialization; queue limit 2.
	n.Connect(a, b, netsim.LinkConfig{Bandwidth: 8e5, Delay: 5 * sim.Millisecond, QueueLimit: 2})

	o := New(Options{FlightRecorder: 64, AuditPasses: -1})
	n.AttachProbe(NewNetProbe(o))
	o.ObserveEngine(e)

	for i := 0; i < 5; i++ {
		a.SendUnicast(&netsim.Packet{Kind: netsim.Control, Src: a.ID, Dst: b.ID,
			Group: netsim.NoGroup, Size: 1000, Seq: int64(i)})
	}
	e.Run()
	return e, o, a.LinkTo(b.ID)
}

func TestNetProbeCountsMatchLinkStats(t *testing.T) {
	_, o, link := netProbeRig(t)
	st := link.Stats()
	if got := counterValue(t, o, "link_enqueues"); got != int64(st.Enqueued) {
		t.Errorf("link_enqueues = %d, link says %d", got, st.Enqueued)
	}
	if got := counterValue(t, o, "link_delivers"); got != int64(st.Delivered) {
		t.Errorf("link_delivers = %d, link says %d", got, st.Delivered)
	}
	dropsQueue := counterValue(t, o, "link_drops_queue")
	if dropsQueue != int64(st.Dropped) {
		t.Errorf("link_drops_queue = %d, link says %d", dropsQueue, st.Dropped)
	}
	if got := counterValue(t, o, "link_drops_down"); got != 0 {
		t.Errorf("link_drops_down = %d on a healthy link", got)
	}
	// All five were control packets.
	if got := counterValue(t, o, "link_drops_control"); got != dropsQueue {
		t.Errorf("link_drops_control = %d, want %d", got, dropsQueue)
	}
}

func TestNetProbeLatency(t *testing.T) {
	_, o, _ := netProbeRig(t)
	// First packet: 10ms serialization + 5ms propagation = 15ms, no queuing.
	// Later packets queue behind it, so latencies are 15, 25, 35 ms.
	lat := histogramOf(t, o, "link_latency_ms")
	if got := lat.Count(); got != 3 {
		t.Fatalf("latency observations = %d, want 3", got)
	}
	if got := lat.Sum(); got != 15+25+35 {
		t.Errorf("latency sum = %g ms, want 75", got)
	}
	// Every deliver event carries its latency in Aux (microseconds).
	var delivers []Event
	for _, ev := range o.Rec.Events() {
		if ev.Kind == EvDeliver {
			delivers = append(delivers, ev)
		}
	}
	if len(delivers) != 3 {
		t.Fatalf("deliver events = %d", len(delivers))
	}
	if delivers[0].Aux != int64(15*sim.Millisecond) {
		t.Errorf("first deliver Aux = %dµs, want %d", delivers[0].Aux, int64(15*sim.Millisecond))
	}
}

func TestNetProbeLinkDownCause(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l, _ := n.Connect(a, b, netsim.LinkConfig{Bandwidth: 8e5, Delay: 0})
	o := New(Options{FlightRecorder: 8, AuditPasses: -1})
	n.AttachProbe(NewNetProbe(o))
	l.SetDown()
	// Offer the packet straight to the failed link, as cached multicast
	// forwarding state would (routing no longer points at it).
	l.Send(&netsim.Packet{Kind: netsim.Data, Src: a.ID, Dst: b.ID,
		Group: netsim.NoGroup, Size: 100})
	e.Run()
	down, queue := counterValue(t, o, "link_drops_down"), counterValue(t, o, "link_drops_queue")
	if down != 1 || queue != 0 {
		t.Errorf("down/queue drops = %d/%d, want 1/0", down, queue)
	}
	if got := counterValue(t, o, "link_drops_data"); got != 1 {
		t.Errorf("link_drops_data = %d, want 1", got)
	}
	evs := o.Rec.Events()
	if len(evs) != 1 || evs[0].Kind != EvDrop || evs[0].Aux != DropLinkDown {
		t.Errorf("drop event = %+v", evs)
	}
}

func TestZeroAllocHotPath(t *testing.T) {
	o := New(Options{FlightRecorder: 16, AuditPasses: -1})
	c := o.Reg.Counter("c")
	h := o.Reg.Histogram("h", []float64{1, 2, 4, 8})
	var src int64
	o.Reg.CounterOf("pulled", &src)
	pulled := o.Reg.Counter("pulled")
	rec := o.Rec
	ev := Event{Kind: EvGraft, From: 1, To: 2}

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = pulled.Value() }); n != 0 {
		t.Errorf("pulled Counter.Value allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { rec.Record(ev) }); n != 0 {
		t.Errorf("Recorder.Record allocates %g/op", n)
	}

	var nc *Counter
	var nh *Histogram
	var nr *Recorder
	if n := testing.AllocsPerRun(1000, func() { nc.Inc(); nh.Observe(1); nr.Record(ev) }); n != 0 {
		t.Errorf("nil instrument path allocates %g/op", n)
	}
}
