package main

import (
	"runtime"
	"strings"
	"time"
	"unsafe"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// layer is the package that owns a scheduled callback, or the package a
// child span measures.
type layer uint8

const (
	lSim layer = iota
	lNetsim
	lMcast
	lReceiver
	lSource
	lController
	lTopodisc
	lChurn
	lOther
	numLayers
)

var layerNames = [numLayers]string{"sim", "netsim", "mcast", "receiver", "source", "controller", "topodisc", "churn", "other"}

// layerOf maps a package path to the callback layer that owns it.
func layerOf(pkg string) layer {
	if rest, ok := strings.CutPrefix(pkg, "toposense/internal/"); ok {
		for l, name := range layerNames[:lOther] {
			if rest == name {
				return layer(l)
			}
		}
	}
	return lOther
}

// funcPackage returns the import path of a fully qualified function name
// as runtime.Func and pprof print it: "a/b/pkg.(*T).m.func1" -> "a/b/pkg".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// funcCode and funcClosure read a func value's code pointer and closure
// object. A method value bound once (sim.Ticker's tick) keeps one closure
// object for its whole life, which is how a re-arming ticker is told apart
// from a fresh one.
func funcCode(fn func()) uintptr    { return **(**uintptr)(unsafe.Pointer(&fn)) }
func funcClosure(fn func()) uintptr { return *(*uintptr)(unsafe.Pointer(&fn)) }

// tickerCode is the code pointer sim.Every schedules for every ticker.
var tickerCode = func() uintptr {
	probe := &codeProbe{}
	sim.Every(probe, sim.Second, func() {})
	return funcCode(probe.fn)
}()

// codeProbe is a Scheduler that only records the callback handed to it.
type codeProbe struct {
	sim.Scheduler
	fn func()
}

func (p *codeProbe) Schedule(_ sim.Time, fn func()) sim.Handle { p.fn = fn; return sim.Handle{} }

// span is one open timed interval on the tracer's stack.
type span struct {
	start int64
	child int64 // nanoseconds covered by child spans
}

// layerStats accumulates one layer's counts and sampled times.
type layerStats struct {
	events      uint64 // callbacks fired (every one counted)
	timed       uint64 // callbacks timed
	timedSelfNs int64  // self time of timed callbacks
	timedSpanNs int64  // full duration of timed callbacks
}

// callStats accumulates a wrapped seam's calls.
type callStats struct {
	calls       uint64
	timed       uint64
	timedSelfNs int64
}

// TraceStats is what a Tracer has counted and timed so far. A copy is a
// snapshot: later firings do not change it.
type TraceStats struct {
	Layers  [numLayers]layerStats
	McastH  callStats // mcast.Domain.HandleMulticast (replication)
	AggF    callStats // mcast.Aggregator.FilterTransit
	Passes  []int64   // controller decision pass durations (ns)
	Snaps   []int64   // topodisc snapshot sweep durations (ns)
	ChurnNs []int64   // churn transition durations (ns)

	Fired      uint64 // callbacks fired through the tracer
	PendingSum uint64 // queue length summed over timed firings
	PendingN   uint64
}

// Snapshot returns a snapshot of the tracer's counters.
func (t *Tracer) Snapshot() TraceStats { return t.stats }

// Tracer is a sim.Runner that wraps a plain engine: every callback
// scheduled through it is tagged with its owning package and counted when
// it fires, and every sampleEvery-th firing (and every firing of the rare
// heavy layers) is timed as a span. Handler and filter wrappers open child
// spans inside a timed callback, so a layer's self time is its spans minus
// the children they contain.
type Tracer struct {
	*sim.Engine
	now         func() int64
	sampleEvery uint64
	stats       TraceStats

	stack []span
	code  map[uintptr]layer
	free  []*shim

	// curClosure/curLayer describe the callback now firing, so a ticker
	// re-arming from inside its own firing inherits its owner.
	curClosure uintptr
	curLayer   layer
	curTicker  bool
}

// alwaysTimed marks the layers whose callbacks are rare and heavy enough
// to time on every firing.
var alwaysTimed = [numLayers]bool{lController: true, lTopodisc: true, lChurn: true}

// NewTracer wraps e. sampleEvery <= 1 times every callback.
func NewTracer(e *sim.Engine, sampleEvery uint64) *Tracer {
	base := time.Now()
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{
		Engine:      e,
		now:         func() int64 { return int64(time.Since(base)) },
		sampleEvery: sampleEvery,
		code:        make(map[uintptr]layer),
	}
}

// shim is a pooled wrapper around one scheduled callback.
type shim struct {
	t       *Tracer
	fn      func()
	l       layer
	ticker  bool
	fireFn  func()
	closure uintptr
}

// Schedule implements sim.Scheduler.
func (t *Tracer) Schedule(delay sim.Time, fn func()) sim.Handle {
	return t.Engine.Schedule(delay, t.wrap(fn))
}

// At implements sim.Scheduler.
func (t *Tracer) At(at sim.Time, fn func()) sim.Handle {
	return t.Engine.At(at, t.wrap(fn))
}

func (t *Tracer) wrap(fn func()) func() {
	var s *shim
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s = &shim{t: t}
		s.fireFn = s.fire
	}
	s.fn = fn
	s.closure = funcClosure(fn)
	s.l, s.ticker = t.attribute(fn, s.closure)
	return s.fireFn
}

// attribute finds the layer owning fn. A sim.Every ticker belongs to the
// component that started it: a re-arm from inside the ticker's own firing
// inherits that firing's layer, and a first arm is charged to the first
// caller outside package sim and this benchmark.
func (t *Tracer) attribute(fn func(), closure uintptr) (layer, bool) {
	code := funcCode(fn)
	if code == tickerCode {
		if t.curTicker && closure == t.curClosure {
			return t.curLayer, true
		}
		return callerLayer(), true
	}
	l, ok := t.code[code]
	if !ok {
		name := "?"
		if f := runtime.FuncForPC(code); f != nil {
			name = f.Name()
		}
		l = layerOf(funcPackage(name))
		t.code[code] = l
	}
	return l, false
}

// callerLayer walks the stack above the scheduling call to the first frame
// outside package sim and this benchmark.
func callerLayer() layer {
	var pcs [32]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		pkg := funcPackage(f.Function)
		if pkg != "toposense/internal/sim" && pkg != "main" && pkg != "toposense/perfbench" {
			return layerOf(pkg)
		}
		if !more {
			return lSim
		}
	}
}

func (s *shim) fire() {
	t := s.t
	fn, l, ticker, closure := s.fn, s.l, s.ticker, s.closure
	s.fn = nil
	t.free = append(t.free, s)

	st := &t.stats
	st.Fired++
	st.Layers[l].events++
	prevC, prevL, prevT := t.curClosure, t.curLayer, t.curTicker
	t.curClosure, t.curLayer, t.curTicker = closure, l, ticker
	if st.Fired%t.sampleEvery == 0 || alwaysTimed[l] {
		st.PendingSum += uint64(t.Engine.Pending())
		st.PendingN++
		self, dur := t.timed(fn)
		ls := &st.Layers[l]
		ls.timed++
		ls.timedSelfNs += self
		ls.timedSpanNs += dur
		switch {
		case l == lController && ticker:
			st.Passes = append(st.Passes, dur)
		case l == lTopodisc && ticker:
			st.Snaps = append(st.Snaps, dur)
		case l == lChurn:
			st.ChurnNs = append(st.ChurnNs, dur)
		}
	} else {
		fn()
	}
	t.curClosure, t.curLayer, t.curTicker = prevC, prevL, prevT
}

// timed runs fn inside a span and returns its self time and duration.
func (t *Tracer) timed(fn func()) (self, dur int64) {
	t.stack = append(t.stack, span{start: t.now()})
	fn()
	end := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur = end - top.start
	self = dur - top.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	}
	return self, dur
}

// inTimedSpan reports whether a span is open: child seams are timed only
// inside a timed callback so their samples share its sampling.
func (t *Tracer) inTimedSpan() bool { return len(t.stack) > 0 }

// traceHandler wraps a node's multicast handler as a child span.
type traceHandler struct {
	t *Tracer
	h netsim.MulticastHandler
}

func (w *traceHandler) HandleMulticast(n *netsim.Node, p *netsim.Packet, from *netsim.Link) {
	t := w.t
	t.stats.McastH.calls++
	if !t.inTimedSpan() {
		w.h.HandleMulticast(n, p, from)
		return
	}
	self, _ := t.timed(func() { w.h.HandleMulticast(n, p, from) })
	t.stats.McastH.timed++
	t.stats.McastH.timedSelfNs += self
}

// traceFilter wraps a node's aggregation transit filter as a child span.
type traceFilter struct {
	t *Tracer
	f netsim.TransitFilter
}

func (w *traceFilter) FilterTransit(n *netsim.Node, p *netsim.Packet) bool {
	t := w.t
	t.stats.AggF.calls++
	if !t.inTimedSpan() {
		return w.f.FilterTransit(n, p)
	}
	var consumed bool
	self, _ := t.timed(func() { consumed = w.f.FilterTransit(n, p) })
	t.stats.AggF.timed++
	t.stats.AggF.timedSelfNs += self
	return consumed
}

// WrapSeams installs the handler and filter wrappers on every node. The
// domain is every node's multicast handler and the aggregator (if any) every
// node's transit filter, so the wrapped values are known without a getter.
func (t *Tracer) WrapSeams(net *netsim.Network, d *mcast.Domain, agg *mcast.Aggregator) {
	h := &traceHandler{t: t, h: d}
	var f *traceFilter
	if agg != nil {
		f = &traceFilter{t: t, f: agg}
	}
	for _, n := range net.Nodes() {
		n.SetMulticastHandler(h)
		if f != nil {
			n.SetTransitFilter(f)
		}
	}
}
