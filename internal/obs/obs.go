// Package obs is the simulator's unified observability layer: typed
// zero-allocation counters and fixed-bucket histograms in a registry, a
// fixed-capacity flight recorder holding the most recent packet / tree /
// controller events, and a controller decision audit log that records, per
// pass, what the controller saw and what it prescribed.
//
// Components register their own instruments from their SetObs; a fact a
// component already counts is exported through Registry.CounterOf, which
// reads the component's field instead of counting the fact twice.
//
// The layer is strictly opt-in and pay-for-what-you-use:
//
//   - Disabled (the default) it costs nothing. The packet plane is observed
//     through netsim.Probe, so with no probe attached the hot path is
//     byte-for-byte the code that ran before this package existed; the
//     mcast/controller hooks are a single nil check. Every instrument's
//     method is also safe on a nil receiver, so call sites never need a
//     guard of their own.
//   - Enabled, the steady-state cost is an integer add (Counter), a bucket
//     scan over a handful of float bounds (Histogram), or a struct copy
//     into a preallocated ring (Recorder); a counter backed by component
//     fields costs nothing until it is read. None of them allocate; the
//     obs-gate benchmarks (make obs-gate) pin allocs/op at zero.
//
// Observation never perturbs the simulation: nothing here schedules
// events, draws from the engine's RNG, or mutates model state, so a run
// with observability enabled is event-for-event identical to one without
// — the determinism test in internal/experiments proves it, and the
// export is byte-identical across runs of the same seed.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 counter. The zero value is
// ready to use; all methods are no-ops on a nil receiver so wiring can be
// left unconditioned. Counts move atomically: on a sharded engine the same
// instrument is hit from every shard's worker.
// Value also adds an atomic load of every source registered with
// Registry.CounterOf.
type Counter struct {
	name string
	v    int64
	srcs []*int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		atomic.AddInt64(&c.v, 1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		atomic.AddInt64(&c.v, n)
	}
}

// Value returns the current count plus every source's (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	v := atomic.LoadInt64(&c.v)
	for _, src := range c.srcs {
		v += atomic.LoadInt64(src)
	}
	return v
}

// Name returns the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Histogram counts observations into fixed buckets. Bucket i counts values
// v <= Bounds[i] (and greater than Bounds[i-1]); one overflow bucket counts
// values above the last bound. Bounds are fixed at registration, so
// Observe never allocates. All methods are no-ops on a nil receiver.
// Observations are serialized by a mutex (min/max/sum update together);
// note the sum of float observations arriving from different shards is
// order-dependent in the last bits, so cross-shard comparisons should key
// on counts, not sums.
type Histogram struct {
	name   string
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; counts has len(bounds)+1
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	// Linear scan: bucket lists are short (≤ ~16) and branch-predictable,
	// which beats binary search at this size and keeps the code alloc-free.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Name returns the registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Registry holds every registered instrument. Registration happens on the
// cold path (setup); hot paths hold the returned *Counter / *Histogram
// directly and never consult the registry again. Instruments are stored
// densely in registration order; exports emit them sorted by name so the
// output is independent of wiring order.
type Registry struct {
	counters []*Counter
	hists    []*Histogram
	byName   map[string]int // name -> index (counters and histograms share the namespace)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if i, ok := r.byName[name]; ok {
		if i >= histBase {
			panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
		}
		return r.counters[i]
	}
	c := &Counter{name: name}
	r.byName[name] = len(r.counters)
	r.counters = append(r.counters, c)
	return c
}

// CounterOf adds src, a count a component keeps itself, as a source of the
// counter under name; the same src twice is a no-op. Every controller of a
// federated world thus feeds one controller_passes. src is read with
// atomic loads, so it must move atomically or only while no export is
// taken. Nil-safe.
func (r *Registry) CounterOf(name string, src *int64) {
	c := r.Counter(name)
	if c == nil {
		return
	}
	for _, s := range c.srcs {
		if s == src {
			return
		}
	}
	c.srcs = append(c.srcs, src)
}

// Histogram registers (or returns the existing) histogram under name with
// the given ascending bucket bounds. Bounds are copied; re-registration
// with different bounds panics.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if i, ok := r.byName[name]; ok {
		// Histograms and counters share byName but live in separate slices;
		// a histogram's index is offset past the counters namespace.
		if i < histBase {
			panic(fmt.Sprintf("obs: %q already registered as a counter", name))
		}
		h := r.hists[i-histBase]
		if !slices.Equal(h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with bounds %v, have %v", name, bounds, h.bounds))
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.byName[name] = histBase + len(r.hists)
	r.hists = append(r.hists, h)
	return h
}

// histBase offsets histogram indices in Registry.byName so one map can
// address both dense slices.
const histBase = 1 << 30

// Counters returns the registered counters sorted by name.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	out := append([]*Counter(nil), r.counters...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Histograms returns the registered histograms sorted by name.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	out := append([]*Histogram(nil), r.hists...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
