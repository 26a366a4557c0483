package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// laneFiring is one observation of a lane program: which entry fired and
// when, with the engine's counters as the callback saw them. Observations
// taken between RunUntil steps carry id -1.
type laneFiring struct {
	at      Time
	id      int
	fired   uint64
	pending int
}

// laneProgram is a random schedule driven from inside its own callbacks:
// each firing draws a few actions — plain schedules (zero delays and equal
// timestamps included), cancels of plain handles, and entries on one of
// several lanes. With useLanes false the lane entries become plain At
// calls instead; the two twins must fire identically.
type laneProgram struct {
	eng      Runner
	s        Scheduler
	r        *rand.Rand
	useLanes bool
	budget   int

	lanes    []*Lane
	laneIDs  [][]int // per lane, the ids of its unfired entries in order
	laneLast []Time
	handles  []Handle
	nextID   int
	laneUsed int
	log      []laneFiring
}

func newLaneProgram(eng Runner, s Scheduler, seed int64, useLanes bool) *laneProgram {
	p := &laneProgram{eng: eng, s: s, r: rand.New(rand.NewSource(seed)), useLanes: useLanes, budget: 400}
	for k := 0; k < 3; k++ {
		k := k
		p.lanes = append(p.lanes, NewLane(s, func() {
			id := p.laneIDs[k][0]
			p.laneIDs[k] = p.laneIDs[k][1:]
			p.fire(id)
		}))
	}
	p.laneIDs = make([][]int, len(p.lanes))
	p.laneLast = make([]Time, len(p.lanes))
	return p
}

func (p *laneProgram) delay() Time {
	if p.r.Intn(8) == 0 {
		return Time(10+p.r.Intn(20)) * Millisecond
	}
	return Time(p.r.Intn(4)) * Millisecond
}

func (p *laneProgram) fire(id int) {
	p.log = append(p.log, laneFiring{at: p.s.Now(), id: id, fired: p.eng.Fired(), pending: p.eng.Pending()})
	p.act(1 + p.r.Intn(3))
}

func (p *laneProgram) act(n int) {
	for i := 0; i < n && p.nextID < p.budget; i++ {
		switch op := p.r.Intn(10); {
		case op < 4:
			id := p.nextID
			p.nextID++
			p.handles = append(p.handles, p.s.Schedule(p.delay(), func() { p.fire(id) }))
		case op < 6:
			if len(p.handles) > 0 {
				p.s.Cancel(p.handles[p.r.Intn(len(p.handles))])
			}
		default:
			k := p.r.Intn(len(p.lanes))
			t := p.s.Now()
			if p.laneLast[k] > t {
				t = p.laneLast[k]
			}
			t += Time(p.r.Intn(3)) * Millisecond
			p.laneAt(k, t)
		}
	}
}

func (p *laneProgram) laneAt(k int, t Time) {
	id := p.nextID
	p.nextID++
	p.laneUsed++
	p.laneLast[k] = t
	if p.useLanes {
		p.laneIDs[k] = append(p.laneIDs[k], id)
		p.lanes[k].At(t)
		return
	}
	p.s.At(t, func() { p.fire(id) })
}

// run seeds the program from outside the run loop, then drives the engine
// in short RunUntil steps, observing the counters between steps.
func (p *laneProgram) run() {
	p.act(8)
	for step := 1; step <= 40; step++ {
		p.eng.RunUntil(Time(step) * 5 * Millisecond)
		p.log = append(p.log, laneFiring{at: Time(step) * 5 * Millisecond, id: -1, fired: p.eng.Fired(), pending: p.eng.Pending()})
	}
	p.eng.Run()
	p.log = append(p.log, laneFiring{id: -1, fired: p.eng.Fired(), pending: p.eng.Pending()})
}

// wrapEngine embeds *Engine and intercepts its schedules, the shape of a
// tracing wrapper. A lane on it must fall back to plain At calls through
// the wrapper.
type wrapEngine struct {
	*Engine
	ats int
}

func (w *wrapEngine) Schedule(d Time, fn func()) Handle {
	return w.At(w.Now()+d, fn)
}

func (w *wrapEngine) At(t Time, fn func()) Handle {
	w.ats++
	return w.Engine.At(t, fn)
}

// laneHosts builds one engine per lane host path, returning the runner
// and the scheduler the program runs on.
var laneHosts = []struct {
	name string
	make func() (Runner, Scheduler)
}{
	{"engine", func() (Runner, Scheduler) {
		e := NewEngine(1)
		return e, e
	}},
	{"sharded-degenerate", func() (Runner, Scheduler) {
		se := NewShardedEngine(1, 1)
		return se, se
	}},
	{"sharded-2-shard-spill", func() (Runner, Scheduler) {
		se := NewShardedEngine(1, 1)
		se.SetPartitions(2, 2*Millisecond)
		return se, se.Shard(1)
	}},
	{"embedding-wrapper", func() (Runner, Scheduler) {
		w := &wrapEngine{Engine: NewEngine(1)}
		return w, w
	}},
}

// TestLaneMatchesPerEntrySchedule is the lane's byte-identity property:
// on every host path, a random program that puts entries on lanes fires
// in the same (time, id) order, with the same Fired and Pending at every
// step, as its twin that schedules each entry separately.
func TestLaneMatchesPerEntrySchedule(t *testing.T) {
	for _, h := range laneHosts {
		t.Run(h.name, func(t *testing.T) {
			used := 0
			for seed := int64(1); seed <= 60; seed++ {
				engL, sL := h.make()
				lane := newLaneProgram(engL, sL, seed, true)
				lane.run()
				engT, sT := h.make()
				twin := newLaneProgram(engT, sT, seed, false)
				twin.run()
				if !reflect.DeepEqual(lane.log, twin.log) {
					for i := range lane.log {
						if i >= len(twin.log) || lane.log[i] != twin.log[i] {
							t.Fatalf("seed %d: first divergence at observation %d: lane %+v", seed, i, lane.log[i])
						}
					}
					t.Fatalf("seed %d: lane log is a prefix of the twin's (%d vs %d)", seed, len(lane.log), len(twin.log))
				}
				if engL.Pending() != 0 {
					t.Fatalf("seed %d: %d entries pending after Run", seed, engL.Pending())
				}
				if w, ok := engL.(*wrapEngine); ok && w.ats < lane.laneUsed {
					t.Fatalf("seed %d: wrapper saw %d At calls for %d lane entries", seed, w.ats, lane.laneUsed)
				}
				used += lane.laneUsed
			}
			if used == 0 {
				t.Fatal("no lane entries generated")
			}
		})
	}
}

func TestLaneHoldsOneQueueSlot(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	l := NewLane(e, func() { fired++ })
	for i := 0; i < 100; i++ {
		l.Schedule(Time(i) * Millisecond)
	}
	if got := e.q.len(); got != 1 {
		t.Fatalf("heap holds %d entries, want 1", got)
	}
	if got := e.Pending(); got != 100 {
		t.Fatalf("Pending = %d, want 100", got)
	}
	e.RunUntil(49 * Millisecond)
	if fired != 50 || e.Pending() != 50 || e.Stats().Pending != 50 {
		t.Fatalf("fired %d pending %d/%d, want 50/50", fired, e.Pending(), e.Stats().Pending)
	}
	e.Run()
	if fired != 100 || e.Pending() != 0 || e.Fired() != 100 {
		t.Fatalf("fired %d pending %d engine fired %d", fired, e.Pending(), e.Fired())
	}
}

func TestLanePanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if s, _ := r.(string); !strings.Contains(s, want) {
				t.Fatalf("%s: panic %q, want it to mention %q", name, r, want)
			}
		}()
		f()
	}
	e := NewEngine(1)
	l := NewLane(e, func() {})
	l.At(5 * Millisecond)
	mustPanic("out of order", "before the lane's previous entry", func() { l.At(3 * Millisecond) })
	e.RunUntil(10 * Millisecond)
	mustPanic("past", "in the past", func() { l.At(7 * Millisecond) })
	mustPanic("negative delay", "negative delay", func() { l.Schedule(-1) })
	mustPanic("nil callback", "nil callback", func() { NewLane(e, nil) })

	// The fallback path panics the same way.
	w := &wrapEngine{Engine: NewEngine(1)}
	lw := NewLane(w, func() {})
	lw.At(5 * Millisecond)
	mustPanic("fallback out of order", "before the lane's previous entry", func() { lw.At(3 * Millisecond) })
	w.RunUntil(10 * Millisecond)
	mustPanic("fallback past", "in the past", func() { lw.At(7 * Millisecond) })
}

func TestLaneSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	l := NewLane(e, func() {})
	batch := func() {
		for i := 0; i < 64; i++ {
			l.Schedule(Time(i) * Millisecond)
		}
		e.Run()
	}
	batch() // size the ring and the free list
	if n := testing.AllocsPerRun(100, batch); n != 0 {
		t.Fatalf("steady-state lane batch allocates %.1f times, want 0", n)
	}
}

// BenchmarkScheduleFireDepth4096 keeps 4096 events queued, the depth a
// VBR source's per-packet schedule reached on the paper's 16-session
// topology.
func BenchmarkScheduleFireDepth4096(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fn := func() {}
	for j := 0; j < 4096; j++ {
		e.Schedule(Time(j+1)*Millisecond, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(4097*Millisecond, fn)
		e.step()
	}
}

// BenchmarkLaneFireDepth4096 keeps the same 4096 firings pending on one
// lane, which holds a single queue slot.
func BenchmarkLaneFireDepth4096(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	l := NewLane(e, func() {})
	for j := 0; j < 4096; j++ {
		l.Schedule(Time(j+1) * Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Schedule(4097 * Millisecond)
		e.step()
	}
}
