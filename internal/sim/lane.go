package sim

import "fmt"

// Lane is a FIFO stream of firings of one callback at nondecreasing times.
// Scheduling an entry on a lane fires the callback exactly when, and in
// exactly the global order in which, an At on the lane's scheduler would
// have fired it — but the lane keeps only its earliest entry in the event
// queue. A source that schedules a whole batch of packets up front (the VBR
// model spreads each interval's batch evenly across the interval) then
// holds one queue slot instead of one per packet, and allocates no closure
// per entry.
//
// Byte identity with per-entry scheduling holds by construction:
//
//   - At reserves the host queue's next sequence number on the spot,
//     consuming the counter exactly as the equivalent At would, and keeps
//     the (time, sequence) key in the lane.
//   - Only the head entry sits in the queue, under its reserved key. When
//     it fires, the next entry enters the queue under its own reserved key
//     before the callback runs. That key is greater than the key now
//     firing (times are nondecreasing, sequence numbers increasing), so
//     every event that fires before it is already queued or will be queued
//     with a larger sequence number, and the global (time, sequence) order
//     equals the order of the per-entry schedule.
//
// The host is resolved by concrete type: an *Engine, a *ShardedEngine
// (through Global at call time) or one of its shard contexts (so entries
// beyond a window park in the shard's spill like any other event). Any
// other Scheduler — a cross-shard channel, or a wrapper type that embeds an
// *Engine to intercept its schedules — receives a plain At per entry, which
// fires identically, one queue slot per entry.
//
// Entries return no Handle and cannot be cancelled; a callback that must
// fall silent checks its own stopped flag. Pending counts on the engines
// include every lane entry not yet fired.
type Lane struct {
	sched Scheduler
	fn    func()
	fire  func() // onFire, bound once
	last  Time   // latest time handed to At

	// ring[head:] are the entries not yet fired; ring[head] is the one in
	// the host queue, the rest are counted in its parked total.
	ring []laneKey
	head int
	q    *equeue     // host queue of the pending entries
	sh   *shardSched // host context when it is a shard or global queue; nil for an Engine
}

// laneKey is one entry's reserved (time, sequence) queue key.
type laneKey struct {
	at  Time
	seq uint64
}

// NewLane returns an empty lane that fires fn on s.
func NewLane(s Scheduler, fn func()) *Lane {
	if fn == nil {
		panic("sim: NewLane with nil callback")
	}
	l := &Lane{sched: s, fn: fn}
	l.fire = l.onFire
	return l
}

// Schedule adds an entry delay after the scheduler's current time.
func (l *Lane) Schedule(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: lane Schedule with negative delay %v at %v", delay, l.sched.Now()))
	}
	l.At(l.sched.Now() + delay)
}

// At adds an entry firing at absolute time t. It panics, like the
// scheduler's At, when t is in the past or when a global-queue schedule is
// made from inside a shard window, and also when t is earlier than the
// lane's previous entry.
func (l *Lane) At(t Time) {
	if t < l.last {
		panic(fmt.Sprintf("sim: lane At(%v) is before the lane's previous entry at %v", t, l.last))
	}
	q, sh, now := l.host()
	if q == nil {
		l.sched.At(t, l.fn)
		l.last = t
		return
	}
	if t < now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, now))
	}
	if sh != nil && sh.global && sh.eng.running.Load() {
		panic("sim: global schedule from inside a shard window; use the shard or cross-shard scheduler")
	}
	if l.head < len(l.ring) && q != l.q {
		panic("sim: lane host changed while entries are pending")
	}
	key := laneKey{at: t, seq: q.reserve()}
	l.last = t
	if l.head == len(l.ring) {
		l.q, l.sh = q, sh
		l.ring = append(l.ring[:0], key)
		l.head = 0
		l.enqueue(key)
		return
	}
	l.ring = append(l.ring, key)
	q.parked++
}

// host resolves the queue a direct At on the lane's scheduler would use.
// It returns a nil queue for schedulers the lane does not drive directly.
func (l *Lane) host() (*equeue, *shardSched, Time) {
	var sh *shardSched
	switch h := l.sched.(type) {
	case *Engine:
		return &h.q, nil, h.now
	case *ShardedEngine:
		sh = h.Global().(*shardSched)
	case *shardSched:
		sh = h
	default:
		return nil, nil, 0
	}
	return &sh.q, sh, sh.now
}

// enqueue puts entry k into the host queue under its reserved key.
func (l *Lane) enqueue(k laneKey) {
	ev := l.q.acquireKeyed(k.at, k.seq, l.fire)
	if l.sh != nil {
		l.sh.enqueue(ev)
		return
	}
	l.q.push(ev)
}

// onFire runs when the head entry fires: the next entry takes its place in
// the queue, then the callback runs.
func (l *Lane) onFire() {
	l.head++
	if l.head == len(l.ring) {
		l.ring = l.ring[:0]
		l.head = 0
	} else {
		l.q.parked--
		l.enqueue(l.ring[l.head])
		if l.head > len(l.ring)/2 {
			n := copy(l.ring, l.ring[l.head:])
			l.ring = l.ring[:n]
			l.head = 0
		}
	}
	l.fn()
}
