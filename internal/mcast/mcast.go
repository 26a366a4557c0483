// Package mcast layers multicast distribution on top of netsim: group
// addressing, source-rooted shortest-path trees, receiver join (graft) and
// leave (prune) processing, and the group-leave latency the paper discusses
// in Section V.
//
// Every (session, layer) pair is one multicast group, exactly as in the
// paper's layered model where each layer is transmitted on its own multicast
// address. Routers keep per-group forwarding state: the set of downstream
// links that lead to at least one member, plus locally attached members.
//
// Joins propagate hop-by-hop toward the source along the unicast
// shortest-path tree (reverse-path), taking one link-propagation delay per
// hop, and stop at the first on-tree router — like an IGMP report followed
// by a PIM graft. Leaves are lazier: when the last member behind a router
// goes away, the router keeps forwarding for LeaveLatency (the IGMP
// last-member query interval) before pruning, so an over-subscribed layer
// keeps congesting the bottleneck for a while after the receiver drops it.
// The paper calls this out as a core difficulty of layered multicast.
//
// Forwarding state is a sparse-dense hybrid. A router in a large topology
// touches only the handful of groups whose trees cross it, so a dense
// [node][group] table would waste nodes×groups pointer slots — the memory
// wall at 10^5 receivers. Instead each node holds a short sorted list of
// (group, entry) pairs, answered by binary search, and is promoted to a
// dense group-indexed slice only once it joins enough trees (a source or a
// hub router). Either way the data path does no map access and no
// allocation — one slice index plus at worst a few comparisons — and each
// entry caches its downstream children as a sorted slice with the outgoing
// links resolved alongside, rebuilt only on graft and prune.
package mcast

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/sim"
)

// DefaultLeaveLatency approximates IGMPv2 last-member query behaviour:
// traffic keeps flowing roughly this long after the last member leaves.
const DefaultLeaveLatency = 1 * sim.Second

// Member receives multicast data packets for groups it has joined.
type Member interface {
	RecvMulticast(p *netsim.Packet)
}

// groupKey identifies a group by its session and layer.
type groupKey struct {
	session, layer int
}

// groupInfo is the domain-wide registration of one group.
type groupInfo struct {
	id     netsim.GroupID
	key    groupKey
	source netsim.NodeID
}

// nodeGroupState is one router's forwarding entry for one group. The
// children currently forwarded to are kept sorted, with the outgoing link
// to each child cached in the parallel links slice, so the data path
// iterates both without consulting any map.
type nodeGroupState struct {
	children   []netsim.NodeID // downstream children, ascending
	links      []*netsim.Link  // links[i] carries traffic to children[i]; lazily resolved
	members    []Member        // locally attached members
	pruneTimer sim.Handle      // pending leave-latency expiry, if any

	// parent is the upstream node this router grafted toward, or NoNode
	// when off-tree (or orphaned by a failure). Tree repair needs it to
	// detach from the *old* parent after a reroute, which the routing
	// table can no longer answer.
	parent netsim.NodeID

	// idleSince is when the router last went idle (no members, no
	// children) and scheduled its leave-latency timer; zero otherwise. It
	// feeds the departure-to-prune latency histogram: the gap between the
	// last member leaving and the prune landing at the parent.
	idleSince sim.Time
}

func (s *nodeGroupState) active() bool {
	return len(s.members) > 0 || len(s.children) > 0
}

// addChild inserts c in sorted position (a no-op when already present) and
// caches the outgoing link.
func (s *nodeGroupState) addChild(c netsim.NodeID, link *netsim.Link) {
	i := 0
	for i < len(s.children) && s.children[i] < c {
		i++
	}
	if i < len(s.children) && s.children[i] == c {
		return
	}
	s.children = append(s.children, 0)
	s.links = append(s.links, nil)
	copy(s.children[i+1:], s.children[i:])
	copy(s.links[i+1:], s.links[i:])
	s.children[i] = c
	s.links[i] = link
}

// removeChild drops c, preserving order.
func (s *nodeGroupState) removeChild(c netsim.NodeID) {
	for i, have := range s.children {
		if have == c {
			s.children = append(s.children[:i], s.children[i+1:]...)
			s.links = append(s.links[:i], s.links[i+1:]...)
			return
		}
	}
}

// denseGroupsPerNode is the promotion threshold: once a node carries state
// for this many groups, its sorted-list container is promoted to a dense
// group-indexed slice. Sources and hub routers cross it quickly; leaf
// routers in a large topology never do.
const denseGroupsPerNode = 32

// nodeGroups holds one node's forwarding entries across groups: sorted
// (ids, sts) pairs while sparse, a group-indexed slice once promoted.
type nodeGroups struct {
	ids   []netsim.GroupID  // sorted group IDs (sparse form)
	sts   []*nodeGroupState // sts[i] is the entry for ids[i]
	dense []*nodeGroupState // non-nil once promoted; indexed by GroupID
}

// get returns the node's entry for g, or nil. Zero allocations: the data
// path calls it per packet per hop.
func (ng *nodeGroups) get(g netsim.GroupID) *nodeGroupState {
	if ng.dense != nil {
		if int(g) >= len(ng.dense) {
			return nil
		}
		return ng.dense[g]
	}
	lo, hi := uint(0), uint(len(ng.ids))
	for lo < hi {
		mid := (lo + hi) / 2
		if ng.ids[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < uint(len(ng.ids)) && ng.ids[lo] == g {
		return ng.sts[lo]
	}
	return nil
}

// put installs st as the entry for g (which must not be present) and
// promotes the container to dense form past the threshold.
func (ng *nodeGroups) put(g netsim.GroupID, st *nodeGroupState) {
	if ng.dense != nil {
		for int(g) >= len(ng.dense) {
			ng.dense = append(ng.dense, nil)
		}
		ng.dense[g] = st
		return
	}
	i := 0
	for i < len(ng.ids) && ng.ids[i] < g {
		i++
	}
	ng.ids = append(ng.ids, 0)
	ng.sts = append(ng.sts, nil)
	copy(ng.ids[i+1:], ng.ids[i:])
	copy(ng.sts[i+1:], ng.sts[i:])
	ng.ids[i] = g
	ng.sts[i] = st
	if len(ng.ids) >= denseGroupsPerNode {
		max := int(ng.ids[len(ng.ids)-1]) // ids are sorted
		dense := make([]*nodeGroupState, max+1)
		for k, id := range ng.ids {
			dense[id] = ng.sts[k]
		}
		ng.ids, ng.sts, ng.dense = nil, nil, dense
	}
}

// Domain manages multicast state for an entire network. It installs itself
// as the MulticastHandler on every node.
type Domain struct {
	net          *netsim.Network
	LeaveLatency sim.Time

	groups []groupInfo                 // indexed by GroupID
	byKey  map[groupKey]netsim.GroupID // (session,layer) -> id

	// state[node] holds the node's forwarding entries across groups —
	// sparse (sorted pairs) for the common leaf router, dense past the
	// promotion threshold. It grows lazily on the control path
	// (graft/join); the data path only reads.
	state []nodeGroups

	// Grafts and Prunes count tree maintenance operations (for tests and
	// reporting). Repairs counts nodes re-homed (or orphaned) by route
	// changes after link failures. Grafts and prunes can fire from any
	// shard of a partitioned network, so the counters move atomically;
	// read them only while the engine is quiescent.
	Grafts, Prunes, Repairs int64

	// Set by SetObs; both sit on the control path, off HandleMulticast.
	rec     *obs.Recorder
	pruneMs *obs.Histogram
}

// SetObs registers the tree counters and the departure-to-prune histogram
// with o, and records tree events in its flight recorder. Nil is a no-op.
func (d *Domain) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	o.Reg.CounterOf("mcast_grafts", &d.Grafts)
	o.Reg.CounterOf("mcast_prunes", &d.Prunes)
	o.Reg.CounterOf("mcast_repairs", &d.Repairs)
	// Last member leaving a last-hop router to its prune landing upstream.
	d.pruneMs = o.Reg.Histogram("churn_departure_prune_ms",
		[]float64{100, 250, 500, 1000, 1500, 2000, 3000, 5000})
	d.rec = o.Rec
}

// noteTree records one tree-maintenance operation in the flight recorder,
// if any. to is the parent grafted toward or pruned from, or NoNode.
func (d *Domain) noteTree(kind obs.EventKind, n, to netsim.NodeID, g netsim.GroupID) {
	if d.rec == nil {
		return
	}
	session, layer := d.SessionLayer(g)
	d.rec.Record(obs.Event{
		At:      d.net.SchedulerFor(n).Now(),
		Kind:    kind,
		From:    int32(n),
		To:      int32(to),
		Session: int32(session),
		Layer:   int32(layer),
		Seq:     int64(g),
	})
}

// NewDomain creates the multicast domain and installs it on all current
// nodes of the network; nodes added afterwards are covered automatically
// via the network's OnAddNode hook.
func NewDomain(net *netsim.Network) *Domain {
	d := &Domain{
		net:          net,
		LeaveLatency: DefaultLeaveLatency,
		byKey:        make(map[groupKey]netsim.GroupID),
		// Preallocate one container per node: on a partitioned network each
		// shard touches only its own nodes' containers, but a lazy append
		// of the backing slice itself would race across shards.
		state: make([]nodeGroups, net.NumNodes()),
	}
	d.Install()
	net.OnAddNode = func(n *netsim.Node) {
		n.SetMulticastHandler(d)
		for int(n.ID) >= len(d.state) {
			d.state = append(d.state, nodeGroups{})
		}
	}
	net.OnRouteChange(d.onRouteChange)
	return d
}

// Install (re)attaches the domain as multicast handler on every node.
func (d *Domain) Install() {
	for _, n := range d.net.Nodes() {
		n.SetMulticastHandler(d)
	}
}

// RegisterGroup declares a (session, layer) group rooted at source and
// returns its GroupID. Registering the same pair twice returns the original
// ID (the source must match).
func (d *Domain) RegisterGroup(session, layer int, source netsim.NodeID) netsim.GroupID {
	key := groupKey{session, layer}
	if id, ok := d.byKey[key]; ok {
		if d.groups[id].source != source {
			panic(fmt.Sprintf("mcast: group s%d/l%d re-registered with a different source", session, layer))
		}
		return id
	}
	id := netsim.GroupID(len(d.groups))
	d.groups = append(d.groups, groupInfo{id: id, key: key, source: source})
	d.byKey[key] = id
	return id
}

// GroupOf returns the GroupID for (session, layer), or netsim.NoGroup.
func (d *Domain) GroupOf(session, layer int) netsim.GroupID {
	if id, ok := d.byKey[groupKey{session, layer}]; ok {
		return id
	}
	return netsim.NoGroup
}

// Source returns the source node of a group.
func (d *Domain) Source(g netsim.GroupID) netsim.NodeID { return d.groups[g].source }

// SessionLayer returns the (session, layer) a group carries.
func (d *Domain) SessionLayer(g netsim.GroupID) (int, int) {
	gi := d.groups[g]
	return gi.key.session, gi.key.layer
}

// NumGroups returns how many groups are registered.
func (d *Domain) NumGroups() int { return len(d.groups) }

func (d *Domain) stateOf(n netsim.NodeID, g netsim.GroupID) *nodeGroupState {
	for int(n) >= len(d.state) {
		d.state = append(d.state, nodeGroups{})
	}
	ng := &d.state[n]
	if st := ng.get(g); st != nil {
		return st
	}
	st := &nodeGroupState{parent: netsim.NoNode}
	ng.put(g, st)
	return st
}

func (d *Domain) lookup(n netsim.NodeID, g netsim.GroupID) *nodeGroupState {
	if int(n) >= len(d.state) {
		return nil
	}
	return d.state[n].get(g)
}

// upstream returns the next hop from n toward the group source, or NoNode
// when n is the source (or the source is unreachable).
func (d *Domain) upstream(n netsim.NodeID, g netsim.GroupID) netsim.NodeID {
	src := d.groups[g].source
	if n == src {
		return netsim.NoNode
	}
	return d.net.NextHop(n, src)
}

// Join attaches m as a member of group g at node n. The graft propagates
// hop-by-hop toward the source; forwarding state at each hop is created when
// the graft reaches it, so the first data packets arrive roughly one
// path-propagation-delay after the join.
func (d *Domain) Join(n netsim.NodeID, g netsim.GroupID, m Member) {
	st := d.stateOf(n, g)
	for _, existing := range st.members {
		if existing == m {
			return // already joined
		}
	}
	wasActive := st.active()
	st.members = append(st.members, m)
	d.cancelPrune(n, st)
	if !wasActive {
		d.graftUpstream(n, g)
	}
}

// graftUpstream walks toward the source adding forwarding state, one link
// propagation delay per hop, stopping at the first already-active router.
// The grafting node records its chosen parent immediately; the in-flight
// graft installs forwarding state only if that choice still stands when it
// lands, so a reroute during the propagation delay cannot resurrect state
// on an abandoned branch.
func (d *Domain) graftUpstream(n netsim.NodeID, g netsim.GroupID) {
	st := d.stateOf(n, g)
	up := d.upstream(n, g)
	if up == netsim.NoNode {
		st.parent = netsim.NoNode
		return // n is the source (or disconnected)
	}
	link := d.net.Node(n).LinkTo(up)
	if link == nil {
		st.parent = netsim.NoNode
		return
	}
	st.parent = up
	atomic.AddInt64(&d.Grafts, 1)
	d.noteTree(obs.EvGraft, n, up, g)
	// A graft crossing a partition boundary executes in up's shard, where
	// reading n's state back would race. The reroute guard exists only for
	// link-failure repair, and faults are unsupported on partitioned
	// networks, so across a boundary the guard is provably never needed.
	cross := d.net.CrossPartition(n, up)
	d.net.SchedulerBetween(n, up).Schedule(link.Delay, func() {
		if !cross {
			if cur := d.lookup(n, g); cur == nil || cur.parent != up {
				return // rerouted while the graft was in flight
			}
		}
		upSt := d.stateOf(up, g)
		wasActive := upSt.active()
		upSt.addChild(n, d.net.Node(up).LinkTo(n))
		d.cancelPrune(up, upSt)
		if !wasActive {
			d.graftUpstream(up, g)
		}
	})
}

// Leave detaches m from group g at node n. If that leaves the router with
// no members and no downstream children, the router keeps forwarding for
// LeaveLatency, then prunes itself off the tree.
func (d *Domain) Leave(n netsim.NodeID, g netsim.GroupID, m Member) {
	st := d.lookup(n, g)
	if st == nil {
		return
	}
	for i, existing := range st.members {
		if existing == m {
			st.members = append(st.members[:i], st.members[i+1:]...)
			break
		}
	}
	d.maybeSchedulePrune(n, g, st)
}

func (d *Domain) maybeSchedulePrune(n netsim.NodeID, g netsim.GroupID, st *nodeGroupState) {
	if st.active() || !st.pruneTimer.IsZero() {
		return
	}
	st.idleSince = d.net.SchedulerFor(n).Now()
	// The timer fires in n's own context, so it lives on n's shard — which
	// also keeps the handle cancellable (cross-shard schedules are not).
	st.pruneTimer = d.net.SchedulerFor(n).Schedule(d.LeaveLatency, func() {
		st.pruneTimer = sim.Handle{}
		if st.active() {
			return // re-joined during the leave-latency window
		}
		d.pruneFromParent(n, g)
	})
}

// pruneFromParent tells n's grafted parent to stop forwarding to n. The
// prune takes one link propagation delay; the upstream router then checks
// whether it too has gone idle. The parent is taken from the forwarding
// entry, not recomputed from routing: after a failure the two can differ,
// and the prune must reach the router that is actually forwarding to n.
func (d *Domain) pruneFromParent(n netsim.NodeID, g netsim.GroupID) {
	st := d.lookup(n, g)
	if st == nil || st.parent == netsim.NoNode {
		return
	}
	up := st.parent
	st.parent = netsim.NoNode
	idle := st.idleSince
	st.idleSince = 0
	link := d.net.Node(n).LinkTo(up)
	if link == nil {
		return
	}
	atomic.AddInt64(&d.Prunes, 1)
	d.noteTree(obs.EvPrune, n, up, g)
	sched := d.net.SchedulerBetween(n, up)
	sched.Schedule(link.Delay, func() {
		upSt := d.lookup(up, g)
		if upSt == nil {
			return
		}
		upSt.removeChild(n)
		if d.pruneMs != nil && idle > 0 {
			// Departure-to-prune latency: last member left at idle, the
			// prune just landed upstream. Cascade prunes (idle == 0) are
			// not re-counted — the latency was paid at the last-hop router.
			d.pruneMs.Observe((sched.Now() - idle).Seconds() * 1e3)
		}
		if !upSt.active() && upSt.pruneTimer.IsZero() {
			// Upstream prunes promptly: the leave-latency cost was already
			// paid at the last-hop router.
			d.pruneFromParent(up, g)
		}
	})
}

// cancelPrune clears n's pending leave-latency expiry. The handle must be
// cancelled on the scheduler that owns it — n's shard.
func (d *Domain) cancelPrune(n netsim.NodeID, st *nodeGroupState) {
	if !st.pruneTimer.IsZero() {
		d.net.SchedulerFor(n).Cancel(st.pruneTimer)
		st.pruneTimer = sim.Handle{}
		st.idleSince = 0
	}
}

// onRouteChange repairs distribution trees after a link failure or repair.
// Routing notifications arrive per destination; only groups rooted at a
// changed destination can have moved, and within those only the nodes whose
// next hop toward the source changed need re-homing.
func (d *Domain) onRouteChange(changes []netsim.RouteChange) {
	for _, ch := range changes {
		for gi := range d.groups {
			if d.groups[gi].source != ch.Dst {
				continue
			}
			for _, n := range ch.Nodes {
				d.repair(n, d.groups[gi].id)
			}
		}
	}
}

// repair re-homes one on-tree router whose path toward the group source
// moved: detach from the old parent (one link delay, like a prune) and
// graft toward the new one. A router with no route left becomes an orphan —
// it keeps its local members and children but receives nothing until a
// later route change gives it a path to re-graft along.
func (d *Domain) repair(n netsim.NodeID, g netsim.GroupID) {
	st := d.lookup(n, g)
	if st == nil || !st.active() || n == d.groups[g].source {
		return
	}
	newUp := d.upstream(n, g)
	if newUp == st.parent {
		return
	}
	atomic.AddInt64(&d.Repairs, 1)
	d.noteTree(obs.EvRepair, n, newUp, g)
	old := st.parent
	st.parent = netsim.NoNode
	if old != netsim.NoNode {
		if link := d.net.Node(n).LinkTo(old); link != nil {
			d.net.SchedulerBetween(n, old).Schedule(link.Delay, func() {
				if cur := d.lookup(n, g); cur != nil && cur.parent == old {
					return // flapped back to the old parent before the detach landed
				}
				upSt := d.lookup(old, g)
				if upSt == nil {
					return
				}
				upSt.removeChild(n)
				if !upSt.active() && upSt.pruneTimer.IsZero() {
					d.pruneFromParent(old, g)
				}
			})
		}
	}
	if newUp == netsim.NoNode {
		return // orphaned
	}
	d.graftUpstream(n, g)
}

// HandleMulticast implements netsim.MulticastHandler: deliver to local
// members and replicate onto every downstream link (never back upstream).
// This is the hottest loop of the simulator — per packet per hop — and it
// runs entirely on the dense state: no map lookups, no sorting, no
// allocation. Children are kept sorted by addChild, so replication order is
// deterministic by construction.
func (d *Domain) HandleMulticast(n *netsim.Node, p *netsim.Packet, from *netsim.Link) {
	st := d.lookup(n.ID, p.Group)
	if st == nil {
		return // not on this group's tree: prune already took effect
	}
	for _, m := range st.members {
		m.RecvMulticast(p)
	}
	for i, c := range st.children {
		if from != nil && c == from.From {
			continue // never forward back where it came from
		}
		link := st.links[i]
		if link == nil {
			// The link was missing when the graft installed this child
			// (asymmetric connectivity); re-resolve in case it exists now.
			if link = n.LinkTo(c); link == nil {
				continue
			}
			st.links[i] = link
		}
		link.Send(p)
	}
}

// ForwardingChildren returns the downstream children of node n for group g,
// sorted. Used by the topology discovery tool.
func (d *Domain) ForwardingChildren(n netsim.NodeID, g netsim.GroupID) []netsim.NodeID {
	st := d.lookup(n, g)
	if st == nil || len(st.children) == 0 {
		return nil
	}
	out := make([]netsim.NodeID, len(st.children))
	copy(out, st.children)
	return out
}

// HasLocalMembers reports whether any member is attached at node n for g.
func (d *Domain) HasLocalMembers(n netsim.NodeID, g netsim.GroupID) bool {
	st := d.lookup(n, g)
	return st != nil && len(st.members) > 0
}

// OnTree reports whether node n currently forwards or consumes group g.
func (d *Domain) OnTree(n netsim.NodeID, g netsim.GroupID) bool {
	st := d.lookup(n, g)
	return st != nil && st.active()
}

// TreeCost returns the total number of links currently carrying multicast
// traffic across every group's distribution tree (each parent->child edge
// counted once). This is the dynamic-routing literature's "tree cost"
// metric; the churn study tracks its drift over time. Control-path only —
// call while the engine is quiescent (a sampler barrier), cost O(entries).
func (d *Domain) TreeCost() int {
	cost := 0
	count := func(st *nodeGroupState) {
		if st != nil {
			cost += len(st.children)
		}
	}
	for i := range d.state {
		ng := &d.state[i]
		if ng.dense != nil {
			for _, st := range ng.dense {
				count(st)
			}
			continue
		}
		for _, st := range ng.sts {
			count(st)
		}
	}
	return cost
}

// StateStats sizes the forwarding state — the numbers the fig_scale study
// tracks to show memory stays sublinear in nodes×groups.
type StateStats struct {
	Nodes      int // nodes with any forwarding container
	Entries    int // live (node, group) forwarding entries
	DenseNodes int // nodes promoted to the dense container
	Bytes      int // approximate resident bytes of all containers and entries
}

// StateStats walks the forwarding state and reports its size. Control-path
// only (reporting); cost is O(entries).
func (d *Domain) StateStats() StateStats {
	const (
		ptrSize   = int(unsafe.Sizeof((*nodeGroupState)(nil)))
		idSize    = int(unsafe.Sizeof(netsim.GroupID(0)))
		nodeSize  = int(unsafe.Sizeof(netsim.NodeID(0)))
		entrySize = int(unsafe.Sizeof(nodeGroupState{}))
		ifaceSize = int(unsafe.Sizeof(Member(nil)))
		ngSize    = int(unsafe.Sizeof(nodeGroups{}))
	)
	s := StateStats{Nodes: len(d.state), Bytes: cap(d.state) * ngSize}
	count := func(st *nodeGroupState) {
		if st == nil {
			return
		}
		s.Entries++
		s.Bytes += entrySize +
			cap(st.children)*nodeSize +
			cap(st.links)*ptrSize +
			cap(st.members)*ifaceSize
	}
	for i := range d.state {
		ng := &d.state[i]
		if ng.dense != nil {
			s.DenseNodes++
			s.Bytes += cap(ng.dense) * ptrSize
			for _, st := range ng.dense {
				count(st)
			}
			continue
		}
		s.Bytes += cap(ng.ids)*idSize + cap(ng.sts)*ptrSize
		for _, st := range ng.sts {
			count(st)
		}
	}
	return s
}
