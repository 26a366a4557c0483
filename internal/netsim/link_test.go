package netsim

import (
	"testing"

	"toposense/internal/sim"
)

// TestSaturatedLinkBuffersStayBounded drives one link that never goes
// idle — offered load twice its capacity, so the queue is always full and
// the propagation pipeline always occupied — for over 10^5 packets, and
// checks that the waiting queue's and the pipeline's backing arrays stay
// sized by their peak occupancy rather than by the packets carried.
func TestSaturatedLinkBuffersStayBounded(t *testing.T) {
	// 1000 B at 1 Mbit/s is 8 ms of serialization; 200 ms of propagation
	// keeps 25 packets in flight.
	cfg := LinkConfig{Bandwidth: 1e6, Delay: 200 * sim.Millisecond}
	e, _, a, b, _ := lineNetwork(t, cfg)
	l := a.links[b.ID]
	const want = 100_000
	delivered := 0
	b.AttachAgent(agentFunc(func(*Packet) { delivered++ }))
	idle := 0
	tk := e.Every(4*sim.Millisecond, func() {
		if !l.Busy() && e.Now() > 8*sim.Millisecond {
			idle++
		}
		a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000})
	})
	for delivered < want {
		e.RunUntil(e.Now() + sim.Second)
	}
	tk.Stop()

	if idle > 0 {
		t.Fatalf("link went idle %d times; the test needs a saturated link", idle)
	}
	if got := l.Stats().PeakQueue; got != l.QueueLimit {
		t.Fatalf("peak queue %d, want the limit %d", got, l.QueueLimit)
	}
	inflightPeak := int(cfg.Delay/(8*sim.Millisecond)) + 1
	if c := cap(l.queue); c > 4*l.QueueLimit {
		t.Errorf("queue capacity %d after %d packets, want O(peak %d)", c, delivered, l.QueueLimit)
	}
	if c := cap(l.inflight); c > 4*inflightPeak {
		t.Errorf("pipeline capacity %d after %d packets, want O(peak %d)", c, delivered, inflightPeak)
	}
}
