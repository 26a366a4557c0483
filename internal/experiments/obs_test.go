package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// obsSpec is a small Topology B run whose rows are the receivers' final
// levels — enough signal to notice any behavioural perturbation.
func obsSpec(seed int64) Spec {
	const dur = 30 * sim.Second
	return NewSpec("obstest", "obstest/B", seed, dur, func(m *Meter) (any, error) {
		w := NewWorldB(2, WorldConfig{Seed: seed, Traffic: VBR3})
		m.ObserveWorld(w)
		w.Run(dur)
		var levels []int
		for s := range w.Receivers {
			for _, rx := range w.Receivers[s] {
				levels = append(levels, rx.Level())
			}
		}
		return levels, nil
	})
}

func marshalIndent(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestObsExportDeterministic: two runs from the same seed must produce
// byte-identical observability exports — counters, histograms, flight
// recorder and audit log included. This is what makes the export citable
// next to a figure.
func TestObsExportDeterministic(t *testing.T) {
	var dumps [][]byte
	for i := 0; i < 2; i++ {
		s := obsSpec(3)
		s.Obs = &obs.Options{}
		r := s.Execute(0)
		if r.Failed() {
			t.Fatalf("run %d failed: %s", i, r.Err)
		}
		if r.Obs == nil {
			t.Fatal("Spec.Obs set but Result.Obs is nil")
		}
		dumps = append(dumps, marshalIndent(t, r.Obs))
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Errorf("identical seeds produced different obs exports:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
			dumps[0], dumps[1])
	}

	// The export must actually contain signal, or determinism is vacuous.
	var d obs.Dump
	if err := json.Unmarshal(dumps[0], &d); err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for _, c := range d.Counters {
		if c.Value > 0 {
			nonZero++
		}
	}
	if nonZero < 4 {
		t.Errorf("only %d non-zero counters in export; wiring looks incomplete:\n%s", nonZero, dumps[0])
	}
	if d.FlightTotal == 0 || len(d.Flight) == 0 {
		t.Error("flight recorder captured nothing")
	}
	if d.AuditTotal == 0 || len(d.Audit) == 0 {
		t.Error("controller audit log captured nothing")
	}
}

// TestObsDoesNotPerturbRun: enabling observability must not change what the
// simulation does — same rows, same event count, same packet count. The
// probe only watches; it never schedules.
func TestObsDoesNotPerturbRun(t *testing.T) {
	plain := obsSpec(5).Execute(0)
	observed := obsSpec(5)
	observed.Obs = &obs.Options{}
	obsRes := observed.Execute(0)
	for _, r := range []Result{plain, obsRes} {
		if r.Failed() {
			t.Fatalf("run failed: %s", r.Err)
		}
	}
	if got, want := marshalIndent(t, obsRes.Rows), marshalIndent(t, plain.Rows); !bytes.Equal(got, want) {
		t.Errorf("observability changed the run's rows:\nwith obs: %s\nwithout:  %s", got, want)
	}
	if plain.Events != obsRes.Events {
		t.Errorf("observability changed the event count: %d without, %d with", plain.Events, obsRes.Events)
	}
	if plain.Packets != obsRes.Packets {
		t.Errorf("observability changed the packet count: %d without, %d with", plain.Packets, obsRes.Packets)
	}

	// With observability off, the BENCH JSON schema is unchanged: no "obs"
	// key at all (omitempty), so existing consumers and goldens are
	// untouched.
	if plain.Obs != nil {
		t.Error("Result.Obs non-nil without Spec.Obs")
	}
	if b := marshalIndent(t, plain); bytes.Contains(b, []byte(`"obs"`)) {
		t.Errorf("obs key leaked into the default result schema:\n%s", b)
	}
}

// ownerSums maps every counter a world's components own to the sum of the
// component fields behind it — the instrument → field table of DESIGN.md
// §6. Keys exist only for components the world built.
func ownerSums(w *World) map[string]int64 {
	sums := map[string]int64{
		"mcast_grafts":  w.Domain.Grafts,
		"mcast_prunes":  w.Domain.Prunes,
		"mcast_repairs": w.Domain.Repairs,
	}
	for _, c := range w.Controllers {
		sums["controller_passes"] += c.StepsRun
		sums["federation_capped_suggestions"] += c.SuggestionsCapped
	}
	if a := w.Aggregator; a != nil {
		sums["agg_reports_absorbed"] = a.Absorbed
		sums["agg_merges"] = a.Merged
		sums["agg_flushes"] = a.Flushes
		sums["agg_batches"] = a.Batches
	}
	if p := w.Parent; p != nil {
		sums["federation_exports"] = p.ExportsRecv
		sums["federation_reconciles"] = p.Reconciles
		sums["federation_budget_churn"] = p.BudgetChanges
	}
	if d := w.Churn; d != nil {
		sums["churn_joins"] = d.Joins
		sums["churn_leaves"] = d.Leaves
	}
	return sums
}

// checkExportOwners asserts the export contract: the exported counters are
// exactly the owned ones (want) plus the packet probe's link_* counters,
// each owned counter equals the sum of its owner fields, and the probe's
// link_* counters agree with the links' own statistics.
func checkExportOwners(t *testing.T, d *obs.Dump, want map[string]int64, links []*netsim.Link) {
	t.Helper()
	got := make(map[string]int64)
	for _, c := range d.Counters {
		got[c.Name] = c.Value
	}
	for name, v := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("export lacks %s (owner fields sum to %d)", name, v)
		} else if g != v {
			t.Errorf("exported %s = %d, owner fields sum to %d", name, g, v)
		}
	}
	// Probe-owned: link_delivers counts arrivals, so it trails the links'
	// Delivered (serialization done) by the packets still propagating.
	var enq, drop int64
	for _, l := range links {
		enq += l.Stats().Enqueued
		drop += l.Stats().Dropped
	}
	if got["link_enqueues"] != enq {
		t.Errorf("exported link_enqueues = %d, links enqueued %d", got["link_enqueues"], enq)
	}
	for _, pair := range [][2]string{{"link_drops_queue", "link_drops_down"}, {"link_drops_data", "link_drops_control"}} {
		if v := got[pair[0]] + got[pair[1]]; v != drop {
			t.Errorf("%s + %s = %d, links dropped %d", pair[0], pair[1], v, drop)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok && !strings.HasPrefix(name, "link_") {
			t.Errorf("export carries %s, which no component of the run owns", name)
		}
	}
	if want["mcast_grafts"] == 0 {
		t.Error("the run grafted nothing; the comparison is vacuous")
	}
}

// TestObserveWorldWiresAggregation: in each observed world every exported
// counter is a view of the counts its owning components keep — summed over
// owners where a world has several (every leaf controller feeds
// controller_passes) — and components a world never built export nothing.
// The sharded case reads the pulled counters after a run whose shards
// updated them concurrently.
func TestObserveWorldWiresAggregation(t *testing.T) {
	const dur, period = 40 * sim.Second, 8 * sim.Second
	cases := []struct {
		name  string
		build func() (*World, *netsim.Network)
	}{
		{"tree/agg/churn/sharded", func() (*World, *netsim.Network) {
			e := sim.NewShardedEngine(1, 2)
			b := topology.MustGenerate(e, &topology.TreeConfig{Depth: 3, Branch: 4, ReceiversPerLeaf: 2})
			return NewWorld(e, b, WorldConfig{Seed: 1, Traffic: CBR, Aggregate: true}), b.Net
		}},
		{"tiered/federated", func() (*World, *netsim.Network) {
			e := sim.NewEngine(1)
			b := topology.MustGenerate(e, &topology.TieredConfig{Seed: 1, FanOut: []int{2, 2},
				Bandwidth: []float64{10e6, 600e3}, ReceiversPerLeaf: 2})
			return NewWorld(e, b, WorldConfig{Seed: 1, Traffic: CBR, Plane: Federated}), b.Net
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want map[string]int64
			var links []*netsim.Link
			s := NewSpec("obstest", "obstest/"+tc.name, 1, dur, func(m *Meter) (any, error) {
				w, net := tc.build()
				m.ObserveWorld(w)
				if w.Aggregator != nil {
					for i := range w.Receivers[0] {
						w.ChurnSlot(0, i, period)
					}
				}
				w.Run(dur)
				if w.Parent != nil && len(w.Controllers) < 2 {
					t.Errorf("federated world has %d controllers; the sum over owners is untested", len(w.Controllers))
				}
				want, links = ownerSums(w), net.Links()
				return nil, nil
			})
			s.Obs = &obs.Options{}
			r := s.Execute(0)
			if r.Failed() {
				t.Fatalf("run failed: %s", r.Err)
			}
			checkExportOwners(t, r.Obs, want, links)
			for _, name := range []string{"controller_passes", "agg_reports_absorbed", "churn_joins", "federation_exports"} {
				if _, built := want[name]; built && want[name] == 0 {
					t.Errorf("%s is 0; the run exercised nothing there", name)
				}
			}
		})
	}

	t.Run("B/rlm/churn", func(t *testing.T) {
		var want map[string]int64
		var links []*netsim.Link
		s := NewSpec("obstest", "obstest/B/rlm", 1, dur, func(m *Meter) (any, error) {
			e := sim.NewEngine(1)
			b := topology.MustGenerate(e, &topology.BConfig{Sessions: 4})
			w := NewRLMWorld(e, b, WorldConfig{Seed: 1, Traffic: CBR})
			m.Observe(e, b.Net)
			w.SetObs(m.Obs())
			for s := range w.Receivers {
				w.ChurnSlot(s, 0, period)
			}
			w.Run(dur)
			want = map[string]int64{
				"mcast_grafts":  w.Domain.Grafts,
				"mcast_prunes":  w.Domain.Prunes,
				"mcast_repairs": w.Domain.Repairs,
				"churn_joins":   w.Churn.Joins,
				"churn_leaves":  w.Churn.Leaves,
			}
			links = b.Net.Links()
			return nil, nil
		})
		s.Obs = &obs.Options{}
		r := s.Execute(0)
		if r.Failed() {
			t.Fatalf("run failed: %s", r.Err)
		}
		checkExportOwners(t, r.Obs, want, links)
		if want["churn_joins"] == 0 {
			t.Error("no churn joins in the run")
		}
	})
}

// TestObserveFixedExperiments: every registry experiment wires its control
// plane into an observed run's export — the multicast domain always, the
// controllers wherever the run has one. RLM arms have no controller, so
// they must export no controller instrument at all.
func TestObserveFixedExperiments(t *testing.T) {
	cases := []struct {
		figure, name string
		controller   bool
	}{
		{"baseline", "baseline/topo=B/CBR/TopoSense", true},
		{"baseline", "baseline/topo=B/CBR/RLM", false},
		{"queues", "queues/droptail+toposense", true},
		{"queues", "queues/droptail+rlm", false},
		{"convergence", "convergence/CBR", true},
		{"lastmile", "lastmile/backbone", true},
		{"extensions", "extensions/granularity/6-layers/seed=1", true},
		{"extensions", "extensions/leave/1.000000s/seed=1", true},
		{"extensions", "extensions/interval/8.000000s/seed=1", true},
		{"domains", "domains/global/seed=1", true},
		{"domains", "domains/per-domain/seed=1", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, ok := Lookup(tc.figure)
			if !ok {
				t.Fatalf("figure %s missing from registry", tc.figure)
			}
			var spec *Spec
			for _, s := range ex.Specs(SweepConfig{Seed: 1, Quick: true}) {
				if s.Name == tc.name {
					spec = &s
					break
				}
			}
			if spec == nil {
				t.Fatalf("no quick spec named %s", tc.name)
			}
			spec.Obs = &obs.Options{AuditPasses: -1}
			r := spec.Execute(0)
			if r.Failed() {
				t.Fatalf("run failed: %s", r.Err)
			}
			got := make(map[string]int64)
			for _, c := range r.Obs.Counters {
				got[c.Name] = c.Value
			}
			if got["mcast_grafts"] <= 0 {
				t.Errorf("mcast_grafts = %d, want > 0", got["mcast_grafts"])
			}
			passes, has := got["controller_passes"]
			switch {
			case tc.controller && passes <= 0:
				t.Errorf("controller_passes = %d, want > 0", passes)
			case !tc.controller && has:
				t.Errorf("a run without a controller exports controller_passes = %d", passes)
			}
		})
	}
}
