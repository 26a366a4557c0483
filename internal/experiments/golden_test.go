package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRun is the deterministic subset of a Result that must be
// bit-for-bit reproducible for a fixed seed: the typed rows plus the
// engine/network meters. Wall-clock fields are deliberately excluded.
type goldenRun struct {
	Name       string  `json:"name"`
	Figure     string  `json:"figure"`
	Seed       int64   `json:"seed"`
	SimSeconds float64 `json:"sim_seconds"`
	Rows       any     `json:"rows"`
	Events     uint64  `json:"events"`
	Packets    int64   `json:"packets_forwarded"`
}

// checkGolden executes the named figure's quick sweep at seed 1 and compares
// the deterministic subset of every result against testdata/<file>. With
// -update it rewrites the file instead. shards selects the engine (0 = the
// single-threaded oracle the goldens were recorded on); any shard count
// must reproduce the same files.
func checkGolden(t *testing.T, figure, file string, shards int) {
	t.Helper()
	ex, ok := Lookup(figure)
	if !ok {
		t.Fatalf("figure %s missing from registry", figure)
	}
	specs := ex.Specs(SweepConfig{Seed: 1, Quick: true, Shards: shards})
	results := ExecuteAll(specs)

	runs := make([]goldenRun, len(results))
	for i, r := range results {
		if r.Failed() {
			t.Fatalf("run %s failed: %s", r.Name, r.Err)
		}
		runs[i] = goldenRun{
			Name:       r.Name,
			Figure:     r.Figure,
			Seed:       r.Seed,
			SimSeconds: r.SimSeconds,
			Rows:       r.Rows,
			Events:     r.Events,
			Packets:    r.Packets,
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(runs); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("golden mismatch: determinism contract broken (first differing line %d)\n"+
			"got %d bytes, want %d bytes; diff with:\n"+
			"  go test ./internal/experiments -run TestGolden -update && git diff",
			line, len(got), len(want))
	}
}

// TestGoldenFig6Determinism locks the simulator's observable behaviour on
// Topology A: the quick Figure-6 sweep (what `topobench -fig 6 -quick
// -seed 1 -parallel 1` executes) must produce byte-identical rows,
// events-fired and packets-forwarded counts against the golden file recorded
// before the scheduler/pool overhaul. Any change to event ordering, RNG
// consumption, packet lifecycle or queueing shows up here as a diff.
//
// Regenerate (only when an intentional model change is made) with:
//
//	go test ./internal/experiments -run TestGoldenFig6Determinism -update
func TestGoldenFig6Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig6 sweep is a few seconds of simulation")
	}
	checkGolden(t, "6", "golden_fig6_quick.json", 0)
}

// TestGoldenFig7Determinism is the Topology B counterpart: the quick
// Figure-7 sweep pins the multi-session shared-bottleneck behaviour —
// multicast replication fan-out, inter-session sharing and the controller's
// per-domain pass — recorded before the dense forwarding-state rewrite.
// Together with Fig. 6 it covers both paper topologies.
func TestGoldenFig7Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig7 sweep is a few seconds of simulation")
	}
	checkGolden(t, "7", "golden_fig7_quick.json", 0)
}

// TestGoldenChurnDeterminism locks the membership-churn study: the quick
// fig_churn sweep (TopoSense and RLM arms under Poisson join/leave, plus
// the tree-ladder arm) must be bit-reproducible for a fixed seed. The churn
// driver draws every holding time from the run-wide RNG, so any change to
// its draw order — or to the departure lifecycle's packet economy
// (Deregister, purge, prune cascade) — shows up here as a diff.
func TestGoldenChurnDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig_churn sweep is a few seconds of simulation")
	}
	checkGolden(t, "fig_churn", "golden_churn_quick.json", 0)
}

// TestGoldenChurnShardedDeterminism is the sharded lineage of the churn
// study: recorded with -shards 1 and verified with 4 workers, like
// TestGoldenShardedDeterminism. The churn driver runs entirely at
// stop-the-world barriers, so the worker count must not change a single
// byte — serial-vs-sharded composition of churn is pinned here.
func TestGoldenChurnShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig_churn sweep is a few seconds of simulation")
	}
	if *updateGolden {
		checkGolden(t, "fig_churn", "golden_churn_quick_sharded.json", 1)
		return
	}
	checkGolden(t, "fig_churn", "golden_churn_quick_sharded.json", 4)
}

// TestGoldenShardedDeterminism locks the sharded engine's worker-count
// invariance on both golden figures: the *_sharded golden files are
// recorded with -shards 1 (the sharded execution model on one worker) and
// every higher worker count must reproduce them byte-identically — the
// worker count is physical, the logical partitioning comes from the
// topology. Topology A and B have no generator-emitted domain labels, so
// this also exercises the min-cut fallback partitioner end to end.
//
// The sharded files differ slightly from the single-threaded goldens on
// the longer quick runs: same-timestamp events meeting at a partition
// boundary serialize in partition order rather than the serial engine's
// schedule-call order, and on a saturated queue one reordered tie can
// cascade. Both orders are valid serializations; each engine is
// bit-reproducible against its own record.
func TestGoldenShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two quick figure sweeps of simulation")
	}
	if *updateGolden {
		// Record with one worker; the normal run verifies with four.
		checkGolden(t, "6", "golden_fig6_quick_sharded.json", 1)
		checkGolden(t, "7", "golden_fig7_quick_sharded.json", 1)
		return
	}
	checkGolden(t, "6", "golden_fig6_quick_sharded.json", 4)
	checkGolden(t, "7", "golden_fig7_quick_sharded.json", 4)
}

// TestGoldenFederationDeterminism locks the hierarchical control plane: the
// quick fig_federation sweep (one flat and one federated run on the same
// tiered topology) must be bit-reproducible for a fixed seed. It pins the
// federated world's construction and start order — scoped leaf
// controllers, per-leaf RNG streams, the parent's reconcile pass — so any
// refactor of how that plane is wired shows up here as a diff.
func TestGoldenFederationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig_federation sweep is a fraction of a second of simulation")
	}
	checkGolden(t, "fig_federation", "golden_federation_quick.json", 0)
}
