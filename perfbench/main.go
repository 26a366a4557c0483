// Command perfbench is the repository's benchmark. It builds each workload
// from the public wiring API, runs it, checks its outputs, and prints the
// end-to-end metrics (measured mode, --trace 0) or the per-layer metrics
// (traced mode, --trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload tree10k_flat --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// traceSampleEvery is how often a traced run times a callback; every
// callback is still counted.
const traceSampleEvery = 16

// defaultSeed is the seed whose replica digests golden.json pins.
const defaultSeed = 1

// A measured run adds extra set-ups (built and started, not run) to its
// episodes' before taking the median: at least minSetups, then more while
// setupBudget lasts, at most maxSetups. A millisecond set-up needs many
// samples to be steady; a large world's needs fewer.
const (
	minSetups   = 4
	maxSetups   = 64
	setupBudget = 2 * time.Second
)

// deadline bounds a whole invocation; past it the run counts as failed.
const deadline = 170 * time.Second

//go:embed golden.json
var goldenJSON []byte

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full, machine-stamped account of one invocation, printed
// before the result line and optionally appended to a JSON-lines file.
type record struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Mode     string          `json:"mode"`
	Machine  machine         `json:"machine"`
	Episodes []episodeRecord `json:"episodes"`
	Digests  []string        `json:"replica_digests"`
	Setups   int             `json:"setups,omitempty"`
	Errors   []string        `json:"errors,omitempty"`
	Result   result          `json:"result"`
}

type episodeRecord struct {
	Engine string  `json:"engine"`
	Traced bool    `json:"traced"`
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	CPUS   float64 `json:"cpu_s"`
	PeakMB float64 `json:"peak_live_heap_mb"`
	Events uint64  `json:"events"`
	Digest string  `json:"digest"`
	Err    string  `json:"error,omitempty"`
}

// run accumulates attempts, failures and episodes of one invocation.
type run struct {
	rec      record
	attempts int
	failures int
}

func (r *run) episode(w Workload, seed int64, shards int, traced bool) *Episode {
	r.attempts++
	ep, err := runEpisode(w, seed, shards, traced, false)
	er := episodeRecord{Engine: engineName(shards), Traced: traced}
	if ep != nil {
		er.SetupS, er.RunS, er.CPUS, er.PeakMB = ep.SetupS, ep.RunS, ep.CPUS, ep.PeakLiveMB
		er.Events, er.Digest = ep.Out.Events, ep.Out.Digest()
	}
	if err != nil {
		r.failures++
		er.Err = err.Error()
		r.rec.Errors = append(r.rec.Errors, err.Error())
	}
	r.rec.Episodes = append(r.rec.Episodes, er)
	if err != nil {
		return nil
	}
	return ep
}

// fail records a failed output check against the invocation.
func (r *run) fail(format string, args ...any) {
	r.failures++
	r.rec.Errors = append(r.rec.Errors, fmt.Sprintf(format, args...))
}

func engineName(shards int) string {
	if shards > 0 {
		return fmt.Sprintf("sharded/%d", shards)
	}
	return "default"
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 20, "seconds to measure for (measured mode)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	recordPath := flag.String("record", "", "append the full machine-stamped record to this JSON-lines file")
	flag.Parse()

	w, ok := workloadByName(*workload)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		names := make([]string, len(Workloads))
		for i, wl := range Workloads {
			names[i] = wl.Name
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		os.Exit(2)
	}
	shards := 0
	if w.Sharded {
		shards = runtime.GOMAXPROCS(0)
	}

	r := &run{rec: record{Workload: w.Name, Seed: *seed, Machine: stampMachine(shards)}}
	timer := time.AfterFunc(deadline, func() {
		// A hung episode cannot be interrupted from outside the engine;
		// report the invocation as failed and exit.
		fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		os.Exit(1)
	})
	var metrics map[string]metric
	if *trace == 0 {
		r.rec.Mode = "measured"
		metrics = measured(r, w, *seed, shards, *seconds)
	} else {
		r.rec.Mode = "traced"
		metrics = traced(r, w, *seed, shards)
	}
	timer.Stop()

	// A failed output check counts against the invocation like a failed
	// episode; the count is capped at the episodes attempted.
	res := result{
		Correct:   r.failures == 0,
		Attempted: r.attempts,
		Failed:    min(r.failures, r.attempts),
		Metrics:   metrics,
	}
	r.rec.Result = res
	line, err := json.Marshal(r.rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *recordPath != "" {
		if err := appendLine(*recordPath, line); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("record %s\n", line)
	printTable(metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// replicaSeed is the engine seed of replica i of a run seeded with seed.
// Runs with different seeds never share a replica.
func replicaSeed(w Workload, seed int64, i int) int64 {
	return seed*int64(w.Replicas) + int64(i)
}

// measured runs episodes of w on its own engine for about seconds and
// reports the end-to-end metrics. Episode i simulates replica i mod
// w.Replicas, so the first w.Replicas episodes are distinct worlds and every
// later one repeats a replica, whose outputs must then repeat exactly. Host
// metrics are the median over all episodes (the peak heap their maximum);
// model metrics are the mean over the replicas.
func measured(r *run, w Workload, seed int64, shards int, seconds float64) map[string]metric {
	first := make([]*Episode, w.Replicas)
	var eps []*Episode
	start := time.Now()
	for i := 0; ; i++ {
		k := i % w.Replicas
		t0 := time.Now()
		ep := r.episode(w, replicaSeed(w, seed, k), shards, false)
		last := time.Since(t0).Seconds()
		if ep != nil {
			eps = append(eps, ep)
			if i < w.Replicas {
				first[k] = ep
			} else if first[k] != nil {
				checkRepeat(r, k, first[k], ep)
			}
		}
		if i+1 >= w.Replicas && (len(eps) == 0 || time.Since(start).Seconds()+last > seconds) {
			break
		}
	}
	m := map[string]metric{}
	if len(eps) == 0 {
		return m
	}
	setups := make([]float64, 0, len(eps)+maxSetups)
	for _, ep := range eps {
		setups = append(setups, ep.SetupS)
	}
	for i, t0 := 0, time.Now(); i < maxSetups && (i < minSetups || time.Since(t0) < setupBudget); i++ {
		r.attempts++
		ep, err := runEpisode(w, replicaSeed(w, seed, 0), shards, false, true)
		if err != nil {
			r.fail("set-up only: %v", err)
			continue
		}
		setups = append(setups, ep.SetupS)
	}
	r.rec.Setups = len(setups)
	var runs, cpus []float64
	peak := 0.0
	for _, ep := range eps {
		runs = append(runs, ep.RunS)
		cpus = append(cpus, ep.CPUS)
		peak = math.Max(peak, ep.PeakLiveMB)
	}
	m["run_s"] = metric{median(runs), "s"}
	m["setup_s"] = metric{median(setups), "s"}
	m["cpu_s"] = metric{median(cpus), "s"}
	m["peak_live_heap_mb"] = metric{peak, "MiB"}

	for _, f := range first {
		if f == nil {
			return m // a replica failed: its model metrics are unknown
		}
	}
	checkGolden(r, w, seed, first)
	mean := func(f func(*Outputs) float64) float64 {
		sum := 0.0
		for _, ep := range first {
			sum += f(&ep.Out)
		}
		return sum / float64(len(first))
	}
	m["mean_dev"] = metric{mean(func(o *Outputs) float64 { return o.MeanDev }), "ratio"}
	m["changes_per_rx_min"] = metric{mean(func(o *Outputs) float64 { return o.ChangesPerRxMin }), "1/min"}
	m["ctl_bytes_per_rx"] = metric{mean(func(o *Outputs) float64 { return o.CtlBytesPerRx }), "B"}
	m["goodput_kbps_per_rx"] = metric{mean(func(o *Outputs) float64 { return o.GoodputKbpsPerRx }), "kbit/s"}
	return m
}

// checkRepeat fails the invocation unless a repeated replica reproduced
// its first run's outputs.
func checkRepeat(r *run, k int, first, again *Episode) {
	if a, b := first.Out.Digest(), again.Out.Digest(); a != b {
		r.fail("replica %d digest %s, earlier %s: the run is not a function of its seed", k, b, a)
	}
}

// checkGolden records the replicas' digests and, on the default seed,
// fails the invocation unless they match the ones golden.json records for
// w, replica by replica.
func checkGolden(r *run, w Workload, seed int64, replicas []*Episode) {
	r.rec.Digests = nil
	for _, ep := range replicas {
		r.rec.Digests = append(r.rec.Digests, ep.Out.Digest())
	}
	if seed != defaultSeed {
		return
	}
	golden, err := loadGolden()
	if err != nil {
		r.fail("%v", err)
		return
	}
	want := golden[w.Name]
	if len(want) < len(replicas) {
		r.fail("golden.json records %d digests for %s, the run has %d replicas", len(want), w.Name, len(replicas))
		return
	}
	for i, d := range r.rec.Digests {
		if d != want[i] {
			r.fail("replica %d digest %s on the default seed, golden.json records %s", i, d, want[i])
		}
	}
}

// loadGolden parses the per-replica digests recorded for the default seed.
func loadGolden() (map[string][]string, error) {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// traced runs the per-layer measurement on the run's first replica. The
// reference episode runs on the workload's own engine under the CPU
// profiler; it gives the runtime and shard metrics and the CPU buckets. The
// traced episode runs the same scenario on the default engine behind a
// Tracer (per-shard schedulers cannot be wrapped from outside), right after
// an untraced default-engine baseline without the profiler. The traced
// run's outputs must equal the baseline's, and its run time over the
// baseline's is the tracing overhead.
func traced(r *run, w Workload, seed int64, shards int) map[string]metric {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.fail("cpu profile: %v", err)
	}
	rs := replicaSeed(w, seed, 0)
	ref := r.episode(w, rs, shards, false)
	pprof.StopCPUProfile()
	base := r.episode(w, rs, 0, false)
	tr := r.episode(w, rs, 0, true)
	if ref == nil || base == nil || tr == nil {
		return map[string]metric{}
	}
	checkGolden(r, w, seed, []*Episode{ref})
	if got, want := tr.Out.Digest(), base.Out.Digest(); got != want {
		r.fail("traced run digest %s differs from the untraced run's %s", got, want)
	}
	shares, err := leafShares(prof.Bytes())
	if err != nil {
		r.fail("%v", err)
	}
	return layerMetrics(ref, base, tr, shares)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printTable prints every metric by name with its unit, sorted by name.
func printTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
