// Command toposim runs a single TopoSense simulation scenario and reports
// per-receiver outcomes: final subscription level, optimal level, relative
// deviation, change count and loss summary. Useful for exploring parameter
// choices interactively.
//
// The run executes as one experiments.Spec, so it gets the same panic
// containment and run metadata (wall time, events, packets) as the
// topobench sweeps, and -json writes the same BENCH_*.json schema.
//
// Usage:
//
//	toposim -topo a,rxset=4 -traffic vbr3 -duration 600
//	toposim -topo b,sessions=8 -staleness 6
//	toposim -topo b,sessions=4 -failat 200 -outage 60   # cut the bottleneck mid-run
//	toposim -topo tiered,seed=3,rxleaf=2 -seed 3 -federate
//	toposim -topo tree,depth=3,branch=8,rxleaf=2 -duration 30   # generated large topology
//	toposim -topo tree,depth=4,branch=10,rxleaf=10 -shards 4    # sharded engine, 4 workers
//	toposim -topo tree,depth=3,branch=8,rxleaf=2 -aggregate     # in-network report aggregation
//	toposim -topo list                           # list registered generators and keys
//	toposim -topo b,sessions=4 -algo rlm         # RLM baseline instead
//	toposim -json BENCH_simA.json                # machine-readable result
//	toposim -topo b,sessions=4 -obs OBS_sim.json # observability export (.json or .csv)
//	toposim -topo b,sessions=4 -flightrec        # dump the flight recorder after the run
//	toposim -topo b,sessions=4 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"toposense/internal/controller"
	"toposense/internal/core"
	"toposense/internal/experiments"
	"toposense/internal/faults"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/prof"
	"toposense/internal/sim"
	"toposense/internal/topology"
	"toposense/internal/trace"
)

// receiverRow is one receiver's outcome — the typed rows the run's Result
// carries (and -json exports).
type receiverRow struct {
	Receiver  string  `json:"receiver"`
	Level     int     `json:"final_level"`
	Optimal   int     `json:"optimal"`
	Deviation float64 `json:"rel_deviation"`
	Changes   int     `json:"changes"`
}

// simResult is the run's full payload: per-receiver rows plus the headline.
type simResult struct {
	Rows    []receiverRow `json:"rows"`
	MeanDev float64       `json:"mean_rel_deviation"`
}

func main() {
	topoSpec := flag.String("topo", "a,rxset=2", "topology generator spec name[,key=val,...] resolved against the registry ("+strings.Join(topology.Names(), ", ")+"); \"list\" prints every generator and its keys")
	traffic := flag.String("traffic", "cbr", "cbr, vbr3 or vbr6")
	duration := flag.Float64("duration", 1200, "simulated seconds")
	staleness := flag.Float64("staleness", 0, "topology information staleness in seconds")
	failAt := flag.Float64("failat", 0, "cut the topology's bottleneck link at this simulated second (0 = no failure)")
	outage := flag.Float64("outage", 60, "with -failat: seconds until the link is repaired")
	churnPeriod := flag.Float64("churn", 0, "Poisson membership churn: every receiver alternates joined/departed with this mean period in simulated seconds (0 = no churn)")
	seed := flag.Int64("seed", 1, "simulation seed")
	shards := flag.Int("shards", 0, "engine workers: 0 = single-threaded engine, N >= 1 = sharded engine with N workers")
	aggregate := flag.Bool("aggregate", false, "install the in-network feedback aggregation layer (toposense only)")
	federate := flag.Bool("federate", false, "run the hierarchical control plane: per-domain leaf controllers under a federation parent (toposense only; needs a domain-labelled topology)")
	algo := flag.String("algo", "toposense", "toposense or rlm")
	probe := flag.Bool("probe", false, "use mtrace-style probe-based topology discovery")
	billing := flag.Bool("billing", false, "print the controller's billing ledger (toposense only)")
	tsvDir := flag.String("tsv", "", "directory to write per-receiver level/loss time series as TSV")
	explain := flag.Bool("explain", false, "print the algorithm's per-node decisions for the final interval")
	jsonPath := flag.String("json", "", "write the result + run metadata to this file (e.g. BENCH_sim.json)")
	obsPath := flag.String("obs", "", "enable observability and write its export to this file (.json or .csv)")
	flightrec := flag.Bool("flightrec", false, "enable observability and dump the flight recorder to stderr after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var tr experiments.Traffic
	switch strings.ToLower(*traffic) {
	case "cbr":
		tr = experiments.CBR
	case "vbr3":
		tr = experiments.VBR3
	case "vbr6":
		tr = experiments.VBR6
	default:
		fmt.Fprintf(os.Stderr, "unknown traffic %q\n", *traffic)
		os.Exit(2)
	}
	if *topoSpec == "list" {
		fmt.Print(topology.Usage())
		return
	}
	_, topoCfg, err := topology.Parse(*topoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	algoName := strings.ToLower(*algo)
	switch algoName {
	case "toposense", "rlm":
	default:
		fmt.Fprintf(os.Stderr, "unknown algo %q\n", *algo)
		os.Exit(2)
	}
	if *failAt > 0 && *outage <= 0 {
		fmt.Fprintln(os.Stderr, "-outage must be positive when -failat is set")
		os.Exit(2)
	}
	if err := experiments.ValidateEngineFlags(*shards, *failAt, *aggregate, *federate, *churnPeriod); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *aggregate && algoName != "toposense" {
		fmt.Fprintln(os.Stderr, "-aggregate: the aggregation layer serves the toposense controller; it has no meaning under -algo rlm")
		os.Exit(2)
	}
	if *federate && algoName != "toposense" {
		fmt.Fprintln(os.Stderr, "-federate: the hierarchical control plane federates toposense controllers; it has no meaning under -algo rlm")
		os.Exit(2)
	}
	if *federate && (*billing || *explain) {
		fmt.Fprintln(os.Stderr, "-federate: -billing and -explain read the single flat controller; drop them to run federated")
		os.Exit(2)
	}
	obsExt := strings.ToLower(filepath.Ext(*obsPath))
	if *obsPath != "" && obsExt != ".json" && obsExt != ".csv" {
		fmt.Fprintf(os.Stderr, "-obs %q: extension must be .json or .csv\n", *obsPath)
		os.Exit(2)
	}

	cfg := experiments.WorldConfig{
		Seed:           *seed,
		Traffic:        tr,
		Staleness:      sim.FromSeconds(*staleness),
		ProbeDiscovery: *probe,
		Aggregate:      *aggregate,
	}
	if *federate {
		cfg.Plane = experiments.Federated
	}
	dur := sim.FromSeconds(*duration)

	// The flight recorder lives inside the run's obs bundle; capture it from
	// the body so -flightrec can dump it after Execute returns.
	var runObs *obs.Obs
	runName := fmt.Sprintf("toposim/topo=%s/%s/%s", *topoSpec, tr.Name, algoName)
	if *federate {
		runName += "/fed"
	}
	spec := experiments.NewSpec("toposim", runName,
		*seed, dur,
		func(m *experiments.Meter) (any, error) {
			e := experiments.NewRunEngine(*seed, *shards)
			b, err := topology.Generate(e, topoCfg)
			if err != nil {
				return nil, err
			}
			m.Observe(e, b.Net)
			runObs = m.Obs()

			var inj *faults.Injector
			if *failAt > 0 {
				if len(b.Bottlenecks) == 0 {
					return nil, fmt.Errorf("topology %s exposes no bottleneck link to fail", *topoSpec)
				}
				inj = faults.New(b.Net)
				links := []*netsim.Link{b.Bottlenecks[0]}
				if rev := b.Bottlenecks[0].Reverse(); rev != nil {
					links = append(links, rev)
				}
				inj.Outage(sim.FromSeconds(*failAt), sim.FromSeconds(*outage), links...)
			}

			var traces []*metrics.Trace
			var optima []int
			var levels []int
			var sampler *trace.Sampler
			period := sim.FromSeconds(*churnPeriod)
			if algoName == "toposense" {
				if err := cfg.Validate(b); err != nil {
					return nil, err
				}
				w := experiments.NewWorld(e, b, cfg)
				// m.Observe already attached the packet probe; wire the
				// control plane (SetObs(nil) is a no-op).
				w.SetObs(m.Obs())
				if *billing {
					w.Controller.EnableBilling()
				}
				if *explain {
					w.Controller.Algorithm().EnableExplain()
				}
				if *tsvDir != "" {
					sampler = trace.NewSampler(e, 500*sim.Millisecond)
					for s := range w.Receivers {
						for _, rx := range w.Receivers[s] {
							rx := rx
							name := fmt.Sprintf("s%d-%s", s, rx.Node().Name)
							sampler.Probe(name+".level", func() float64 { return float64(rx.Level()) })
							sampler.Probe(name+".loss", func() float64 { return rx.LastLoss })
						}
					}
					sampler.Start()
				}
				// Membership churn: every receiver alternates between joined
				// and departed — the full lifecycle (leave all layer groups,
				// deregister) out, a fresh incarnation feeding the same trace
				// back in, so deviations reflect the churn.
				if *churnPeriod > 0 {
					for s := range w.Receivers {
						for i := range w.Receivers[s] {
							w.ChurnSlot(s, i, period)
						}
					}
				}
				w.Run(dur)
				traces, optima = w.AllTraces()
				for s := range w.Receivers {
					for _, rx := range w.Receivers[s] {
						lvl := 0
						if rx != nil {
							lvl = rx.Level()
						}
						levels = append(levels, lvl)
					}
				}
				if w.Parent != nil {
					fmt.Printf("federation: %d domains, %d exports received, %d reconcile passes, %d budget changes\n",
						len(w.Leaves), w.Parent.ExportsRecv, w.Parent.Reconciles, w.Parent.BudgetChanges)
					for _, l := range w.Leaves {
						ctrl := l.Controller()
						changes, last := w.Parent.ChangesFor(l.Domain)
						fmt.Printf("  domain %d: ceiling %d, %d exports sent, %d budget entries (last change %.0f s), %d suggestions capped, %d steps\n",
							l.Domain, w.Parent.Ceiling(l.Domain), l.ExportsSent, changes, last.Seconds(), ctrl.SuggestionsCapped, ctrl.StepsRun)
					}
				} else {
					fmt.Printf("controller: %d steps, %d suggestions sent, %d reports received\n",
						w.Controller.StepsRun, w.Controller.SuggestionsSent, w.Controller.ReportsRecv)
				}
				if w.Churn != nil {
					var deregs int64
					registered := 0
					for _, c := range w.Controllers {
						deregs += c.DeregistersRecv
						registered += len(c.RegisteredReceivers())
					}
					fmt.Printf("churn: %d joins, %d leaves, %d deregisters consumed, %d receivers registered at end\n",
						w.Churn.Joins, w.Churn.Leaves, deregs, registered)
				}
				if *aggregate {
					fmt.Printf("aggregation: %d reports absorbed in-network, %d merges, %d flushes, %d sub-batches down\n",
						w.Aggregator.Absorbed, w.Aggregator.Merged, w.Aggregator.Flushes, w.Aggregator.Batches)
					fmt.Printf("controller fan-in: %d control msgs (%d modeled bytes), %d aggregates, %d batches out\n",
						w.Controller.CtlMsgsRecv, w.Controller.CtlBytesRecv, w.Controller.AggregatesRecv, w.Controller.BatchesSent)
				}
				if *probe && w.Tool != nil {
					fmt.Printf("discovery: %d probe packets over %d discoveries\n", w.Tool.ProbePackets, w.Tool.Discoveries)
				}
				if *billing {
					fmt.Println("\nbilling ledger:")
					fmt.Print(controller.FormatBillingReport(w.Controller.BillingReport()))
				}
				if *explain {
					fmt.Println("\nfinal interval decisions:")
					fmt.Print(core.FormatDecisions(w.Controller.Algorithm().LastDecisions()))
					if *aggregate {
						fmt.Println("\nfinal interval subtree summaries:")
						fmt.Print(core.FormatSubtrees(w.Controller.Algorithm().Subtrees()))
					}
				}
			} else {
				w := experiments.NewRLMWorld(e, b, cfg)
				w.SetObs(m.Obs())
				// RLM baseline under churn: a departure is Stop (RLM has no
				// control plane to deregister from) and a rejoin is a fresh
				// receiver probing up from the base layer.
				if *churnPeriod > 0 {
					for s := range w.Receivers {
						for i := range w.Receivers[s] {
							w.ChurnSlot(s, i, period)
						}
					}
				}
				w.Run(dur)
				traces, optima = w.AllTraces()
				for s := range w.Receivers {
					for _, rx := range w.Receivers[s] {
						lvl := 0
						if rx != nil {
							lvl = rx.Level()
						}
						levels = append(levels, lvl)
					}
				}
				if w.Churn != nil {
					fmt.Printf("churn: %d joins, %d leaves\n", w.Churn.Joins, w.Churn.Leaves)
				}
			}
			var names []string
			for s := range b.Receivers {
				for _, node := range b.Receivers[s] {
					names = append(names, fmt.Sprintf("s%d/%s", s, node.Name))
				}
			}
			if inj != nil {
				fmt.Printf("faults: bottleneck down %.0f-%.0f s (%d link failures, %d repairs, %d packets unroutable)\n",
					*failAt, *failAt+*outage, inj.Failures, inj.Repairs, b.Net.Unroutable)
			}

			if sampler != nil {
				if err := writeTSVs(*tsvDir, sampler); err != nil {
					return nil, fmt.Errorf("tsv: %w", err)
				}
				fmt.Printf("wrote %d series to %s\n", len(sampler.Names()), *tsvDir)
			}

			res := simResult{MeanDev: metrics.MeanRelativeDeviation(traces, optima, 0, dur)}
			for i, trc := range traces {
				res.Rows = append(res.Rows, receiverRow{
					Receiver:  names[i],
					Level:     levels[i],
					Optimal:   optima[i],
					Deviation: trc.RelativeDeviation(optima[i], 0, dur),
					Changes:   trc.Changes(0, dur),
				})
			}
			return res, nil
		})
	if *obsPath != "" || *flightrec {
		spec.Obs = &obs.Options{}
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	result := spec.Execute(0)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	// Profiles cover the simulation itself, not report formatting; stop
	// here so the later os.Exit paths cannot lose them.
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *flightrec && runObs != nil {
		runObs.Rec.WriteLog(os.Stderr)
	}
	if result.Failed() {
		fmt.Fprintf(os.Stderr, "run failed: %s\n", result.Err)
		os.Exit(1)
	}
	if *obsPath != "" {
		if err := writeObs(*obsPath, obsExt, result.Obs); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *obsPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote observability export to %s\n", *obsPath)
	}
	res := result.Rows.(simResult)

	t := &experiments.Table{
		Title:  fmt.Sprintf("Topology %s, %s, %s, %.0f s", *topoSpec, tr.Name, algoName, *duration),
		Header: []string{"receiver", "final level", "optimal", "rel deviation", "changes"},
	}
	for _, r := range res.Rows {
		t.AddRow(
			r.Receiver,
			fmt.Sprintf("%d", r.Level),
			fmt.Sprintf("%d", r.Optimal),
			fmt.Sprintf("%.3f", r.Deviation),
			fmt.Sprintf("%d", r.Changes),
		)
	}
	fmt.Print(t)
	fmt.Printf("mean relative deviation: %.3f\n", res.MeanDev)
	fmt.Printf("run: %.2fs wall, %d events (%.0f events/s), %d packets forwarded\n",
		result.WallSeconds, result.Events, result.EventsPerSecond, result.Packets)

	if *jsonPath != "" {
		export := experiments.Export{
			Tool:        "toposim",
			GeneratedAt: start.UTC().Format(time.RFC3339),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Parallelism: 1,
			Seed:        *seed,
			WallSeconds: time.Since(start).Seconds(),
			Results:     []experiments.Result{result},
		}
		export.FillAggregates(memAfter.Mallocs - memBefore.Mallocs)
		if err := experiments.WriteJSONFile(*jsonPath, export); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote result to %s\n", *jsonPath)
	}
}

// writeObs writes the observability export as JSON or CSV, by extension.
func writeObs(path, ext string, d *obs.Dump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if ext == ".csv" {
		err = d.WriteCSV(f)
	} else {
		err = d.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTSVs dumps every sampled series as <name>.tsv under dir.
func writeTSVs(dir string, sampler *trace.Sampler) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range sampler.Names() {
		f, err := os.Create(filepath.Join(dir, name+".tsv"))
		if err != nil {
			return err
		}
		if err := sampler.Series(name).WriteTSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
