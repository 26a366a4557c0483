package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// layerMetrics assembles the per-layer report. ref ran on the workload's
// own engine, base is the untraced run on the traced run's engine, and tr
// is the traced run; shares are ref's CPU buckets.
func layerMetrics(ref, base, tr *Episode, shares map[string]float64) map[string]metric {
	ts := &tr.Trace
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perEvent := func(l layer) float64 {
		if ls := ts.Layers[l]; ls.timed > 0 {
			return float64(ls.timedSelfNs) / float64(ls.timed)
		}
		return 0
	}
	events := func(l layer) float64 { return float64(ts.Layers[l].events) }

	// sim: everything not inside a callback span is the engine's own time.
	// Callback time is estimated per layer from its timed sample.
	var spanNs float64
	for _, ls := range ts.Layers {
		if ls.timed > 0 {
			spanNs += float64(ls.events) * float64(ls.timedSpanNs) / float64(ls.timed)
		}
	}
	fired := float64(ts.Fired)
	put("sim.events", fired, "count")
	put("sim.events_per_s", float64(ref.Out.Events)/ref.RunS, "1/s")
	put("sim.self_ns_per_event", safeDiv(tr.RunS*1e9-spanNs, fired), "ns")
	put("sim.pending_mean", safeDiv(float64(ts.PendingSum), float64(ts.PendingN)), "count")
	put("sim.windows", float64(ref.Stats.Windows), "count")
	put("sim.cross_events", float64(ref.Stats.CrossEvents), "count")
	put("sim.global_events", float64(ref.Stats.GlobalFired), "count")
	put("sim.barrier_stall_s", float64(ref.Stats.BarrierStall)/1e9, "s")

	put("netsim.events", events(lNetsim), "count")
	put("netsim.self_ns_per_event", perEvent(lNetsim), "ns")
	put("netsim.packets_delivered", float64(ref.Out.PacketsDelivered), "count")
	put("netsim.queue_drops", float64(ref.Out.QueueDrops), "count")
	put("netsim.packet_allocs", float64(ref.Out.PacketAllocs), "count")
	put("netsim.route_build_s", ref.RouteBuildS, "s")

	put("topology.generate_s", ref.GenerateS, "s")

	put("source.events", events(lSource), "count")
	put("source.self_ns_per_event", perEvent(lSource), "ns")

	put("mcast.events", events(lMcast), "count")
	put("mcast.replicate_calls", float64(ts.McastH.calls), "count")
	put("mcast.replicate_ns_per_call", safeDiv(float64(ts.McastH.timedSelfNs), float64(ts.McastH.timed)), "ns")
	put("mcast.tree_cost", float64(ref.Out.TreeCost), "count")
	put("mcast.state_bytes", float64(ref.Out.StateBytes), "B")
	put("mcast.agg_calls", float64(ts.AggF.calls), "count")
	put("mcast.agg_ns_per_call", safeDiv(float64(ts.AggF.timedSelfNs), float64(ts.AggF.timed)), "ns")
	put("mcast.agg_flushes", float64(ref.Out.AggFlushes), "count")
	put("mcast.agg_absorbed", float64(ref.Out.AggAbsorbed), "count")
	put("mcast.agg_purged", float64(ref.Out.AggPurged), "count")

	put("receiver.events", events(lReceiver), "count")
	put("receiver.self_ns_per_event", perEvent(lReceiver), "ns")
	changes := 0
	for _, c := range ref.Out.Changes {
		changes += c
	}
	put("receiver.level_changes", float64(changes), "count")

	put("controller.events", events(lController), "count")
	put("controller.passes", float64(ref.Out.StepsRun), "count")
	passMean, passMax := meanMax(ts.Passes)
	put("controller.pass_ms_mean", passMean/1e6, "ms")
	put("controller.pass_ms_max", passMax/1e6, "ms")
	put("controller.ctl_msgs_per_pass", safeDiv(float64(ref.Out.CtlMsgsRecv), float64(ref.Out.StepsRun)), "count")
	put("controller.deregisters", float64(ref.Out.Deregisters), "count")

	put("topodisc.events", events(lTopodisc), "count")
	snapMean, _ := meanMax(ts.Snaps)
	put("topodisc.snapshot_ms_mean", snapMean/1e6, "ms")

	put("churn.events", events(lChurn), "count")
	put("churn.transitions", float64(ref.Out.ChurnTransitions), "count")
	churnMean, _ := meanMax(ts.ChurnNs)
	put("churn.ns_per_transition", churnMean, "ns")

	put("other.events", events(lSim)+events(lOther), "count")

	put("runtime.allocs_per_event", safeDiv(float64(ref.Allocs), float64(ref.Out.Events)), "count")
	put("runtime.gc_cpu_pct", ref.GCCPUPct, "%")
	put("runtime.gc_cycles", float64(ref.GCCycles), "count")

	for _, l := range cpuLayers {
		put(l+".cpu_pct", shares[l], "%")
	}
	put("trace.overhead", safeDiv(tr.RunS, base.RunS), "x")
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanMax(v []int64) (mean, max float64) {
	if len(v) == 0 {
		return 0, 0
	}
	var sum int64
	for _, x := range v {
		sum += x
		if float64(x) > max {
			max = float64(x)
		}
	}
	return float64(sum) / float64(len(v)), max
}

// machine stamps a record with where and how it ran.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"engine_workers"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stampMachine(workers int) machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
