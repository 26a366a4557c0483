package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
)

// runtimeSample is a snapshot of the process counters an episode diffs.
type runtimeSample struct {
	cpuS, gcCPU, totalCPU float64
	allocs, gcCycles      uint64
}

var runtimeNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// readRuntime reads the process CPU time and the runtime's GC and
// allocation counters.
func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	total := s[0].Value.Float64() - s[2].Value.Float64() // busy CPU, idle excluded
	return runtimeSample{
		cpuS:     processCPUSeconds(),
		totalCPU: total,
		gcCPU:    s[1].Value.Float64(),
		allocs:   s[3].Value.Uint64(),
		gcCycles: s[4].Value.Uint64(),
	}
}

// heapWatch records the highest live heap the collector reports at the end
// of each GC cycle. A finalizer on a sentinel re-armed every cycle runs
// once per completed GC.
type heapWatch struct {
	mu   sync.Mutex
	on   bool
	peak uint64
}

type gcSentinel struct{ _ [64]byte }

func startHeapWatch() *heapWatch {
	h := &heapWatch{on: true}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.on {
			return
		}
		h.sample()
		h.arm()
	})
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends the watch and returns the peak. It forces one last collection
// so a run shorter than a GC cycle still reports its live heap.
func (h *heapWatch) stop() uint64 {
	runtime.GC()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sample()
	h.on = false
	return h.peak
}

// processCPUSeconds returns the user plus system CPU time of the process.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
