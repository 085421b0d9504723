package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// heapSampler polls the Go heap while a measured phase runs and keeps the
// live heap each GC cycle marked: /gc/heap/live:bytes changes only when a
// cycle ends, so one reading per new cycle count is one sample per cycle.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	live  []float64 // MB, one per GC cycle
}

// heapStats summarizes the live heap over the cycles of a phase.
type heapStats struct {
	Cycles int     `json:"cycles"`
	P90MB  float64 `json:"p90_mb"`
	MaxMB  float64 `json:"max_mb"`
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s)
		last := s[1].Value.Uint64()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				if len(h.live) == 0 {
					metrics.Read(s)
					h.live = append(h.live, float64(s[0].Value.Uint64())/(1<<20))
				}
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[1].Value.Uint64(); c != last {
				last = c
				h.live = append(h.live, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// stop ends sampling. The 90th percentile over cycles is the high-water
// mark the benchmark reports: the strict maximum moves with where a cycle
// happens to end relative to a burst of work.
func (h *heapSampler) stop() heapStats {
	close(h.stopc)
	h.wg.Wait()
	st := heapStats{Cycles: len(h.live), P90MB: percentile(h.live, 90).Value}
	for _, v := range h.live {
		st.MaxMB = max(st.MaxMB, v)
	}
	return st
}

// cpuTime is the CPU time the process has used, user and system, on every
// thread. Unlike wall time it does not count the time the host kept the
// process's virtual CPUs off a physical core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
