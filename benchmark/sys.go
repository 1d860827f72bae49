package main

import (
	"runtime"
	"syscall"
	"time"
)

// processEpoch is the zero of every timestamp the benchmark takes.
var processEpoch = time.Now()

// nowNs reads the monotonic clock as nanoseconds since processEpoch.
func nowNs() int64 { return int64(time.Since(processEpoch)) }

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM); Linux
// reports ru_maxrss in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// clockOverheadNs calibrates what one nowNs call costs, so the two reads
// around every operation can be judged against the operation itself.
func clockOverheadNs() float64 {
	const calls = 200000
	best := int64(1 << 62)
	for round := 0; round < 5; round++ {
		start := nowNs()
		for i := 0; i < calls; i++ {
			nowNs()
		}
		if d := nowNs() - start; d < best {
			best = d
		}
	}
	return float64(best) / calls
}

// memCounters is the slice of runtime.MemStats the benchmark reports.
type memCounters struct {
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs}
}

func (a memCounters) since(b memCounters) memCounters {
	return memCounters{
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPauseNs:  a.gcPauseNs - b.gcPauseNs,
	}
}
