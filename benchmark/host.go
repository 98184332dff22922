package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hostInfo is the fingerprint every result carries so that recordings from
// different hosts are not compared by accident.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	commit := os.Getenv("BENCH_COMMIT") // set by run.sh; the checkout may not be a git repository
	if commit == "" {
		commit = "unknown"
	}
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink atomic.Uint64

// calibrate times a fixed xorshift loop on every processor at once and
// returns the slowest processor's best ns per iteration: the cheapest
// available probe of how fast this host is right now. All processors run it
// together because a lone thread runs faster while its hyper-thread sibling
// idles, which says nothing about the host. Rounds repeat until two in a row
// agree within 2 % (a process's first few hundred milliseconds often run
// slow), at most twenty times. It runs before and after a workload; a drift
// between the two flags the run noisy.
func calibrate() float64 {
	runtime.GC() // let a collection in flight finish instead of timing it
	prev := calibrationRound()
	for round := 1; round < 20; round++ {
		cur := calibrationRound()
		if math.Abs(cur-prev) < 0.02*prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func calibrationRound() float64 {
	const iters = 4_000_000
	best := make([]float64, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for p := range best {
		wg.Add(1)
		go func(best *float64) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				x := uint64(88172645463325252)
				start := time.Now()
				for i := 0; i < iters; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				if ns := float64(time.Since(start).Nanoseconds()) / iters; rep == 0 || ns < *best {
					*best = ns
				}
				calibrationSink.Add(x)
			}
		}(&best[p])
	}
	wg.Wait()
	return slices.Max(best)
}

// usage is the process's CPU time, split into user and system, and its
// minor page faults so far.
type usage struct {
	user, sys time.Duration
	faults    int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano()), faults: ru.Minflt}
}

func (u usage) sub(v usage) usage {
	return usage{user: u.user - v.user, sys: u.sys - v.sys, faults: u.faults - v.faults}
}

// currentRSS returns the resident set size in bytes from /proc/self/statm,
// or 0 where that file does not exist.
func currentRSS() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssSampler tracks the peak resident set size between start and stop.
type rssSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopCh: make(chan struct{}), peak: currentRSS()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				if v := currentRSS(); v > s.peak {
					s.peak = v
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes.
func (s *rssSampler) stop() int64 {
	close(s.stopCh)
	s.wg.Wait()
	if v := currentRSS(); v > s.peak {
		s.peak = v
	}
	return s.peak
}
