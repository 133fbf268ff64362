package main

import (
	"runtime"
	"slices"
	"strconv"
	"time"
)

// The box the benchmark runs on shares its memory system with
// neighbours, and for minutes on end everything that allocates or misses
// the cache runs 1.2 to 2 times slower than the minute before, while an
// arithmetic loop runs as fast as ever. No statistic taken inside a run
// removes a slowdown that lasts longer than the run. So the benchmark
// carries its own clock: a reference kernel that uses none of the
// program's code, run ten times a window all through the measured
// phase and beside every set-up. Every time the benchmark reports is
// the time measured divided by how much slower than nominal the kernel
// ran beside it: time at the reference box's calm speed.
//
// The kernel is a request in miniature: it allocates, fills a hash map,
// formats integers and sorts. It runs on the program's Go runtime, so it
// pays for the same collector and the same memory system at that
// moment; that is why it tracks the program (README.md has the numbers),
// and also why a change that makes the collector's work much cheaper
// moves the kernel a little as well. The counts, alloc_kb_per_op and
// heap_live_mb, show such a change undamped.

// kernelNominal is what one kernel run takes beside a workload on the
// two-core reference box in a calm hour. It only fixes the scale of the
// reported times; it never changes.
const kernelNominal = 1150 * time.Microsecond

const kernelSteps = 6000

var kernelSink int

// kernel runs the reference kernel once and returns how long it took.
func kernel() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	groups := map[int][]int{}
	var buf []byte
	for i := 0; i < kernelSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := int(x>>33) % 10000
		groups[k] = append(groups[k], i)
		buf = strconv.AppendInt(buf[:0], int64(k), 10)
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	kernelSink += keys[0] + len(buf)
	return time.Since(start)
}

// kernelAlloc is how many bytes one kernel run allocates, measured while
// nothing else runs, so that the kernel's share can be taken out of
// alloc_kb_per_op.
func kernelAlloc() uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kernel()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// slowdown is how much slower than nominal the kernel ran: the mean of
// the runs without their slowest fifth, which are the ones the scheduler
// took the processor from or the collector made pay its debt at once.
func slowdown(runs []time.Duration) float64 {
	s := slices.Sorted(slices.Values(runs))
	s = s[:len(s)-len(s)/5]
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return float64(sum) / float64(len(s)) / float64(kernelNominal)
}

// besideEvery is the pause between two kernel runs of timeBeside: the
// kernel takes a twentieth of one processor.
const besideEvery = 20 * time.Millisecond

// timeBeside times f, which gives the harness no place to run the kernel
// in between (a set-up is one call), and scales the time by kernel runs
// made on a second goroutine while f runs.
func timeBeside(f func() error) (scaled, wall time.Duration, err error) {
	stop, stopped := make(chan struct{}), make(chan []time.Duration)
	go func() {
		var runs []time.Duration
		for {
			runs = append(runs, kernel())
			select {
			case <-stop:
				stopped <- runs
				return
			case <-time.After(besideEvery):
			}
		}
	}()
	start := time.Now()
	err = f()
	wall = time.Since(start)
	close(stop)
	return time.Duration(float64(wall) / slowdown(<-stopped)), wall, err
}
