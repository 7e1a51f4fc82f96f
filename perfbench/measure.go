package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is one snapshot of every process-wide total a window metric is
// computed from. Two snapshots bracket a timed window; their difference is
// the window's cost.
type counters struct {
	wall       time.Time
	cpu        time.Duration // user + system, getrusage(RUSAGE_SELF)
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate (same basis as gcCPU)
	steal      time.Duration
}

// hostSteal is the time the hypervisor has held this machine's CPUs for
// other guests, per CPU: the steal column of /proc/stat, summed over the
// CPUs and divided by their number. A shared host takes from a few per
// cent to over 40 per cent of a 2-CPU sandbox's time, minutes at a time,
// and a busy process loses that wall time on every CPU at once; so the
// wall-clock metrics leave it out, and measure the program on the CPUs it
// was given. It reads 0 where /proc/stat has no steal column.
func hostSteal() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	var total time.Duration
	cpus := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") || fields[0] == "cpu" {
			continue
		}
		ticks, err := strconv.ParseUint(fields[8], 10, 64)
		if err != nil {
			continue
		}
		total += time.Duration(ticks) * userTick
		cpus++
	}
	if cpus == 0 {
		return 0
	}
	return total / time.Duration(cpus)
}

// userTick is the unit of /proc/stat: USER_HZ is 100 on every Linux
// architecture Go supports.
const userTick = 10 * time.Millisecond

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snapshot reads the counters. It does not collect garbage; callers that
// open a window force a GC first so the window starts from a clean heap.
func snapshot() counters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		steal:      hostSteal(),
	}
}

// openWindow forces a collection and returns the snapshot a timed window
// starts from.
func openWindow() counters {
	runtime.GC()
	return snapshot()
}

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// window is the cost of a stretch of whole sweeps between two snapshots,
// less any stretch between sweeps that skip left out. It also keeps each
// sweep's own wall and CPU time: every sweep of a workload does the same
// work, so their median is the time a sweep takes with the bursts of a
// shared host's contention left out.
type window struct {
	from, to counters
	cells    int
	sweeps   int
	perSweep []sweepCost
	stolen   time.Duration // host steal during the sweeps
}

// sweepCost is one sweep's cells and the wall and CPU time it took.
type sweepCost struct {
	cells     int
	wall, cpu time.Duration
}

// add records one sweep, bracketed by snapshots a and b, less the time the
// host stole (see hostSteal) and the time it waited on fsync (see
// sweepOut.fsyncWait).
func (w *window) add(a, b counters, out sweepOut) {
	w.sweeps++
	w.cells += out.cells
	wall := b.wall.Sub(a.wall) - (b.steal - a.steal) - out.fsyncWait
	w.perSweep = append(w.perSweep, sweepCost{cells: out.cells, wall: wall, cpu: b.cpu - a.cpu})
	w.stolen += b.steal - a.steal
}

// stealFrac is the share of the window's sweep time the host stole.
func (w window) stealFrac() float64 {
	var wall time.Duration
	for _, s := range w.perSweep {
		wall += s.wall
	}
	return w.stolen.Seconds() / (wall + w.stolen).Seconds()
}

// skip leaves the cost between two snapshots taken inside the window out
// of it, by moving the window's start forward by that much.
func (w *window) skip(a, b counters) {
	w.from.wall = w.from.wall.Add(b.wall.Sub(a.wall))
	w.from.cpu += b.cpu - a.cpu
	w.from.allocBytes += b.allocBytes - a.allocBytes
	w.from.allocObjs += b.allocObjs - a.allocObjs
	w.from.gcCycles += b.gcCycles - a.gcCycles
	w.from.gcCPU += b.gcCPU - a.gcCPU
	w.from.totalCPU += b.totalCPU - a.totalCPU
}

// cellsPerS is the median over sweeps of cells delivered per wall second.
func (w window) cellsPerS() float64 {
	xs := make([]float64, len(w.perSweep))
	for i, s := range w.perSweep {
		xs[i] = float64(s.cells) / s.wall.Seconds()
	}
	return median(xs)
}

// cpuMsPerCell is the median over sweeps of process CPU time per cell.
func (w window) cpuMsPerCell() float64 {
	xs := make([]float64, len(w.perSweep))
	for i, s := range w.perSweep {
		xs[i] = float64(s.cpu) / float64(time.Millisecond) / float64(s.cells)
	}
	return median(xs)
}

func (w window) allocKBPerCell() float64 {
	return float64(w.to.allocBytes-w.from.allocBytes) / 1024 / float64(w.cells)
}

func (w window) allocsPerCell() float64 {
	return float64(w.to.allocObjs-w.from.allocObjs) / float64(w.cells)
}

func (w window) gcCyclesPerCell() float64 {
	return float64(w.to.gcCycles-w.from.gcCycles) / float64(w.cells)
}

func (w window) gcCPUFrac() float64 {
	total := w.to.totalCPU - w.from.totalCPU
	if total <= 0 {
		return 0
	}
	return (w.to.gcCPU - w.from.gcCPU) / total
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer, and the value is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, refusing when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
