package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procSnap is the process state the traced run compares before and after
// a workload pass: CPU time, heap allocations, GC pauses and the Go
// scheduler's latency histogram.
type procSnap struct {
	cpu     time.Duration
	allocs  uint64
	gcPause uint64 // ns
	sched   *metrics.Float64Histogram
}

const (
	mAllocs = "/gc/heap/allocs:objects"
	mSched  = "/sched/latencies:seconds"
)

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	var s procSnap
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	sm := []metrics.Sample{{Name: mAllocs}, {Name: mSched}}
	metrics.Read(sm)
	if sm[0].Value.Kind() == metrics.KindUint64 {
		s.allocs = sm[0].Value.Uint64()
	}
	if sm[1].Value.Kind() == metrics.KindFloat64Histogram {
		s.sched = sm[1].Value.Float64Histogram()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPause = ms.PauseTotalNs
	return s
}

// goroutineSampler keeps the largest goroutine count seen while it runs.
type goroutineSampler struct {
	max  atomic.Int64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			storeMax(&g.max, int64(runtime.NumGoroutine()))
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// Stop ends sampling and returns the largest count.
func (g *goroutineSampler) Stop() int64 {
	close(g.stop)
	g.wg.Wait()
	return g.max.Load()
}

// reportProc sets the proc.* metrics for a pass of ops operations.
func (b *bench) reportProc(a, z procSnap, ops int64, goroutines int64) {
	b.set("proc.cpu_us_per_op", perOp(float64(z.cpu-a.cpu)/1e3, float64(ops)))
	b.set("proc.allocs_per_op", perOp(float64(z.allocs-a.allocs), float64(ops)))
	b.set("proc.gc_pause_ms", float64(z.gcPause-a.gcPause)/1e6)
	b.set("proc.goroutines", float64(goroutines))
	p99, n := histDeltaP99(a.sched, z.sched)
	b.set("proc.sched_latency_p99_us", p99*1e6)
	b.note("process: %.1f us CPU per op, %.1f allocs per op, GC pause %.2f ms, max %d goroutines, scheduler latency p99 %.1f us (n=%d)",
		b.vals["proc.cpu_us_per_op"], b.vals["proc.allocs_per_op"], b.vals["proc.gc_pause_ms"],
		goroutines, p99*1e6, n)
}

// histDeltaP99 is the p99 of the samples a cumulative histogram gained
// between two reads (the upper edge of the bucket holding it), with the
// sample count; 0 when the count cannot support a p99.
func histDeltaP99(a, z *metrics.Float64Histogram) (float64, uint64) {
	if a == nil || z == nil || len(a.Counts) != len(z.Counts) {
		return 0, 0
	}
	var n uint64
	for i := range z.Counts {
		n += z.Counts[i] - a.Counts[i]
	}
	if n < 100*minTail {
		return 0, n
	}
	rank := uint64(math.Ceil(0.99 * float64(n)))
	var seen uint64
	for i := range z.Counts {
		seen += z.Counts[i] - a.Counts[i]
		if seen >= rank {
			hi := z.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = z.Buckets[i]
			}
			return hi, n
		}
	}
	return 0, n
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// time stolen from this virtual machine by its host, and the total. ok is
// false where the file is missing or unreadable.
func cpuTicks() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of CPU time the host took from this
// machine over a run: figures from a run with a large share are slower
// for reasons outside the program.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startStealMeter() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

// Pct is the stolen share of CPU time since the meter started, in percent
// (0 where /proc/stat is not available).
func (m stealMeter) Pct() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}
