package main

import (
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/fompi"
)

// setupRounds is how many bring-ups a workload times; setup_s is their
// median. One bring-up takes one or two milliseconds and their times have
// a long tail, so it takes some hundreds of them for the median to repeat
// from run to run.
const setupRounds = 500

// runCluster runs body as a 2-rank job inside this process: over real
// localhost TCP sockets, or over heap-backed shared-memory segment pairs.
// tr is the calling goroutine's tracer.
func runCluster(shm bool, tr *Tracer, body func(p *fompi.Proc)) []error {
	opts := fompi.Options{Ranks: 2}
	if shm {
		id := tr.Begin("fompi.RunLocalShmCluster", -1, 0)
		defer tr.End(id)
		return fompi.RunLocalShmCluster(opts, body)
	}
	id := tr.Begin("fompi.RunLocalCluster", -1, 0)
	defer tr.End(id)
	return fompi.RunLocalCluster(opts, body)
}

// setupClock times one bring-up: from the call into fompi.RunLocal*Cluster
// until every rank is past its first barrier with its windows open.
type setupClock struct {
	t0                    time.Time
	boot, mid, open, done atomic.Int64 // latest rank, ns since t0
}

func newSetupClock() *setupClock { return &setupClock{t0: time.Now()} }

func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// entered marks a rank's body starting (bootstrap done).
func (c *setupClock) entered() { storeMax(&c.boot, int64(time.Since(c.t0))) }

// midway marks a rank's store open, before its preload (kv only).
func (c *setupClock) midway() { storeMax(&c.mid, int64(time.Since(c.t0))) }

// opened marks a rank's windows (or store) being open.
func (c *setupClock) opened() { storeMax(&c.open, int64(time.Since(c.t0))) }

// ready marks a rank past its first barrier after opening.
func (c *setupClock) ready() { storeMax(&c.done, int64(time.Since(c.t0))) }

// setupStats collects bring-up samples.
type setupStats struct {
	mu                   sync.Mutex
	total, boot, op, pre []float64 // seconds
}

func (s *setupStats) add(c *setupClock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total = append(s.total, time.Duration(c.done.Load()).Seconds())
	s.boot = append(s.boot, time.Duration(c.boot.Load()).Seconds())
	if mid := c.mid.Load(); mid > 0 {
		s.op = append(s.op, time.Duration(mid-c.boot.Load()).Seconds())
		s.pre = append(s.pre, time.Duration(c.open.Load()-mid).Seconds())
	} else {
		s.op = append(s.op, time.Duration(c.open.Load()-c.boot.Load()).Seconds())
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// bringUps times rounds bring-ups of a 2-rank job whose ranks open their
// state with open and release it with the returned function. The heap is
// collected before each one, off the clock, so that every bring-up starts
// from the same state instead of paying for its predecessors' garbage.
func (b *bench) bringUps(shm bool, rounds int, st *setupStats, open func(p *fompi.Proc, c *setupClock) func()) {
	for i := 0; i < rounds; i++ {
		goruntime.GC()
		c := newSetupClock()
		errs := runCluster(shm, nil, func(p *fompi.Proc) {
			c.entered()
			closeFn := open(p, c)
			c.opened()
			p.Barrier()
			c.ready()
			closeFn()
		})
		b.checkErrs("bring-up", errs)
		st.add(c)
	}
}

// reportSetup sets setup_s and its breakdown from a workload's bring-ups:
// bootstrap, then the window allocation.
func (b *bench) reportSetup(st *setupStats) {
	b.set("setup_s", median(st.total))
	b.set("runtime.bootstrap_ms", median(st.boot)*1e3)
	b.set("fompi.win_alloc_ms", median(st.op)*1e3)
	b.note("setup: median of %d bring-ups %.3f ms (bootstrap %.3f ms, fompi.win_alloc_ms %.3f ms)",
		len(st.total), median(st.total)*1e3, median(st.boot)*1e3, median(st.op)*1e3)
}
