package main

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shmfab"
	"repro/internal/wire"
)

// The shm ladder runs the stream-shm traffic at each layer from outside:
// copy() of the payloads -> shmfab.Mesh on a heap segment pair -> fompi.

// copyRung is the floor: copy() of 64 KiB payloads into the slots of a
// 32-slot window, as the receive side of the stream must do at least once.
func (b *bench) copyRung(d time.Duration, tr *Tracer) float64 {
	src := make([]byte, 64<<10)
	dst := make([]byte, stMaxWin)
	b.rng("copy").Read(src)
	slots := len(dst) / len(src)
	var n int
	id := tr.Begin("mem.copy", -1, 0)
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < slots; i++ {
			copy(dst[i*len(src):], src)
		}
		n += slots
	}
	el := time.Since(t0).Seconds()
	tr.End(id)
	b.attempted += int64(n)
	return float64(n*len(src)) / el / 1e6
}

// shmPair attaches two meshes over one heap segment.
func shmPair() ([2]*shmfab.Mesh, error) {
	seg := shmfab.NewHeapSegment(0, 1)
	var ms [2]*shmfab.Mesh
	for r := 0; r < 2; r++ {
		segs := make([]*shmfab.Segment, 2)
		segs[1-r] = seg
		m, err := shmfab.Attach(shmfab.Config{Self: r, N: 2, Segments: segs})
		if err != nil {
			return ms, err
		}
		ms[r] = m
	}
	return ms, nil
}

func closePair(ms [2]*shmfab.Mesh) {
	var wg sync.WaitGroup
	for _, m := range ms {
		if m == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Close(true)
		}()
	}
	wg.Wait()
}

// shmfabRung streams the windows as put frames between two shmfab.Mesh
// endpoints: the consumer's receive callback copies each payload into its
// slot and checks its stamps, and after W of them sends the credit frame
// back; the producer spins until the credit arrived.
func (b *bench) shmfabRung(phases []stPhase, in *stInputs, tr *Tracer) (msgRate, byteRate []float64) {
	ms, err := shmPair()
	if err != nil {
		b.fail(1, "shmfab rung: %v", err)
		closePair(ms)
		return nil, nil
	}
	var (
		phase, got, credits, bad, sendErr atomic.Int64
		dst                               = make([]byte, stMaxWin)
	)
	credit := wire.Frame{Kind: wire.KindPut, Origin: 1, Target: 0, RegionID: 2}
	ms[1].Start(func(from int, fr *wire.Frame) {
		ph := phases[phase.Load()]
		n := got.Add(1) - 1
		copy(dst[fr.Offset:], fr.Data)
		if _, ok := checkStamp(dst[fr.Offset:fr.Offset+ph.size], in.key, int(n)); !ok {
			bad.Add(1)
		}
		if (n+1)%int64(ph.w) == 0 && ms[1].Send(0, &credit) != nil {
			sendErr.Add(1)
		}
	}, func(int, error) {})
	ms[0].Start(func(int, *wire.Frame) { credits.Add(1) }, func(int, error) {})

	for pi, ph := range phases {
		phase.Store(int64(pi))
		got.Store(0)
		credits.Store(0)
		bufs := make([][]byte, ph.w)
		for i := range bufs {
			bufs[i] = append([]byte(nil), in.body[pi]...)
		}
		fr := wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 1, WireSize: ph.size}
		var t0 time.Time
		timed := 0
		for win := 0; ; win++ {
			if win == ph.warm {
				t0 = time.Now()
			}
			if win > ph.warm && time.Since(t0) >= ph.dur {
				break
			}
			if win > ph.warm {
				timed++
			}
			req := int64(pi)<<32 | int64(win)
			tr := tr
			if win%windowSample != 0 {
				tr = nil
			}
			root := tr.Begin("bench.window", -1, req)
			for i, m := range bufs {
				stamp(m, in.key, win*ph.w+i, false)
				fr.Data, fr.Offset = m, i*ph.size
				id := tr.Begin("shmfab.Send", root, req)
				err := ms[0].Send(1, &fr)
				tr.End(id)
				if err != nil {
					b.fail(1, "shmfab rung send: %v", err)
					closePair(ms)
					return nil, nil
				}
			}
			for credits.Load() <= int64(win) {
				goruntime.Gosched()
			}
			tr.End(root)
			b.attempted += int64(ph.w)
		}
		el := time.Since(t0).Seconds()
		msgs := float64((timed + 1) * ph.w)
		msgRate = append(msgRate, msgs/el)
		byteRate = append(byteRate, msgs*float64(ph.size)/el)
	}
	closePair(ms)
	b.fail(bad.Load(), "shmfab rung: %d payloads with a bad stamp", bad.Load())
	b.fail(sendErr.Load(), "shmfab rung: %d credit sends failed", sendErr.Load())
	return msgRate, byteRate
}

// idleWakeGap is how long the shm link sits idle before each probe frame:
// about the gap one rank of a 2k ops/s kv mix leaves between its operations.
const idleWakeGap = time.Millisecond

// idleWake sends one frame through shmfab.Mesh after each idle gap and
// times it to the receive callback: the cost of waking an idle poller.
func (b *bench) idleWake(d time.Duration, tr *Tracer) Dist {
	ms, err := shmPair()
	if err != nil {
		b.fail(1, "idle-wake probe: %v", err)
		closePair(ms)
		return Dist{}
	}
	origin := time.Now()
	var arrived atomic.Int64 // ns since origin of the latest arrival
	ms[1].Start(func(int, *wire.Frame) { arrived.Store(int64(time.Since(origin))) }, func(int, error) {})
	ms[0].Start(func(int, *wire.Frame) {}, func(int, error) {})
	fr := wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 1, Data: make([]byte, 8), WireSize: 8}
	var samples []float64
	for t0 := time.Now(); time.Since(t0) < d; {
		time.Sleep(idleWakeGap)
		id := tr.Begin("shmfab.Send", -1, int64(len(samples)))
		sent := int64(time.Since(origin))
		err := ms[0].Send(1, &fr)
		tr.End(id)
		if err != nil {
			b.fail(1, "idle-wake send: %v", err)
			break
		}
		for arrived.Load() < sent {
			goruntime.Gosched()
		}
		samples = append(samples, float64(arrived.Load()-sent)/1e3)
	}
	closePair(ms)
	b.attempted += int64(len(samples))
	return NewDist(samples)
}

// shmLadder runs every shm rung on frac of the run's measuring time and
// reports the per-layer metrics of the stream-shm stack.
func (b *bench) shmLadder(frac float64) {
	phases := stPhases(b, frac*0.3)
	in := newSTInputs(b, phases)
	tr := NewTracer(time.Now())
	cp := b.copyRung(b.share(frac*0.1), tr)
	msgRate, byteRate := b.shmfabRung(phases, in, tr)
	fo := b.streamJob(phases, true)
	b.addStream(fo)
	wake := b.idleWake(b.share(frac*0.3), tr)
	b.trace.Add(tr)

	at := func(v []float64, i int) float64 {
		if i < len(v) {
			return v[i]
		}
		return 0
	}
	fm32, _ := fo.rate(0, phases[0].size)
	_, fb64 := fo.rate(1, phases[1].size)
	b.set("mem.copy64k_mb_s", cp)
	b.set("shmfab.msg32_kmsg_s", at(msgRate, 0)/1e3)
	b.set("shmfab.bw64k_mb_s", at(byteRate, 1)/1e6)
	b.set("fompi.msg32_kmsg_s", fm32/1e3)
	b.set("fompi.bw64k_mb_s", fb64/1e6)
	s32, s64 := fo.shm[0], fo.shm[1]
	msgs := sum(fo.msgs)
	b.set("shmfab.entries_per_msg", perOp(s32.entries+s64.entries, msgs))
	b.set("shmfab.compact_frac", perOp(s32.compact+s64.compact, s32.entries+s64.entries))
	b.set("shmfab.send_stalls", s32.stalls+s64.stalls)
	wakeP50, _ := wake.Pct(50)
	b.set("shmfab.idle_wake_p50_us", wakeP50)
	ww := spanP50s(fo.spans[1], 0, "fompi.WaitWindow")
	b.set("core.window_wait_us", ww[0])

	b.note("shm ladder (self = this rung's time per message - the rung below's):")
	b.note("  copy()        64 KiB: %9.1f MB/s", cp)
	b.note("  shmfab.Mesh   32 B: %9.1f kmsg/s   64 KiB: %9.1f MB/s  self %+.2f us/64 KiB",
		at(msgRate, 0)/1e3, at(byteRate, 1)/1e6, usPer(at(byteRate, 1), 64<<10)-usPer(cp*1e6, 64<<10))
	b.note("  fompi         32 B: %9.1f kmsg/s   64 KiB: %9.1f MB/s  self %+.2f us/msg at 32 B, %+.2f us/64 KiB",
		fm32/1e3, fb64/1e6, usPer(fm32, 1)-usPer(at(msgRate, 0), 1), usPer(fb64, 64<<10)-usPer(at(byteRate, 1), 64<<10))
	b.note("  fompi producer per message: %.3f ring entries, %.3f compact; %v send stalls",
		perOp(s32.entries+s64.entries, msgs), perOp(s32.compact+s64.compact, s32.entries+s64.entries), s32.stalls+s64.stalls)
	b.note("  idle wake after %v: %s us", idleWakeGap, wake.Describe(50, 99))
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// usPer converts a rate (units per second) into us per item of size units.
func usPer(rate float64, size int) float64 {
	if rate == 0 {
		return 0
	}
	return float64(size) / rate * 1e6
}

// addStream counts a stream job's messages and failures and keeps its
// spans.
func (b *bench) addStream(r stResult) {
	b.attempted += int64(sum(r.msgs))
	b.fail(r.bad, "stream: %d payloads failed their check", r.bad)
	for _, t := range r.spans {
		b.trace.Add(t)
	}
}
