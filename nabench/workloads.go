package main

import (
	"fmt"

	"repro/fompi"
)

// runPingPongTCP is the pingpong-tcp workload.
func runPingPongTCP(b *bench) {
	var st setupStats
	b.bringUps(false, setupRounds, &st, func(p *fompi.Proc, _ *setupClock) func() {
		return p.WinAllocate(2 * ppMax).Free
	})
	if !b.traced {
		r := b.ppFompi(ppPhases(b, 1), false)
		b.addPP(r)
		b.reportPP(r)
		b.reportSetup(&st)
		return
	}
	u := b.ppFompi(ppPhases(b, 0.2), false)
	b.reportPP(u)
	a := takeProcSnap()
	g := startGoroutineSampler()
	t := b.ppFompi(ppPhases(b, 0.2), true)
	b.reportProc(a, takeProcSnap(), t.rounds, g.Stop())
	b.addPP(u)
	b.addPP(t)
	b.overhead("8 B round-trip p50", p50(u.rtt, 0), p50(t.rtt, 0))
	b.ladders()
	b.reportSetup(&st)
}

// reportPP sets the end-to-end metrics of a pingpong-tcp job.
func (b *bench) reportPP(r ppResult) {
	if len(r.raw) < 2 { // the job failed; the missing metrics fail the run
		return
	}
	b.reportLat([][]float64{r.raw[0]}, [][]float64{r.raw[1]})
	b.set("diag.kops", perOp(1e3, r.rtt[0].Mean()))
	b.note("round-trip time (us), latency from PutNotify to the reply's Wait returning:")
	b.note("  rtt8_p50_us/rtt8_p99_us      %s", r.rtt[0].Describe(50, 99, 99.9))
	b.note("  rtt256k_p50_us (p99 diag.)   %s", r.rtt[1].Describe(50, 99))
}

// runStreamShm is the stream-shm workload.
func runStreamShm(b *bench) {
	var st setupStats
	b.bringUps(true, setupRounds, &st, func(p *fompi.Proc, _ *setupClock) func() {
		return p.WinAllocate(stMaxWin).Free
	})
	phases := stPhases(b, 1)
	if !b.traced {
		r := b.streamJob(phases, false)
		b.addStream(r)
		b.reportStream(phases, r)
		b.reportSetup(&st)
		return
	}
	phases = stPhases(b, 0.2)
	u := b.streamJob(phases, false)
	b.reportStream(phases, u)
	a := takeProcSnap()
	g := startGoroutineSampler()
	t := b.streamJob(phases, true)
	b.reportProc(a, takeProcSnap(), int64(sum(t.msgs)), g.Stop())
	b.addStream(u)
	b.addStream(t)
	b.overhead("32 B window p50", p50(u.window, 0), p50(t.window, 0))
	b.ladders()
	b.reportSetup(&st)
}

// reportStream sets the end-to-end metrics of a stream-shm job.
func (b *bench) reportStream(phases []stPhase, r stResult) {
	if len(r.raw) < 2 { // the job failed; the missing metrics fail the run
		return
	}
	b.reportLat([][]float64{r.raw[0]}, [][]float64{r.raw[1]})
	m32, _ := r.rate(0, phases[0].size)
	_, b64 := r.rate(1, phases[1].size)
	b.set("diag.kops", m32/1e3)
	b.note("window round time (us): W notified puts, the consumer's counting Wait, the credit back:")
	b.note("  32 B x %d     %s", phases[0].w, r.window[0].Describe(50, 99))
	b.note("  64 KiB x %d   %s", phases[1].w, r.window[1].Describe(50, 99))
	b.note("  msg32_kmsg_s %.1f   bw64k_mb_s %.1f (payload bytes only)", m32/1e3, b64/1e6)
}

// overhead sets trace.overhead_pct from one metric measured untraced and
// traced.
func (b *bench) overhead(what string, untraced, traced float64) {
	if untraced > 0 {
		b.set("trace.overhead_pct", 100*(traced-untraced)/untraced)
	}
	b.note("tracing overhead on %s: %.2f untraced, %.2f traced", what, untraced, traced)
}

// ladders runs the layer ladders and the kv traffic; every traced run
// reports them.
func (b *bench) ladders() {
	b.tcpLadder(0.3)
	b.shmLadder(0.15)
	b.kvLayer(0.3)
}

// reportLat sets the end-to-end median of a workload's first operation
// class and, as diagnostics, the second class's median (both block
// medians, see Blocked) and both classes' p90 and p99 over all samples.
// Each class may hold one sample set per rank.
func (b *bench) reportLat(one, two [][]float64) {
	b.setPct("lat1_p50_us", NewBlocked(one...), 50)
	b.setPct("diag.lat2_p50_us", NewBlocked(two...), 50)
	for i, sets := range [][][]float64{one, two} {
		name := fmt.Sprintf("lat%d", i+1)
		var all []float64
		for _, s := range sets {
			all = append(all, s...)
		}
		d := NewDist(all)
		for _, q := range []float64{90, 99} {
			b.setPct(fmt.Sprintf("diag.%s_p%g_us", name, q), d, q)
		}
	}
}
