package main

import (
	"time"

	"repro/fompi"
)

// Stream traffic: closed windows of notified puts from a producer (rank 0)
// to a consumer (rank 1) over the shared-memory transport. The producer
// posts W notified puts into W slots of the consumer's window and flushes;
// the consumer completes one counting request (expectedCount = W), checks
// the W payloads and returns a 0-byte credit notification, after which the
// producer may reuse the slots.

const (
	stTagData   = 5
	stTagCredit = 6
	stMaxWin    = 64 << 10 * 32 // largest window: 32 slots of 64 KiB
)

type stPhase struct {
	size int
	w    int // puts per window
	warm int // unrecorded windows before the clock starts
	dur  time.Duration
}

func stPhases(b *bench, frac float64) []stPhase {
	return []stPhase{
		{32, 64, 500, b.share(0.5 * frac)},
		{64 << 10, 32, 50, b.share(0.5 * frac)},
	}
}

type stInputs struct {
	body [][]byte // per phase
	key  uint64
}

func newSTInputs(b *bench, phases []stPhase) *stInputs {
	rng := b.rng("stream")
	in := &stInputs{key: rng.Uint64() &^ lastFlag}
	for _, ph := range phases {
		p := make([]byte, ph.size)
		rng.Read(p)
		in.body = append(in.body, p)
	}
	return in
}

// windowSample is the sampling period, in windows, of the per-message
// spans of a stream: a window moves up to 64 messages in about 100 us.
const windowSample = 16

// stResult is what one stream job measured.
type stResult struct {
	window  []Dist      // window round times per phase, us (producer)
	raw     [][]float64 // the same, in the order taken
	msgs    []float64   // timed messages per phase
	elapsed []float64   // timed seconds per phase
	bad     int64
	shm     []stShm
	spans   [3]*Tracer // ranks 0 and 1, then the calling goroutine
}

// stShm is the producer's shm counter movement over a timed phase.
type stShm struct{ entries, compact, stalls float64 }

// rate returns messages per second and payload bytes per second of phase i.
func (r stResult) rate(i, size int) (msgs, bytes float64) {
	if i >= len(r.elapsed) || r.elapsed[i] == 0 {
		return 0, 0
	}
	return r.msgs[i] / r.elapsed[i], r.msgs[i] * float64(size) / r.elapsed[i]
}

// streamJob runs the stream-shm job.
func (b *bench) streamJob(phases []stPhase, traced bool) stResult {
	in := newSTInputs(b, phases)
	origin := time.Now()
	var res stResult
	res.spans = [3]*Tracer{b.tracer(traced, origin), b.tracer(traced, origin), b.tracer(traced, origin)}
	res.shm = make([]stShm, len(phases))
	var bads [2]int64
	errs := runCluster(true, res.spans[2], func(p *fompi.Proc) {
		r := p.Rank()
		tr := res.spans[r]
		id := tr.Begin("fompi.WinAllocate", -1, 0)
		w := p.WinAllocate(stMaxWin)
		tr.End(id)
		defer w.Free()
		p.Barrier()
		if r == 0 {
			res.produce(p, w, phases, in, tr)
		} else {
			bads[1] = consume(p, w, phases, in, tr)
		}
	})
	b.checkErrs("stream-shm", errs)
	res.bad = bads[0] + bads[1]
	return res
}

// produce is rank 0's side of every phase.
func (res *stResult) produce(p *fompi.Proc, w *fompi.Win, phases []stPhase, in *stInputs, tr *Tracer) {
	credit := w.NotifyInit(1, stTagCredit, 1)
	defer credit.Free()
	for pi, ph := range phases {
		bufs := make([][]byte, ph.w)
		for i := range bufs {
			bufs[i] = append([]byte(nil), in.body[pi]...)
		}
		samples := make([]float64, 0, 1<<15)
		var t0phase time.Time
		var snap fompi.QueueStats
		timed := 0
		for win := 0; ; win++ {
			if win == ph.warm {
				snap = p.QueueStats()
				t0phase = time.Now()
			}
			last := win > ph.warm && time.Since(t0phase) >= ph.dur
			req := int64(pi)<<32 | int64(win)
			tr := tr
			if win%windowSample != 0 {
				tr = nil
			}
			root := tr.Begin("bench.window", -1, req)
			t0 := time.Now()
			for i, m := range bufs {
				stamp(m, in.key, win*ph.w+i, last)
				id := tr.Begin("fompi.PutNotify", root, req)
				w.PutNotify(1, i*ph.size, m, stTagData)
				tr.End(id)
			}
			id := tr.Begin("fompi.Flush", root, req)
			w.Flush(1)
			tr.End(id)
			id = tr.Begin("fompi.Start", root, req)
			credit.Start()
			tr.End(id)
			id = tr.Begin("fompi.Wait", root, req)
			credit.Wait()
			tr.End(id)
			d := time.Since(t0)
			tr.End(root)
			if win >= ph.warm && !last {
				samples = append(samples, float64(d)/1e3)
				timed++
			}
			if last {
				break
			}
		}
		elapsed := time.Since(t0phase).Seconds()
		z := p.QueueStats()
		res.shm[pi] = stShm{
			entries: float64(z.ShmNet.EntriesSent - snap.ShmNet.EntriesSent),
			compact: float64(z.ShmNet.CompactSent - snap.ShmNet.CompactSent),
			stalls:  float64(z.ShmNet.SendStalls - snap.ShmNet.SendStalls),
		}
		res.window = append(res.window, NewDist(samples))
		res.raw = append(res.raw, samples)
		res.msgs = append(res.msgs, float64((timed+1)*ph.w))
		res.elapsed = append(res.elapsed, elapsed)
		p.Barrier()
	}
}

// consume is rank 1's side of every phase; it returns how many payloads
// failed their check.
func consume(p *fompi.Proc, w *fompi.Win, phases []stPhase, in *stInputs, tr *Tracer) (bad int64) {
	for pi, ph := range phases {
		req := w.NotifyInit(0, stTagData, ph.w)
		for win := 0; ; win++ {
			rid := int64(pi)<<32 | int64(win)
			tr := tr
			if win%windowSample != 0 {
				tr = nil
			}
			root := tr.Begin("bench.drain", -1, rid)
			id := tr.Begin("fompi.Start", root, rid)
			req.Start()
			tr.End(id)
			id = tr.Begin("fompi.WaitWindow", root, rid)
			req.Wait()
			tr.End(id)
			buf := w.Buffer()
			last := false
			for i := 0; i < ph.w; i++ {
				m := buf[i*ph.size : (i+1)*ph.size]
				l, ok := checkStamp(m, in.key, win*ph.w+i)
				last = last || l
				// Every small payload is compared whole; of the large ones,
				// one per window, rotating.
				if !ok || ((ph.size <= 64 || i == win%ph.w) && !interiorOK(m, in.body[pi])) {
					bad++
				}
			}
			id = tr.Begin("fompi.PutNotify", root, rid)
			w.PutNotify(0, 0, nil, stTagCredit)
			tr.End(id)
			id = tr.Begin("fompi.Flush", root, rid)
			w.Flush(0)
			tr.End(id)
			tr.End(root)
			if last {
				break
			}
		}
		req.Free()
		p.Barrier()
	}
	return bad
}
