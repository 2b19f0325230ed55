package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"repro/fompi"
	"repro/internal/core"
	"repro/internal/rma"
	"repro/internal/runtime"
)

// Ping-pong traffic, paper Listing 1: the client puts with notification
// and flushes, then waits for the partner's notified reply; the server
// waits, then replies the same way. One round trip is in flight. Each
// side lands in the partner's window at alternating halves, so a payload
// can be checked after the reply left without the next one overwriting
// it.

const (
	ppTag    = 99
	ppMax    = 256 << 10 // largest ping-pong payload; the window holds two
	lastFlag = uint64(1) << 63
)

type ppPhase struct {
	label string // "8" or "256k": the metric name suffix
	size  int
	warm  int // unrecorded round trips before the clock starts
	dur   time.Duration
}

// ppPhases splits frac of the run's measuring time between the 8 B and
// the 256 KiB phase.
func ppPhases(b *bench, frac float64) []ppPhase {
	return []ppPhase{
		{"8", 8, 2000, b.share(0.6 * frac)},
		{"256k", ppMax, 200, b.share(0.4 * frac)},
	}
}

// ppInputs are the pre-generated payloads: per phase a random body for
// each direction, and per direction a stamp key.
type ppInputs struct {
	body [2][][]byte // [direction][phase]
	key  [2]uint64
}

func newPPInputs(b *bench, phases []ppPhase) *ppInputs {
	rng := b.rng("pingpong")
	in := &ppInputs{key: [2]uint64{rng.Uint64() &^ lastFlag, rng.Uint64() &^ lastFlag}}
	for d := 0; d < 2; d++ {
		for _, ph := range phases {
			p := make([]byte, ph.size)
			rng.Read(p)
			in.body[d] = append(in.body[d], p)
		}
	}
	return in
}

// stamp writes the iteration stamps into a payload: the head word is the
// iteration (with the last-round flag) masked by the key; payloads of 16
// bytes and more also carry a keyed hash of the iteration at the tail.
func stamp(p []byte, key uint64, iter int, last bool) {
	w := uint64(iter)
	if last {
		w |= lastFlag
	}
	binary.LittleEndian.PutUint64(p, w^key)
	if len(p) >= 16 {
		binary.LittleEndian.PutUint64(p[len(p)-8:], mix64(key^uint64(iter)))
	}
}

// checkStamp verifies a payload's stamps for iteration iter and returns
// the last-round flag.
func checkStamp(p []byte, key uint64, iter int) (last, ok bool) {
	w := binary.LittleEndian.Uint64(p) ^ key
	last = w&lastFlag != 0
	ok = w&^lastFlag == uint64(iter)
	if ok && len(p) >= 16 {
		ok = binary.LittleEndian.Uint64(p[len(p)-8:]) == mix64(key^uint64(iter))
	}
	return last, ok
}

// interiorOK compares the unstamped bytes of a payload with its body.
func interiorOK(p, body []byte) bool {
	if len(p) <= 16 {
		return true
	}
	return bytes.Equal(p[8:len(p)-8], body[8:len(body)-8])
}

// ppEnd is one rank's side of a ping-pong above the mesh; the fompi and
// the core rung implement it over their own window and request types.
type ppEnd interface {
	PutNotify(off int, data []byte)
	Flush()
	Start()
	Wait()
	Buf() []byte
	Barrier()
}

type fompiEnd struct {
	p    *fompi.Proc
	w    *fompi.Win
	req  *fompi.Request
	peer int
}

func (e *fompiEnd) PutNotify(off int, data []byte) { e.w.PutNotify(e.peer, off, data, ppTag) }
func (e *fompiEnd) Flush()                         { e.w.Flush(e.peer) }
func (e *fompiEnd) Start()                         { e.req.Start() }
func (e *fompiEnd) Wait()                          { e.req.Wait() }
func (e *fompiEnd) Buf() []byte                    { return e.w.Buffer() }
func (e *fompiEnd) Barrier()                       { e.p.Barrier() }

type coreEnd struct {
	p    *runtime.Proc
	w    *rma.Win
	req  *core.Request
	peer int
}

func (e *coreEnd) PutNotify(off int, data []byte) {
	core.PutNotify(e.w, e.peer, off, data, ppTag).Detach()
}
func (e *coreEnd) Flush()      { e.w.Flush(e.peer) }
func (e *coreEnd) Start()      { e.req.Start() }
func (e *coreEnd) Wait()       { e.req.Wait() }
func (e *coreEnd) Buf() []byte { return e.w.Buffer() }
func (e *coreEnd) Barrier()    { e.p.Barrier() }

// ppResult is what one ping-pong job measured.
type ppResult struct {
	rtt    []Dist      // client round-trip times per phase, us
	raw    [][]float64 // the same, in the order taken
	rounds int64       // round trips made, warm-up included
	bad    int64       // payloads that failed their check
	net    []ppNet     // rank 0 counters per phase (fompi rung only)
	spans  *Tracer     // client spans
	sspans *Tracer     // server spans
	job    *Tracer     // spans of the calling goroutine
}

// ppSide runs every phase on one rank. The client (rank 0) decides when a
// phase ends and flags its last round in the payload; mark, when non-nil,
// is called on the client as the clock starts and stops in each phase.
func ppSide(e ppEnd, rank int, layer string, phases []ppPhase, in *ppInputs, tr *Tracer,
	mark func(phase int, stop bool)) (raw [][]float64, rounds, bad int64) {
	client := rank == 0
	my, peer := 0, 1
	if !client {
		my, peer = 1, 0
	}
	nPut, nFlush := layer+".PutNotify", layer+".Flush"
	nStart, nWait := layer+".Start", layer+".Wait"
	for pi, ph := range phases {
		send := append([]byte(nil), in.body[my][pi]...)
		var samples []float64
		if client {
			samples = make([]float64, 0, 1<<16)
		}
		var t0phase time.Time
		for it := 0; ; it++ {
			off := (it & 1) * ppMax
			req := int64(pi)<<32 | int64(it)
			if client {
				if it == ph.warm {
					t0phase = time.Now()
					if mark != nil {
						mark(pi, false)
					}
				}
				last := it > ph.warm && time.Since(t0phase) >= ph.dur
				stamp(send, in.key[my], it, last)
				root := tr.Begin("bench.rtt", -1, req)
				t0 := time.Now()
				id := tr.Begin(nPut, root, req)
				e.PutNotify(off, send)
				tr.End(id)
				id = tr.Begin(nFlush, root, req)
				e.Flush()
				tr.End(id)
				id = tr.Begin(nStart, root, req)
				e.Start()
				tr.End(id)
				id = tr.Begin(nWait, root, req)
				e.Wait()
				tr.End(id)
				d := time.Since(t0)
				tr.End(root)
				if it >= ph.warm {
					samples = append(samples, float64(d)/1e3)
				}
				got := e.Buf()[off : off+ph.size]
				if _, ok := checkStamp(got, in.key[peer], it); !ok || !interiorOK(got, in.body[peer][pi]) {
					bad++
				}
				rounds++
				if last {
					break
				}
				continue
			}
			root := tr.Begin("bench.serve", -1, req)
			id := tr.Begin(nStart, root, req)
			e.Start()
			tr.End(id)
			id = tr.Begin(nWait, root, req)
			e.Wait()
			tr.End(id)
			got := e.Buf()[off : off+ph.size]
			// A bad stamp is counted and the reply still goes out, so the
			// exchange stays in step; the last-round flag is taken as read.
			// Should the flag itself be corrupt, the run's deadline (see
			// main) ends the stalled exchange.
			last, ok := checkStamp(got, in.key[peer], it)
			stamp(send, in.key[my], it, false)
			id = tr.Begin(nPut, root, req)
			e.PutNotify(off, send)
			tr.End(id)
			id = tr.Begin(nFlush, root, req)
			e.Flush()
			tr.End(id)
			tr.End(root)
			if !ok || !interiorOK(got, in.body[peer][pi]) {
				bad++
			}
			if last {
				break
			}
		}
		if client {
			if mark != nil {
				mark(pi, true)
			}
			raw = append(raw, samples)
		}
		e.Barrier()
	}
	return raw, rounds, bad
}

// ppNet is rank 0's counter movement over the timed part of one phase.
type ppNet struct {
	rounds                           float64
	frames, flushes, reads, recv     float64
	acks, retrans, poolGets, poolHit float64
	oversize                         float64
}

func netDelta(a, z fompi.QueueStats) ppNet {
	return ppNet{
		frames:   float64(z.Net.FramesSent - a.Net.FramesSent),
		flushes:  float64(z.Net.TxFlushes - a.Net.TxFlushes),
		reads:    float64(z.Net.RxReads - a.Net.RxReads),
		recv:     float64(z.Net.FramesRecv - a.Net.FramesRecv),
		acks:     float64(z.Faults.LinkAcks - a.Faults.LinkAcks),
		retrans:  float64(z.Faults.Retransmits - a.Faults.Retransmits),
		poolGets: float64(z.Pool.Gets - a.Pool.Gets),
		poolHit:  float64(z.Pool.Hits - a.Pool.Hits),
		oversize: float64(z.Pool.Oversize - a.Pool.Oversize),
	}
}

// ppFompi runs the pingpong-tcp job: the full stack over TCP.
func (b *bench) ppFompi(phases []ppPhase, traced bool) ppResult {
	in := newPPInputs(b, phases)
	var res ppResult
	origin := time.Now()
	tr := [3]*Tracer{b.tracer(traced, origin), b.tracer(traced, origin), b.tracer(traced, origin)}
	res.net = make([]ppNet, len(phases))
	var bads [2]int64 // per rank, summed once the job ended
	errs := runCluster(false, tr[2], func(p *fompi.Proc) {
		r := p.Rank()
		id := tr[r].Begin("fompi.WinAllocate", -1, 0)
		w := p.WinAllocate(2 * ppMax)
		tr[r].End(id)
		defer w.Free()
		req := w.NotifyInit(1-r, ppTag, 1)
		defer req.Free()
		p.Barrier()
		var snap fompi.QueueStats
		var mark func(int, bool)
		if r == 0 {
			mark = func(pi int, stop bool) {
				if !stop {
					snap = p.QueueStats()
					return
				}
				res.net[pi] = netDelta(snap, p.QueueStats())
			}
		}
		raw, rounds, bad := ppSide(&fompiEnd{p, w, req, 1 - r}, r, "fompi", phases, in, tr[r], mark)
		bads[r] = bad
		if r == 0 {
			res.raw, res.rtt, res.rounds = raw, dists(raw), rounds
			for i := range phases {
				res.net[i].rounds = float64(len(raw[i]))
			}
		}
	})
	res.bad = bads[0] + bads[1]
	b.checkErrs("pingpong-tcp", errs)
	res.spans, res.sspans, res.job = tr[0], tr[1], tr[2]
	return res
}

// dists sorts each phase's samples.
func dists(raw [][]float64) []Dist {
	out := make([]Dist, len(raw))
	for i, s := range raw {
		out[i] = NewDist(s)
	}
	return out
}
