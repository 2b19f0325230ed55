package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netfab"
	"repro/internal/rma"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// The TCP ladder runs the pingpong-tcp traffic at each layer from outside:
// raw net.Conn -> wire (CPU per frame) -> netfab.Mesh -> runtime+rma+core
// -> fompi. A layer's cost reads as the difference between two rungs.

// rawTCPRung is the floor: the same round trips as length-prefixed
// messages echoed over a bare loopback net.Conn pair.
func (b *bench) rawTCPRung(phases []ppPhase, in *ppInputs) []Dist {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.fail(1, "raw tcp rung: %v", err)
		return nil
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- rawEcho(ln) }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.fail(1, "raw tcp rung: %v", err)
		ln.Close()
		<-done
		return nil
	}
	var out []Dist
	buf := make([]byte, 4+ppMax)
	for pi, ph := range phases {
		msg := make([]byte, 4+ph.size)
		binary.LittleEndian.PutUint32(msg, uint32(ph.size))
		copy(msg[4:], in.body[0][pi])
		samples := make([]float64, 0, 1<<16)
		var t0phase time.Time
		for it := 0; ; it++ {
			if it == ph.warm {
				t0phase = time.Now()
			}
			if it > ph.warm && time.Since(t0phase) >= ph.dur {
				break
			}
			stamp(msg[4:], in.key[0], it, false)
			t0 := time.Now()
			if _, err := c.Write(msg); err != nil {
				b.fail(1, "raw tcp rung write: %v", err)
				break
			}
			if _, err := io.ReadFull(c, buf[:len(msg)]); err != nil {
				b.fail(1, "raw tcp rung read: %v", err)
				break
			}
			d := time.Since(t0)
			b.attempted++
			if it >= ph.warm {
				samples = append(samples, float64(d)/1e3)
			}
			if _, ok := checkStamp(buf[4:len(msg)], in.key[0], it); !ok {
				b.fail(1, "raw tcp rung: round %d echoed a bad stamp", it)
			}
		}
		out = append(out, NewDist(samples))
	}
	c.Close()
	if err := <-done; err != nil {
		b.fail(1, "raw tcp echo: %v", err)
	}
	return out
}

// rawEcho serves one connection, echoing each length-prefixed message.
func rawEcho(ln net.Listener) error {
	c, err := ln.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]byte, 4+ppMax)
	for {
		if _, err := io.ReadFull(c, buf[:4]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		n := int(binary.LittleEndian.Uint32(buf))
		if n > ppMax {
			return fmt.Errorf("message of %d bytes", n)
		}
		if _, err := io.ReadFull(c, buf[4:4+n]); err != nil {
			return err
		}
		if _, err := c.Write(buf[:4+n]); err != nil {
			return err
		}
	}
}

// wireRung times the codec's CPU work per frame: AppendFrame and Decode
// of an 8 B put frame, and Framer splitting plus Decode of 256 KiB frames
// read from memory. Each loop is one span; results are ns per frame.
func (b *bench) wireRung(tr *Tracer) (append8, decode8, framer256k float64) {
	const n = 200000
	fr := wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 3, Offset: 64,
		Imm: 7, ImmValid: true, Data: make([]byte, 8), WireSize: 8}
	buf := make([]byte, 0, 256)
	var app, dec, frm []float64
	for rep := 0; rep < 5; rep++ {
		id := tr.Begin("wire.AppendFrame", -1, int64(rep))
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf = wire.AppendFrame(buf[:0], &fr)
		}
		app = append(app, float64(time.Since(t0))/n)
		tr.End(id)

		var out wire.Frame
		id = tr.Begin("wire.Decode", -1, int64(rep))
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if err := wire.Decode(buf[wire.LengthPrefix:], &out); err != nil {
				b.fail(1, "wire rung decode: %v", err)
				return
			}
		}
		dec = append(dec, float64(time.Since(t0))/n)
		tr.End(id)
		if !bytes.Equal(out.Data, fr.Data) || out.Offset != fr.Offset || out.Imm != fr.Imm {
			b.fail(1, "wire rung: decoded frame differs from the encoded one")
		}
	}

	const k = 16
	big := fr
	big.Data = make([]byte, ppMax)
	big.WireSize = ppMax
	var stream []byte
	for i := 0; i < k; i++ {
		stream = wire.AppendFrame(stream, &big)
	}
	f := wire.NewFramer(256 << 10)
	for rep := 0; rep < 5; rep++ {
		r := bytes.NewReader(stream)
		var out wire.Frame
		frames := 0
		id := tr.Begin("wire.Framer", -1, int64(rep))
		t0 := time.Now()
		for frames < k {
			body, err := f.Next()
			if err != nil {
				b.fail(1, "wire rung framer: %v", err)
				return
			}
			if body == nil {
				if _, err := f.Fill(r); err != nil {
					b.fail(1, "wire rung framer fill: %v", err)
					return
				}
				continue
			}
			if err := wire.Decode(body, &out); err != nil || len(out.Data) != ppMax {
				b.fail(1, "wire rung: bad 256 KiB frame (%v)", err)
				return
			}
			frames++
		}
		frm = append(frm, float64(time.Since(t0))/k)
		tr.End(id)
	}
	b.attempted += 10*n + 5*k
	return median(app), median(dec), median(frm)
}

// netfabRung runs the round trips as put frames between two netfab.Mesh
// endpoints bootstrapped over localhost TCP: rank 1 echoes each frame from
// its receive callback, rank 0 spins until the echo arrived.
func (b *bench) netfabRung(phases []ppPhase, in *ppInputs, tr *Tracer) []Dist {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.fail(1, "netfab rung: %v", err)
		return nil
	}
	var meshes [2]*netfab.Mesh
	var errs [2]error
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		cfg := netfab.Config{Self: r, N: 2, RootAddr: ln.Addr().String()}
		if r == 0 {
			cfg.RootListener = ln
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			meshes[cfg.Self], errs[cfg.Self] = netfab.Bootstrap(cfg)
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		b.checkErrs("netfab rung bootstrap", errs[:])
		for _, m := range meshes {
			if m != nil {
				m.Close(false)
			}
		}
		return nil
	}
	m0, m1 := meshes[0], meshes[1]
	var cur, arrived, bad, sendErr atomic.Int64
	m1.Start(func(from int, fr *wire.Frame) {
		reply := *fr
		reply.Origin, reply.Target = 1, 0
		if m1.Send(0, &reply) != nil {
			sendErr.Add(1)
		}
	}, func(int, error) {})
	m0.Start(func(from int, fr *wire.Frame) {
		it := int(cur.Load())
		if _, ok := checkStamp(fr.Data, in.key[0], it); !ok {
			bad.Add(1)
		}
		arrived.Store(int64(it) + 1)
	}, func(int, error) {})

	var out []Dist
	for pi, ph := range phases {
		send := append([]byte(nil), in.body[0][pi]...)
		fr := wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, RegionID: 1, Data: send, WireSize: ph.size}
		samples := make([]float64, 0, 1<<16)
		var t0phase time.Time
		base := int(arrived.Load())
		for it := 0; ; it++ {
			if it == ph.warm {
				t0phase = time.Now()
			}
			if it > ph.warm && time.Since(t0phase) >= ph.dur {
				break
			}
			seq := base + it
			cur.Store(int64(seq))
			stamp(send, in.key[0], seq, false)
			fr.Offset = (it & 1) * ppMax
			root := tr.Begin("bench.rtt", -1, int64(pi)<<32|int64(it))
			t0 := time.Now()
			id := tr.Begin("netfab.Send", root, int64(pi)<<32|int64(it))
			err := m0.Send(1, &fr)
			tr.End(id)
			if err != nil {
				b.fail(1, "netfab rung send: %v", err)
				break
			}
			for arrived.Load() <= int64(seq) {
				goruntime.Gosched()
			}
			d := time.Since(t0)
			tr.End(root)
			b.attempted++
			if it >= ph.warm {
				samples = append(samples, float64(d)/1e3)
			}
		}
		out = append(out, NewDist(samples))
	}
	b.fail(bad.Load(), "netfab rung: %d echoes with a bad stamp", bad.Load())
	b.fail(sendErr.Load(), "netfab rung: %d echo sends failed", sendErr.Load())
	wg.Add(2)
	for _, m := range meshes {
		go func() {
			defer wg.Done()
			m.Close(true)
		}()
	}
	wg.Wait()
	return out
}

// coreRung runs the round trips through runtime.RunLocalCluster,
// rma.Allocate and core.PutNotify/NotifyInit: the full stack below fompi.
func (b *bench) coreRung(phases []ppPhase, in *ppInputs, tr *Tracer) []Dist {
	var out []Dist
	var bads [2]int64
	var rounds int64
	// tr belongs to this goroutine until the job starts, then to rank 0.
	trs := [2]*Tracer{tr, nil}
	t0 := time.Now()
	errs := runtime.RunLocalCluster(runtime.Options{Ranks: 2}, func(p *runtime.Proc) {
		r := p.Rank()
		if r == 0 {
			tr.Record("runtime.RunLocalCluster.bootstrap", t0, time.Now(), 0)
		}
		id := trs[r].Begin("rma.Allocate", -1, 0)
		w := rma.Allocate(p, 2*ppMax)
		trs[r].End(id)
		defer w.Free()
		req := core.NotifyInit(w, 1-r, ppTag, 1)
		defer req.Free()
		raw, n, bad := ppSide(&coreEnd{p, w, req, 1 - r}, r, "core", phases, in, trs[r], nil)
		bads[r] = bad
		if r == 0 {
			out, rounds = dists(raw), n
		}
	})
	b.checkErrs("core rung", errs)
	b.attempted += rounds
	b.fail(bads[0]+bads[1], "core rung: %d payloads failed their check", bads[0]+bads[1])
	return out
}

// p50 is a rung's median, 0 when withheld (too few samples).
func p50(ds []Dist, i int) float64 {
	if i >= len(ds) {
		return 0
	}
	v, _ := ds[i].Pct(50)
	return v
}

// tcpLadder runs every TCP rung on frac of the run's measuring time and
// reports the per-layer metrics of the pingpong-tcp stack.
func (b *bench) tcpLadder(frac float64) {
	phases := ppPhases(b, frac/4)
	in := newPPInputs(b, phases)
	origin := time.Now()
	tr := NewTracer(origin)

	raw := b.rawTCPRung(phases, in)
	a8, d8, f256 := b.wireRung(tr)
	nf := b.netfabRung(phases, in, tr)
	co := b.coreRung(phases, in, tr)
	fo := b.ppFompi(phases, true)
	b.addPP(fo)
	b.trace.Add(tr)

	b.set("tcp.raw.rtt8_p50_us", p50(raw, 0))
	b.set("tcp.raw.rtt256k_p50_us", p50(raw, 1))
	b.set("wire.append8_ns", a8)
	b.set("wire.decode8_ns", d8)
	b.set("wire.framer256k_ns", f256)
	b.set("netfab.rtt8_p50_us", p50(nf, 0))
	b.set("netfab.rtt256k_p50_us", p50(nf, 1))
	b.set("netfab.self8_us", p50(nf, 0)-p50(raw, 0))
	b.set("core.rtt8_p50_us", p50(co, 0))
	b.set("core.rtt256k_p50_us", p50(co, 1))
	b.set("core.self8_us", p50(co, 0)-p50(nf, 0))
	b.set("fompi.rtt8_p50_us", p50(fo.rtt, 0))
	b.set("fompi.rtt256k_p50_us", p50(fo.rtt, 1))
	b.set("fompi.self8_us", p50(fo.rtt, 0)-p50(co, 0))

	// Call spans of the fompi rung's 8 B phase (request ids of phase 0 are
	// below 1<<32).
	calls := spanP50s(fo.spans, 0, "fompi.PutNotify", "fompi.Flush", "fompi.Wait")
	b.set("fompi.putnotify_ns", calls[0]*1e3)
	b.set("fompi.flush_us", calls[1])
	b.set("fompi.wait_us", calls[2])

	n8, n256 := fo.net[0], fo.net[1]
	b.set("netfab.frames_per_op", perOp(n8.frames, n8.rounds))
	b.set("netfab.frames_per_op_256k", perOp(n256.frames, n256.rounds))
	b.set("netfab.tx_flushes_per_op", perOp(n8.flushes, n8.rounds))
	b.set("netfab.frames_per_read", perOp(n8.recv, n8.reads))
	b.set("fabric.link_acks_per_op", perOp(n8.acks, n8.rounds))
	b.set("fabric.link_acks_per_op_256k", perOp(n256.acks, n256.rounds))
	b.set("fabric.retransmits", n8.retrans+n256.retrans)
	b.set("fabric.pool_hit_rate", perOp(n8.poolHit+n256.poolHit, n8.poolGets+n256.poolGets))
	b.set("fabric.pool_oversize", n8.oversize+n256.oversize)

	b.note("TCP ladder, round-trip p50 in us (self = this rung - the rung below):")
	rungs := []struct {
		name string
		d    []Dist
	}{{"tcp.raw", raw}, {"netfab", nf}, {"core", co}, {"fompi", fo.rtt}}
	for i, rg := range rungs {
		below := [2]float64{}
		if i > 0 {
			below = [2]float64{p50(rungs[i-1].d, 0), p50(rungs[i-1].d, 1)}
		}
		for pi, ph := range phases {
			if pi < len(rg.d) {
				b.note("  %-8s %5s B: %s  self %+.1f", rg.name, ph.label, rg.d[pi].Describe(50, 99),
					p50(rg.d, pi)-below[pi])
			}
		}
	}
	b.note("  wire: AppendFrame 8 B %.0f ns, Decode 8 B %.0f ns, Framer+Decode 256 KiB %.0f ns",
		a8, d8, f256)
	b.note("  rank 0 per round trip: 8 B %.2f frames, %.3f link acks; 256 KiB %.2f frames, %.3f link acks",
		perOp(n8.frames, n8.rounds), perOp(n8.acks, n8.rounds), perOp(n256.frames, n256.rounds), perOp(n256.acks, n256.rounds))
}

// addPP counts a fompi ping-pong job's rounds and failures and keeps its
// spans.
func (b *bench) addPP(r ppResult) {
	b.attempted += r.rounds
	b.fail(r.bad, "pingpong: %d payloads failed their check", r.bad)
	b.trace.Add(r.spans)
	b.trace.Add(r.sspans)
	b.trace.Add(r.job)
}

func perOp(n, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return n / ops
}

// spanP50s returns the median duration (us) of the named spans of one
// ping-pong phase in a tracer.
func spanP50s(t *Tracer, phase int64, names ...string) []float64 {
	out := make([]float64, len(names))
	if t == nil {
		return out
	}
	for i, name := range names {
		var ds []float64
		for _, s := range t.spans {
			if s.Name == name && s.End >= 0 && s.Req>>32 == phase {
				ds = append(ds, float64(s.End-s.Start)/1e3)
			}
		}
		out[i], _ = NewDist(ds).Pct(50)
	}
	return out
}
