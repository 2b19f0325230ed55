package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/fompi"
	"repro/internal/kv"
)

// The kv traffic of the traced run drives the sharded store over TCP from
// both ranks with an open loop: each rank issues its half of a Poisson
// arrival schedule fixed before the clock starts, whatever the store's
// progress, and every operation's latency is charged from its scheduled
// arrival.

// kvLadder holds the offered aggregate rates (ops/s) of the kv.max_kops
// ladder.
var kvLadder = []float64{20000, 40000, 60000, 80000, 100000, 120000, 140000, 160000, 200000}

const (
	kvRate     = 20000 // offered aggregate ops/s of the fixed-rate phase
	kvKeys     = 512   // preloaded keyspace over both shards
	kvBuckets  = 512   // buckets per shard: the keys fill a quarter of the slots
	kvSlots    = 4     // kv's default slots per bucket
	kvValSize  = 64
	kvReadPct  = 80
	kvP99Limit = 20 * time.Millisecond // kv.max_kops latency limit on both p99s
	kvSetups   = 50                    // kv bring-ups timed for kv.open_ms and kv.preload_ms
)

// loopSample is the sampling period of the poll-loop spans (DrainAcks,
// Yield) of the open loop.
const loopSample = 32

// kvOp is one scheduled operation of one rank.
type kvOp struct {
	at  time.Duration // scheduled arrival since the phase start
	get bool
	key int
	val []byte // put value, pre-built
}

// kvInputs are the keys and every rank's schedules, built before any
// clock starts.
type kvInputs struct {
	keys    [][]byte
	maxVer  []uint64    // highest version any schedule writes per key
	final   [][][]byte  // [phase][key]: last value written by the end of the phase
	key     uint64      // value checksum key
	phases  [][2][]kvOp // [phase][rank]
	offered []float64   // realized offered aggregate rate per phase, ops/s
}

// kvHash is the store's key hash (FNV-1a 32, 0 mapped to 1), used to pick
// a keyspace that fits the table.
func kvHash(key []byte) uint32 {
	h := fnv.New32a()
	h.Write(key)
	if v := h.Sum32(); v != 0 {
		return v
	}
	return 1
}

// writerOf is the only rank that writes key i, so its final value is
// known.
func writerOf(i int) int { return i % 2 }

func newKVInputs(b *bench, rates []float64, durs []time.Duration) *kvInputs {
	rng := b.rng("kv")
	in := &kvInputs{key: rng.Uint64()}
	fill := map[[2]uint32]int{}
	for len(in.keys) < kvKeys {
		k := []byte(fmt.Sprintf("key-%016x", rng.Uint64()))
		h := kvHash(k)
		slot := [2]uint32{h % 2, (h / 2) % kvBuckets}
		if fill[slot] == kvSlots-1 { // keep one slot of every bucket free
			continue
		}
		fill[slot]++
		in.keys = append(in.keys, k)
	}
	in.maxVer = make([]uint64, kvKeys)
	last := make([][]byte, kvKeys)
	for i := range in.keys {
		last[i] = in.value(i, 0)
	}
	own := [2][]int{}
	for i := range in.keys {
		own[writerOf(i)] = append(own[writerOf(i)], i)
	}
	for pi, rate := range rates {
		var ph [2][]kvOp
		n := 0
		for r := 0; r < 2; r++ {
			mean := float64(time.Second) / (rate / 2)
			for t := time.Duration(rng.ExpFloat64() * mean); t < durs[pi]; t += time.Duration(rng.ExpFloat64() * mean) {
				op := kvOp{at: t, get: rng.Intn(100) < kvReadPct}
				if op.get {
					op.key = rng.Intn(kvKeys)
				} else {
					op.key = own[r][rng.Intn(len(own[r]))]
					in.maxVer[op.key]++
					op.val = in.value(op.key, in.maxVer[op.key])
					last[op.key] = op.val
				}
				ph[r] = append(ph[r], op)
				n++
			}
		}
		in.phases = append(in.phases, ph)
		in.final = append(in.final, append([][]byte(nil), last...))
		in.offered = append(in.offered, float64(n)/durs[pi].Seconds())
	}
	return in
}

// value encodes key index, writer and version, filler derived from them,
// and a keyed checksum over everything before it.
func (in *kvInputs) value(i int, ver uint64) []byte {
	v := make([]byte, kvValSize)
	binary.LittleEndian.PutUint32(v[0:], uint32(i))
	binary.LittleEndian.PutUint32(v[4:], uint32(writerOf(i)))
	binary.LittleEndian.PutUint64(v[8:], ver)
	x := in.key ^ uint64(i)<<32 ^ ver
	for off := 16; off < kvValSize-8; off += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(v[off:], x)
	}
	binary.LittleEndian.PutUint64(v[kvValSize-8:], in.sum(v))
	return v
}

func (in *kvInputs) sum(v []byte) uint64 {
	h := in.key
	for off := 0; off < kvValSize-8; off += 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(v[off:]))
	}
	return h
}

// valid reports whether v is a value some schedule wrote (or preloaded)
// for key i.
func (in *kvInputs) valid(i int, v []byte) bool {
	if len(v) != kvValSize || binary.LittleEndian.Uint64(v[kvValSize-8:]) != in.sum(v) {
		return false
	}
	return binary.LittleEndian.Uint32(v[0:]) == uint32(i) &&
		binary.LittleEndian.Uint32(v[4:]) == uint32(writerOf(i)) &&
		binary.LittleEndian.Uint64(v[8:]) <= in.maxVer[i]
}

// kvPass is what one rank measured in one phase.
type kvPass struct {
	get, put, late []float64 // us
	done           int64     // operations completed
	bad            int64     // gets that missed or returned an invalid value
	unfinished     int64     // ops not issued, or not completed (acknowledged), by the deadline
	span           time.Duration
}

// openLoop issues ops on their schedule and polls for completions until
// every op completed or the drain deadline passed.
func openLoop(p *fompi.Proc, s *kv.Store, in *kvInputs, ops []kvOp, dur time.Duration, tr *Tracer) kvPass {
	type pendGet struct {
		fut *kv.GetFuture
		op  int
	}
	type pendPut struct {
		owner int
		seq   uint64
		op    int
	}
	res := kvPass{
		get:  make([]float64, 0, len(ops)),
		put:  make([]float64, 0, len(ops)/4),
		late: make([]float64, 0, len(ops)),
	}
	var gets []pendGet
	var puts []pendPut
	deadline := dur + 5*time.Second
	start := time.Now()
	issued := 0
	for loop := 0; issued < len(ops) || len(gets)+len(puts) > 0; loop++ {
		// The poll loop turns over every few microseconds: trace one turn
		// in loopSample.
		ltr := tr
		if loop%loopSample != 0 {
			ltr = nil
		}
		now := time.Since(start)
		if now > deadline {
			break
		}
		for issued < len(ops) && ops[issued].at <= now {
			op := &ops[issued]
			res.late = append(res.late, float64(now-op.at)/1e3)
			req := int64(issued)
			if op.get {
				id := tr.Begin("kv.GetAsync", -1, req)
				fut := s.GetAsync(in.keys[op.key])
				tr.End(id)
				gets = append(gets, pendGet{fut, issued})
			} else {
				id := tr.Begin("kv.PutAsync", -1, req)
				owner, seq := s.PutAsync(in.keys[op.key], op.val)
				tr.End(id)
				puts = append(puts, pendPut{owner, seq, issued})
			}
			issued++
			now = time.Since(start)
		}
		id := ltr.Begin("kv.DrainAcks", -1, int64(issued))
		s.DrainAcks()
		ltr.End(id)
		now = time.Since(start)
		n := 0
		for _, g := range gets {
			if !g.fut.Done() {
				gets[n] = g
				n++
				continue
			}
			v, ok := g.fut.Await()
			op := &ops[g.op]
			res.get = append(res.get, float64(now-op.at)/1e3)
			tr.Record("bench.kvget", start.Add(op.at), start.Add(now), int64(g.op))
			res.done++
			if !ok || !in.valid(op.key, v) {
				res.bad++
			}
		}
		gets = gets[:n]
		n = 0
		for _, q := range puts {
			if s.Acked(q.owner) <= q.seq {
				puts[n] = q
				n++
				continue
			}
			op := &ops[q.op]
			res.put = append(res.put, float64(now-op.at)/1e3)
			tr.Record("bench.kvput", start.Add(op.at), start.Add(now), int64(q.op))
			res.done++
		}
		puts = puts[:n]
		if issued == len(ops) && len(gets)+len(puts) == 0 {
			break
		}
		id = ltr.Begin("fompi.Yield", -1, int64(issued))
		p.Yield()
		ltr.End(id)
	}
	res.span = time.Since(start)
	res.unfinished = int64(len(gets) + len(puts) + len(ops) - issued)
	return res
}

// kvRun is what one kv job measured, both ranks merged.
type kvRun struct {
	fixed     [2]kvPass // fixed-rate phase per rank
	steps     []kvStep  // rate ladder
	failures  []kvFailure
	attempted int64
	stats     [2]kv.Stats
	am        [2]fompi.AMClassStats
	spans     [3]*Tracer // ranks 0 and 1, then the calling goroutine
}

type kvStep struct {
	offered, achieved float64 // aggregate ops/s
	get, put          Dist
	bad               int64 // gets that missed or returned an invalid value
	pass              bool
}

// kvFailure is a count of failed operations with its reason.
type kvFailure struct {
	n   int64
	why string
}

func (r *kvRun) fail(n int64, format string, args ...any) {
	if n > 0 {
		r.failures = append(r.failures, kvFailure{n, fmt.Sprintf(format, args...)})
	}
}

// kvJob runs one kv job: open the store, preload it, run the fixed-rate
// phase and then, if step is not 0, the rate ladder, and finally sweep the
// whole table with MGet.
func (b *bench) kvJob(fixed time.Duration, step time.Duration, traced bool) *kvRun {
	rates := []float64{kvRate}
	durs := []time.Duration{fixed}
	if step > 0 {
		for _, r := range kvLadder {
			rates = append(rates, r)
			durs = append(durs, step)
		}
	}
	in := newKVInputs(b, rates, durs)
	res := &kvRun{}
	origin := time.Now()
	res.spans = [3]*Tracer{b.tracer(traced, origin), b.tracer(traced, origin), b.tracer(traced, origin)}
	var mu sync.Mutex
	stepPass := make([]kvPass, 2) // ladder step results of both ranks
	errs := runCluster(false, res.spans[2], func(p *fompi.Proc) {
		r := p.Rank()
		tr := res.spans[r]
		s := kvOpen(p, tr)
		kvPreload(p, s, in, tr)
		p.Barrier()

		res.fixed[r] = openLoop(p, s, in, in.phases[0][r], durs[0], tr)
		p.Barrier()
		ran, fails := 0, 0
		for si := 1; si < len(rates) && fails < 2; si++ {
			ran = si
			pass := openLoop(p, s, in, in.phases[si][r], durs[si], nil)
			mu.Lock()
			stepPass[r] = pass
			mu.Unlock()
			p.Barrier()
			mu.Lock()
			stp := ladderStep(in.offered[si], durs[si], stepPass)
			mu.Unlock()
			if r == 0 {
				res.steps = append(res.steps, stp)
			}
			p.Barrier() // both ranks read stepPass before it is overwritten
			if stp.pass {
				fails = 0
			} else {
				fails++
			}
		}
		s.Flush()
		p.Barrier()
		got := s.MGet(in.keys)
		sweepBad := int64(0)
		for i, v := range got {
			if v == nil || !in.valid(i, v) ||
				(writerOf(i) == r && string(v) != string(in.final[ran][i])) {
				sweepBad++
			}
		}
		mu.Lock()
		res.fail(sweepBad, "rank %d: %d keys failed the final MGet sweep", r, sweepBad)
		res.attempted += int64(len(in.keys))
		res.stats[r] = s.Stats()
		for _, cs := range p.QueueStats().AM {
			res.am[r].Dispatched += cs.Dispatched
			res.am[r].Dropped += cs.Dropped
			res.am[r].Panics += cs.Panics
			if cs.QueuedHighWater > res.am[r].QueuedHighWater {
				res.am[r].QueuedHighWater = cs.QueuedHighWater
			}
		}
		mu.Unlock()
		s.Close()
	})
	b.checkErrs("kv", errs)
	for r := 0; r < 2; r++ {
		f := res.fixed[r]
		res.attempted += int64(len(in.phases[0][r]))
		res.fail(f.bad, "rank %d: %d gets missed or returned a bad value", r, f.bad)
		res.fail(f.unfinished, "rank %d: %d operations unfinished (puts unacknowledged) at the deadline", r, f.unfinished)
		res.fail(int64(res.stats[r].FullDrops), "rank %d: %d puts dropped on a full bucket", r, res.stats[r].FullDrops)
		res.fail(int64(res.stats[r].BadRecord), "rank %d: %d malformed records", r, res.stats[r].BadRecord)
		res.fail(int64(res.am[r].Dropped+res.am[r].Panics), "rank %d: %d AM dispatches dropped or panicked", r,
			res.am[r].Dropped+res.am[r].Panics)
	}
	for _, s := range res.steps {
		// A ladder step past capacity may leave a backlog: that is its
		// verdict, not a failure. Its gets must still be right.
		res.attempted += int64(s.get.N() + s.put.N())
		res.fail(s.bad, "ladder %.0f ops/s: %d gets missed or returned a bad value", s.offered, s.bad)
	}
	return res
}

// kvOpen opens the store.
func kvOpen(p *fompi.Proc, tr *Tracer) *kv.Store {
	id := tr.Begin("kv.Open", -1, 0)
	s := kv.Open(p, kv.Options{Buckets: kvBuckets})
	tr.End(id)
	return s
}

// kvPreload writes version 0 of every key this rank writes.
func kvPreload(p *fompi.Proc, s *kv.Store, in *kvInputs, tr *Tracer) {
	var pairs []kv.KV
	for i, k := range in.keys {
		if writerOf(i) == p.Rank() {
			pairs = append(pairs, kv.KV{Key: k, Val: in.value(i, 0)})
		}
	}
	id := tr.Begin("kv.MPut", -1, 0)
	s.MPut(pairs)
	tr.End(id)
}

// ladderStep judges one ladder step from both ranks' results: it passes
// when both p99s stay under the limit and every operation completed
// within the limit of the schedule's end (no growing backlog).
func ladderStep(offered float64, dur time.Duration, ps []kvPass) kvStep {
	var get, put []float64
	var bad, unfinished int64
	var span time.Duration
	var done int64
	for _, p := range ps {
		get = append(get, p.get...)
		put = append(put, p.put...)
		bad += p.bad
		unfinished += p.unfinished
		done += p.done
		if p.span > span {
			span = p.span
		}
	}
	s := kvStep{offered: offered, achieved: float64(done) / span.Seconds(),
		get: NewDist(get), put: NewDist(put), bad: bad}
	g99, gok := s.get.Pct(99)
	p99, pok := s.put.Pct(99)
	limit := float64(kvP99Limit) / 1e3
	s.pass = gok && pok && g99 <= limit && p99 <= limit && bad == 0 && unfinished == 0 &&
		span <= dur+kvP99Limit
	return s
}

// kvLayer runs the kv-tcp traffic for the kv and active-message metrics of
// every traced run: kv bring-ups for the store's set-up parts, a traced
// job at the fixed rate, then the rate ladder (kv.max_kops) on an untraced
// one. kv_max_kops does not repeat within a tenth from run to run (the
// step that first breaks the limit varies), so it is a per-layer
// diagnostic rather than an end-to-end metric.
func (b *bench) kvLayer(frac float64) {
	var st setupStats
	in := newKVInputs(b, nil, nil)
	b.bringUps(false, kvSetups, &st, func(p *fompi.Proc, c *setupClock) func() {
		s := kvOpen(p, nil)
		c.midway()
		kvPreload(p, s, in, nil)
		return s.Close
	})
	b.set("kv.open_ms", median(st.op)*1e3)
	b.set("kv.preload_ms", median(st.pre)*1e3)
	b.note("kv set-up: median of %d bring-ups: kv.open_ms %.3f, kv.preload_ms %.3f",
		len(st.total), median(st.op)*1e3, median(st.pre)*1e3)

	a := takeProcSnap()
	traced := b.kvJob(b.share(frac*0.4), 0, true)
	z := takeProcSnap()
	lad := b.kvJob(b.share(frac*0.1), b.share(frac*0.5/float64(len(kvLadder))), false)
	b.addKV(traced)
	b.addKV(lad)

	sum := traced.summary()
	b.set("kv.getasync_us", sum.mean("kv.GetAsync"))
	b.set("kv.putasync_us", sum.mean("kv.PutAsync"))
	b.set("kv.drainacks_us", sum.mean("kv.DrainAcks"))
	var puts, waits, disp float64
	var qhw int
	for r := 0; r < 2; r++ {
		puts += float64(traced.stats[r].Puts)
		waits += float64(traced.stats[r].AckWaits)
		disp += float64(traced.am[r].Dispatched)
		if traced.am[r].QueuedHighWater > qhw {
			qhw = traced.am[r].QueuedHighWater
		}
	}
	b.set("kv.ack_waits_per_put", perOp(waits, puts))
	b.set("core.am.dispatched_per_put", perOp(disp, puts))
	b.set("core.am.queued_hw", float64(qhw))
	m := mergeKV(traced)
	b.setPct("gen.late_p99_us", m.late, 99)
	// Where the generator's lateness comes from: the Go scheduler, the
	// rank's own wait between polls, or a blocking call into kv.
	sched99, n := histDeltaP99(a.sched, z.sched)
	b.note("kv-tcp traffic, traced, %d ops/s offered, latency from scheduled arrival (us):", kvRate)
	b.note("  get                 %s", m.get.Describe(50, 99))
	b.note("  put                 %s", m.put.Describe(50, 99))
	b.note("  generator lateness  %s; scheduler latency p99 %.1f us (n=%d)", m.late.Describe(50, 99), sched99*1e6, n)
	b.note("  calls: %s", traced.callTails())
	b.reportLadder(lad)
}

// kvMerged pools both ranks' samples of the fixed-rate phase.
type kvMerged struct{ get, put, late Dist }

func mergeKV(r *kvRun) kvMerged {
	var g, p, l []float64
	for _, f := range r.fixed {
		g = append(g, f.get...)
		p = append(p, f.put...)
		l = append(l, f.late...)
	}
	return kvMerged{NewDist(g), NewDist(p), NewDist(l)}
}

// addKV counts a kv job's operations and failures and keeps its spans.
func (b *bench) addKV(r *kvRun) {
	b.attempted += r.attempted
	for _, f := range r.failures {
		b.fail(f.n, "kv: %s", f.why)
	}
	for _, t := range r.spans {
		b.trace.Add(t)
	}
}

// reportLadder sets kv.max_kops from a job's rate ladder.
func (b *bench) reportLadder(r *kvRun) {
	best := 0.0
	for _, s := range r.steps {
		b.note("  ladder %5.0f ops/s: achieved %7.0f, get %s, put %s, pass=%v",
			s.offered, s.achieved, s.get.Describe(99), s.put.Describe(99), s.pass)
		if s.pass {
			best = s.offered
		}
	}
	b.note("  kv_max_kops %.3f (limit: both p99s under %v, backlog drained within it)", best/1e3, kvP99Limit)
	b.set("kv.max_kops", best/1e3)
}

// setPct sets a percentile metric unless the sample count cannot support
// it; a withheld metric is then reported missing.
func (b *bench) setPct(name string, d interface{ Pct(float64) (float64, bool) }, q float64) {
	if v, ok := d.Pct(q); ok {
		b.set(name, v)
	}
}

// callTails formats the p99 and the longest duration of the open loop's
// calls.
func (r *kvRun) callTails() string {
	out := ""
	for _, name := range []string{"kv.GetAsync", "kv.PutAsync", "kv.DrainAcks", "fompi.Yield"} {
		var ds []float64
		for _, t := range r.spans {
			if t == nil {
				continue
			}
			for _, s := range t.spans {
				if s.Name == name && s.End >= 0 {
					ds = append(ds, float64(s.End-s.Start)/1e3)
				}
			}
		}
		d := NewDist(ds)
		out += fmt.Sprintf("%s %s max=%.0f us; ", name, d.Describe(99), d.Max())
	}
	return out
}

// summary summarizes a job's spans.
func (r *kvRun) summary() Summary {
	var tr Trace
	for _, t := range r.spans {
		tr.Add(t)
	}
	return tr.Summarize()
}

func (s Summary) mean(name string) float64 {
	n := s.Names[name]
	if n.Count == 0 {
		return 0
	}
	return n.TotalUS / float64(n.Count)
}
