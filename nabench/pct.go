package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie strictly above a percentile before
// it is reported: a p99 needs at least 1000 samples, a p50 at least 20.
// Below that the "percentile" is really the largest sample or close to it.
const minTail = 10

// Dist is a sorted sample set (microseconds unless stated otherwise).
type Dist struct{ s []float64 }

// NewDist wraps a sorted copy of samples.
func NewDist(samples []float64) Dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Dist{s: s}
}

// N is the sample count; every report of a percentile carries it.
func (d Dist) N() int { return len(d.s) }

// Pct returns the q-th percentile (0 < q < 100) by nearest rank: the
// smallest sample with at least q% of the samples at or below it. ok is
// false, and the value withheld, when fewer than minTail samples lie
// beyond that rank.
func (d Dist) Pct(q float64) (v float64, ok bool) {
	n := len(d.s)
	if n == 0 || q <= 0 || q >= 100 {
		return 0, false
	}
	idx := int(math.Ceil(q/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-idx-1 < minTail {
		return 0, false
	}
	return d.s[idx], true
}

// Mean is the arithmetic mean (0 for no samples).
func (d Dist) Mean() float64 {
	if len(d.s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range d.s {
		sum += v
	}
	return sum / float64(len(d.s))
}

// Max is the largest sample (0 for no samples).
func (d Dist) Max() float64 {
	if len(d.s) == 0 {
		return 0
	}
	return d.s[len(d.s)-1]
}

// Describe formats the given percentiles with the sample count, marking
// any percentile the sample count cannot support as withheld.
func (d Dist) Describe(qs ...float64) string {
	out := ""
	for _, q := range qs {
		if v, ok := d.Pct(q); ok {
			out += fmt.Sprintf("p%g=%.1f ", q, v)
		} else {
			out += fmt.Sprintf("p%g=withheld ", q)
		}
	}
	return out + fmt.Sprintf("(n=%d)", d.N())
}

// statBlocks is how many consecutive blocks a run's samples are cut into
// for its end-to-end figures: each figure is the median of the blocks'
// values, so a burst of outside noise that spoils one or two blocks does
// not move it.
const statBlocks = 5

// Blocked holds time-ordered samples cut into statBlocks blocks.
type Blocked struct{ blocks []Dist }

// NewBlocked cuts each sample set, in the order its samples were taken,
// into statBlocks consecutive blocks; block i pools block i of every set
// (the sets are ranks measuring over the same period).
func NewBlocked(sets ...[]float64) Blocked {
	var b Blocked
	for i := 0; i < statBlocks; i++ {
		var pool []float64
		for _, s := range sets {
			n := len(s)
			pool = append(pool, s[i*n/statBlocks:(i+1)*n/statBlocks]...)
		}
		b.blocks = append(b.blocks, NewDist(pool))
	}
	return b
}

// Pct is the median over blocks of each block's q-th percentile; ok is
// false when any block's sample count cannot support it.
func (b Blocked) Pct(q float64) (float64, bool) {
	vs := make([]float64, 0, len(b.blocks))
	for _, d := range b.blocks {
		v, ok := d.Pct(q)
		if !ok {
			return 0, false
		}
		vs = append(vs, v)
	}
	return median(vs), len(vs) > 0
}
