package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed, so NewDist has to sort
	}
	return s
}

func TestPctExactValues(t *testing.T) {
	d := NewDist(seq(1000)) // samples 1..1000
	if d.N() != 1000 {
		t.Fatalf("N = %d, want 1000", d.N())
	}
	for _, c := range []struct{ q, want float64 }{
		{50, 500}, {90, 900}, {99, 990}, {10, 100},
	} {
		v, ok := d.Pct(c.q)
		if !ok || v != c.want {
			t.Errorf("p%g = %v, %v; want %v, true", c.q, v, ok, c.want)
		}
	}
	if m := d.Mean(); m != 500.5 {
		t.Errorf("mean = %v, want 500.5", m)
	}
	if m := d.Max(); m != 1000 {
		t.Errorf("max = %v, want 1000", m)
	}
}

func TestPctNearestRankOnSmallSet(t *testing.T) {
	d := NewDist([]float64{7, 3, 9, 1, 5, 2, 8, 4, 6, 10, 12, 11, 14, 13, 15, 17, 16, 19, 18, 20})
	v, ok := d.Pct(50) // 20 samples: rank 10 is 10, ten samples beyond it
	if !ok || v != 10 {
		t.Fatalf("p50 = %v, %v; want 10, true", v, ok)
	}
}

func TestPctRefusesThinTail(t *testing.T) {
	if _, ok := NewDist(seq(999)).Pct(99); ok {
		t.Error("p99 reported from 999 samples; want withheld")
	}
	if _, ok := NewDist(seq(1000)).Pct(99); !ok {
		t.Error("p99 withheld at 1000 samples; want reported")
	}
	if _, ok := NewDist(seq(19)).Pct(50); ok {
		t.Error("p50 reported from 19 samples; want withheld")
	}
	if _, ok := NewDist(nil).Pct(50); ok {
		t.Error("p50 reported from no samples")
	}
	if got := NewDist(seq(500)).Describe(50, 99); got != "p50=250.0 p99=withheld (n=500)" {
		t.Errorf("Describe = %q", got)
	}
}

func TestBlockedIgnoresOneSpoiledBlock(t *testing.T) {
	// Five blocks of 100 samples; the third block is 10x slower.
	var s []float64
	for b := 0; b < statBlocks; b++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if b == 2 {
				v *= 10
			}
			s = append(s, v)
		}
	}
	if v, ok := NewBlocked(s).Pct(50); !ok || v != 50 {
		t.Errorf("blocked p50 = %v, %v; want 50, true", v, ok)
	}
	// Two ranks' sample sets pool block by block.
	if v, ok := NewBlocked(s[:250], s[250:]).Pct(50); !ok || v != 50 {
		t.Errorf("pooled blocked p50 = %v, %v; want 50, true", v, ok)
	}
	if _, ok := NewBlocked(seq(50)).Pct(50); ok {
		t.Error("blocked p50 reported from blocks of 10 samples; want withheld")
	}
}
