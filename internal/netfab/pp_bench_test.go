package netfab

// Benchmark scaffolding for the rx path: a two-mesh ping-pong over real
// localhost TCP, sized to expose the poller's per-hop and per-chunk costs.

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// tcpMeshPair bootstraps two meshes over real localhost TCP.
func tcpMeshPair(tb testing.TB) [2]*Mesh {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var meshes [2]*Mesh
	var wg sync.WaitGroup
	errs := [2]error{}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{Self: r, N: 2, RootAddr: ln.Addr().String(), DialTimeout: 5 * time.Second}
			if r == 0 {
				cfg.RootListener = ln
			}
			meshes[r], errs[r] = Bootstrap(cfg)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d bootstrap: %v", r, err)
		}
	}
	return meshes
}

func benchPingPong(b *testing.B, size int) {
	meshes := tcpMeshPair(b)
	defer meshes[0].Close(true)
	defer meshes[1].Close(true)

	got := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	for r := 0; r < 2; r++ {
		m := meshes[r]
		m.Start(func(from int, fr *wire.Frame) {
			got[m.Self()] <- struct{}{}
		}, func(rank int, err error) {})
	}

	payload := make([]byte, size)
	fr := &wire.Frame{Kind: wire.KindPut, Origin: 0, Target: 1, Operand: uint64(size), Data: payload}
	b.SetBytes(int64(2 * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Origin, fr.Target = 0, 1
		if err := meshes[0].Send(1, fr); err != nil {
			b.Fatal(err)
		}
		<-got[1]
		fr.Origin, fr.Target = 1, 0
		if err := meshes[1].Send(0, fr); err != nil {
			b.Fatal(err)
		}
		<-got[0]
	}
}

func BenchmarkPingPong8(b *testing.B)    { benchPingPong(b, 8) }
func BenchmarkPingPong256K(b *testing.B) { benchPingPong(b, 262144) }
