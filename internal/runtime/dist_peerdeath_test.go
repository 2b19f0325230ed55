package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
)

// TestDistLargePutPeerDeath kills rank 1 right as rank 0 starts an 8 MiB
// put to it. The payload is far larger than a socket buffer, so the rank
// dies with the transfer somewhere in flight: refused at the socket,
// half written, or written and never acknowledged. In every one of those
// interleavings rank 0's put and its run must end with ErrPeerFailed (not
// hang), every pooled transfer buffer must be returned, and the job's
// goroutines must exit: a rank death mid-transfer leaks nothing.
func TestDistLargePutPeerDeath(t *testing.T) {
	const (
		regionSize = 9 << 20
		paySize    = 8 << 20
	)
	var (
		mu      sync.Mutex
		opErr   error
		drained bool
		last    string
	)
	base := goruntime.NumGoroutine()
	done := make(chan []error, 1)
	go func() {
		done <- RunLocalCluster(Options{Ranks: 2}, func(p *Proc) {
			nic := p.NIC()
			reg := nic.Register(make([]byte, regionSize))
			p.Barrier()
			if p.Rank() == 1 {
				panic("rank 1 dies mid-transfer")
			}
			fab := p.World().Fabric()
			before := fab.PoolStats()
			op := nic.Put(p.Proc, 1, reg.ID, 0, make([]byte, paySize), fabric.Imm{})
			op.Await(p.Proc)
			mu.Lock()
			opErr = op.Err()
			mu.Unlock()
			// Poll briefly for the pool's fixpoint: the failure sweep and
			// the writer's disposal of an in-flight frame race the op's
			// completion. The balance allows exactly one unreturned get:
			// the reliability layer deliberately hands a sequenced
			// retained payload to the collector instead of the pool (a
			// slow retransmit clone may still be reading it when the
			// release comes).
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				st := fab.PoolStats()
				outstanding := (st.Gets - before.Gets) - (st.Returns - before.Returns)
				mu.Lock()
				last = fmt.Sprintf("put-era pool gets=%d returns=%d",
					st.Gets-before.Gets, st.Returns-before.Returns)
				if outstanding <= 1 {
					drained = true
					mu.Unlock()
					return
				}
				mu.Unlock()
				time.Sleep(10 * time.Millisecond)
			}
		})
	}()
	select {
	case errs := <-done:
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "dies mid-transfer") {
			t.Errorf("rank 1 error = %v, want its own panic", errs[1])
		}
		if !errors.Is(errs[0], fabric.ErrPeerFailed) {
			t.Errorf("rank 0 run error = %v, want errors.Is(..., ErrPeerFailed)", errs[0])
		}
		mu.Lock()
		defer mu.Unlock()
		if !errors.Is(opErr, fabric.ErrPeerFailed) {
			t.Errorf("doomed put completed with %v, want errors.Is(..., ErrPeerFailed)", opErr)
		}
		if !drained {
			t.Errorf("pooled buffers leaked after peer death: %s", last)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("rank 0 never unblocked from the mid-transfer peer death")
	}
	deadline := time.Now().Add(10 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never settled after peer death: %d running, baseline %d",
				goruntime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
