//go:build go1.24

package rvma

import (
	"runtime"
	"testing"
	"weak"

	"rvma/internal/fabric"
)

// TestCompletedPutsAreUnreachable: an unacknowledged put's host state dies
// with the put. Once a run of puts has been placed and the caller has
// dropped its handles, neither endpoint (nor the engine, the NICs or the
// packet pool) holds a reference to any PutOp, so a long run's live heap
// does not grow with the number of messages sent.
func TestCompletedPutsAreUnreachable(t *testing.T) {
	const puts = 64
	cfg := DefaultConfig()
	cfg.CarryData = false
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(3, 1, EpochOps)
	for i := 0; i < puts; i++ {
		win.PostBuffer(4096)
	}
	ops := make([]weak.Pointer[PutOp], 0, puts)
	eng.Schedule(0, func() {
		for i := 0; i < puts; i++ {
			ops = append(ops, weak.Make(src.PutN(1, 3, 0, 3000)))
		}
	})
	eng.Run()
	if got := win.MessagesPlaced; got != puts {
		t.Fatalf("placed %d of %d puts", got, puts)
	}
	runtime.GC()
	runtime.GC()
	live := 0
	for _, wp := range ops {
		if wp.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("%d of %d completed puts still reachable after GC", live, puts)
	}
	// The endpoints and the engine must still be live during the GCs above,
	// or the check would pass by collecting everything.
	runtime.KeepAlive(eng)
	runtime.KeepAlive(src)
	runtime.KeepAlive(dst)
}
