//go:build simdebug

package nic

import (
	"strings"
	"testing"

	"rvma/internal/fabric"
)

// These tests prove the packet pool's lifetime invariants fire: each
// builds a use-after-free the release build would silently turn into a
// corrupted packet and checks the simdebug build refuses it.

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want it to contain %q", r, want)
		}
	}()
	fn()
}

// TestDebugCatchesDoubleFree: a handler that frees the packet itself
// collides with the NIC's own Free after dispatch.
func TestDebugCatchesDoubleFree(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	b.SetHandler(func(pkt *fabric.Packet) { b.Network().Free(pkt) })
	eng.Schedule(0, func() { a.SendMessage(1, 100, nil, nil) })
	mustPanic(t, "fabric: packet #0 (0->1) freed twice", func() { eng.Run() })
}

// TestDebugCatchesDispatchAfterFree: a packet freed while its handler
// dispatch is still scheduled must not reach the handler.
func TestDebugCatchesDispatchAfterFree(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	b.SetHandler(func(pkt *fabric.Packet) { t.Error("handler ran on a freed packet") })
	net := a.Network()
	eng.Schedule(0, func() {
		pkt := net.NewPacket(1)
		pkt.Dst, pkt.ID = 1, 7
		b.deliver(pkt) // schedules the dispatch step
		net.Free(pkt)
	})
	mustPanic(t, "fabric: packet #7 (1->1) dispatched after Free", func() { eng.Run() })
}
