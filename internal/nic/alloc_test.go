package nic

import (
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/sim"
)

// TestSendMessageAllocsIndependentOfPacketCount is the NIC half of the
// packet-path allocation gate: with the packet and event pools warm, a
// 12-packet message allocates exactly what a 1-packet message does. The
// per-message payload is the caller's; per-packet work (segmentation,
// injection, hops, receive dispatch, Free) adds nothing.
func TestSendMessageAllocsIndependentOfPacketCount(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate covers release builds")
	}
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	b.SetHandler(func(pkt *fabric.Packet) {})
	payload := &struct{ msg int }{}
	onSent := func() {}
	send := func(packets int) func() {
		return func() {
			a.SendMessage(1, packets*a.MTU(), payload, onSent)
			eng.Run()
		}
	}
	for i := 0; i < 4; i++ {
		send(12)()
	}
	one := testing.AllocsPerRun(50, send(1))
	twelve := testing.AllocsPerRun(50, send(12))
	if twelve != one {
		t.Fatalf("12-packet message allocates %.1f times, 1-packet message %.1f; per-packet work must not allocate", twelve, one)
	}
	allocated, free := a.Network().PacketPoolStats()
	if allocated != free {
		t.Fatalf("drained pair: %d packets allocated, %d on free lists", allocated, free)
	}
}

// TestHandlerSeesPacketUntilReturn checks the dispatch contract: the
// handler reads a live packet, and the NIC recycles it afterwards, so the
// next message reuses the same object.
func TestHandlerSeesPacketUntilReturn(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	var seen []*fabric.Packet
	b.SetHandler(func(pkt *fabric.Packet) {
		if pkt.Payload != "m" || pkt.Src != 0 || pkt.Dst != 1 {
			t.Errorf("handler got %+v", *pkt)
		}
		seen = append(seen, pkt)
	})
	for i := 0; i < 2; i++ {
		eng.Schedule(0, func() { a.SendMessage(1, 100, "m", nil) })
		eng.Run()
	}
	if len(seen) != 2 || seen[0] != seen[1] {
		t.Fatalf("second message should reuse the freed packet; got %v", seen)
	}
	if seen[1].Payload != nil {
		t.Fatal("a freed packet must not pin its payload")
	}
}
