//go:build simdebug

package fabric

import (
	"strings"
	"testing"
)

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

// TestDebugCatchesHopAfterFree: a packet freed while in flight must not
// take its next switch hop.
func TestDebugCatchesHopAfterFree(t *testing.T) {
	eng, net := twoNodeNet(t, DefaultConfig())
	net.AttachHost(0, net.Free)
	net.AttachHost(1, net.Free)
	pkt := net.NewPacket(0)
	pkt.Dst = 1
	net.Inject(pkt) // packet #0, first hop scheduled
	net.Free(pkt)
	mustPanic(t, "fabric: packet #0 (0->1) dispatched after Free", func() { eng.Run() })
}

// TestDebugCatchesFabricDoubleFree: a host callback that frees a packet
// twice trips the pool's double-free check.
func TestDebugCatchesFabricDoubleFree(t *testing.T) {
	eng, net := twoNodeNet(t, DefaultConfig())
	net.AttachHost(0, net.Free)
	net.AttachHost(1, func(p *Packet) { net.Free(p); net.Free(p) })
	pkt := net.NewPacket(0)
	pkt.Dst = 1
	eng.Schedule(0, func() { net.Inject(pkt) })
	mustPanic(t, "fabric: packet #0 (0->1) freed twice", func() { eng.Run() })
}
