package rvma

import (
	"errors"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/metrics"
	"rvma/internal/sim"
)

// spanEnds counts span endings by status.
type spanEnds map[string]int

func (spanEnds) SpanStage(metrics.SpanKey, string, string, int, int, sim.Time, sim.Time, sim.Time) {
}

func (e spanEnds) SpanEnd(_ metrics.SpanKey, _, status string, _, _ int, _, _ sim.Time) {
	e[status]++
}

// TestMultiPacketPutNackedOnce: every rejected packet of a multi-packet
// unacknowledged put draws its own NACK, and the first one resolves the
// operation. The put's Nack future completes exactly once with the first
// NACK's reason and its span ends "nacked" exactly once, with no
// initiator-side registry to find the operation by.
func TestMultiPacketPutNackedOnce(t *testing.T) {
	const packets = 8
	cases := []struct {
		name string
		// setup prepares the target mailbox 7 before the put starts.
		setup func(eng *sim.Engine, dst *Endpoint)
		want  error
		// mixed: some packets are rejected for lack of a buffer, the rest
		// for a missing mailbox.
		mixed bool
	}{
		{
			name:  "unknown mailbox",
			setup: func(*sim.Engine, *Endpoint) {},
			want:  ErrNoWindow,
		},
		{
			name: "closed mailbox",
			setup: func(_ *sim.Engine, dst *Endpoint) {
				win, _ := dst.InitWindow(7, packets, EpochOps)
				win.PostBuffer(64)
				win.Close()
			},
			want: ErrNoWindow,
		},
		{
			// No buffer is posted, so the first packets are rejected for
			// lack of a buffer; the mailbox closes after the first reject,
			// so the rest are rejected as unknown. The first reason wins.
			name: "reason changes mid-message",
			setup: func(eng *sim.Engine, dst *Endpoint) {
				win, _ := dst.InitWindow(7, packets, EpochOps)
				var watch func()
				watch = func() {
					if dst.Stats.Drops > 0 {
						win.Close()
						return
					}
					eng.Schedule(sim.Nanosecond, watch)
				}
				eng.Schedule(0, watch)
			},
			want:  ErrNoBuffer,
			mixed: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CarryData = false
			fcfg := fabric.DefaultConfig()
			eng, src, dst := pair(t, cfg, fcfg, 1)
			reg := metrics.NewRegistry()
			reg.EnableSpans()
			ends := spanEnds{}
			reg.SetSpanObserver(ends)
			src.SetMetrics(reg)
			dst.SetMetrics(reg)
			tc.setup(eng, dst)

			var op *PutOp
			resolved := 0
			eng.Schedule(0, func() {
				op = src.PutN(1, 7, 0, packets*fcfg.MTU)
				op.Nack.OnComplete(func() { resolved++ })
			})
			eng.Run()

			if resolved != 1 {
				t.Fatalf("Nack resolved %d times, want once", resolved)
			}
			if err, _ := op.Nack.Value().(error); !errors.Is(err, tc.want) {
				t.Fatalf("Nack value %v, want the first reason %v", op.Nack.Value(), tc.want)
			}
			if dst.Stats.Nacks != packets || dst.Stats.Drops != packets {
				t.Fatalf("target sent %d NACKs for %d drops, want %d of each", dst.Stats.Nacks, dst.Stats.Drops, packets)
			}
			noBuf := reg.Counter("rvma.posted_buffer_exhaustion").Value()
			if mixed := noBuf > 0 && noBuf < packets; mixed != tc.mixed {
				t.Fatalf("%d of %d rejects for lack of a buffer; want mixed reasons %v", noBuf, packets, tc.mixed)
			}
			if ends["nacked"] != 1 || len(ends) != 1 {
				t.Fatalf("span endings %v, want exactly one nacked", ends)
			}
			if n := reg.Counter("span.rvma.put/nacked").Value(); n != 1 {
				t.Fatalf("span.rvma.put/nacked = %d, want 1", n)
			}
			if open := reg.OpenSpans(); open != 0 {
				t.Fatalf("%d spans left open", open)
			}
		})
	}
}
