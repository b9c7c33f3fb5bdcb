package rvma

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"rvma/internal/fabric"
)

// TestRepostReusesRegionAndCell: a completed buffer reposted on its
// window serves the next epoch with the same region and completion cell,
// with its per-epoch fields reset and its cell cleared, and a run of
// epochs allocates no further memory.
func TestRepostReusesRegionAndCell(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 0
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(21, 64, EpochBytes)
	buf, err := win.PostBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	regions := dst.Memory().RegionCount()
	const epochs = 5
	var heads []uint64
	win.SetCompletionHandler(func(b *Buffer) {
		if b != buf {
			t.Fatalf("epoch %d completed a different buffer", win.Epoch())
		}
		h, l := b.Cell.Get()
		heads = append(heads, uint64(h))
		if l != 64 || b.Count != 64 || !b.Completed() {
			t.Fatalf("completed buffer: len=%d count=%d completed=%v", l, b.Count, b.Completed())
		}
		if got := dst.Memory().Read(b.Region.Base, 1)[0]; got != byte(len(heads)) {
			t.Fatalf("epoch %d placed %d", len(heads), got)
		}
		if err := win.Repost(b); err != nil {
			t.Fatalf("Repost: %v", err)
		}
		if b.Completed() || b.Count != 0 || b.HighWater != 0 || b.CompletedAt != 0 || b.Epoch != win.Epoch() {
			t.Fatalf("reposted buffer not reset: %+v (window epoch %d)", *b, win.Epoch())
		}
		if h, l := b.Cell.Get(); h != 0 || l != 0 {
			t.Fatalf("reposted cell = (%#x, %d), want cleared", h, l)
		}
		if win.Head() != b || win.QueueDepth() != 1 {
			t.Fatal("reposted buffer is not the active head")
		}
		if len(heads) < epochs {
			src.Put(1, 21, 0, bytes.Repeat([]byte{byte(len(heads) + 1)}, 64))
		}
	})
	eng.Schedule(0, func() { src.Put(1, 21, 0, bytes.Repeat([]byte{1}, 64)) })
	eng.Run()
	if len(heads) != epochs || win.Epoch() != epochs {
		t.Fatalf("%d completions, epoch %d; want %d", len(heads), win.Epoch(), epochs)
	}
	for i, h := range heads {
		if h != uint64(buf.Region.Base) {
			t.Fatalf("completion %d reported head %#x, want %#x", i, h, buf.Region.Base)
		}
	}
	if got := dst.Memory().RegionCount(); got != regions {
		t.Fatalf("regions grew from %d to %d across reposted epochs", regions, got)
	}
}

// TestRepostRejects covers every buffer Repost must refuse.
func TestRepostRejects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 1
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(22, 64, EpochBytes)
	other, _ := dst.InitWindow(23, 64, EpochBytes)
	first, _ := win.PostBuffer(64)
	queued, _ := win.PostBuffer(64)
	third, _ := win.PostBuffer(64)
	foreign, _ := other.PostBuffer(64)

	check := func(what string, b *Buffer, want error, msg string) {
		t.Helper()
		err := win.Repost(b)
		if !errors.Is(err, want) || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s: Repost = %v, want %v containing %q", what, err, want, msg)
		}
	}
	check("nil", nil, ErrBadArgument, "not posted on mailbox")
	check("other window's buffer", foreign, ErrBadArgument, "not posted on mailbox")
	check("queued", queued, ErrBadArgument, "is queued or its completion has not landed")

	// Between the completion unit firing and its pointer write landing the
	// buffer has left the queue but has not completed.
	eng.Schedule(0, func() {
		w := win.completeHead()
		if w != first {
			t.Fatal("completeHead did not complete the head")
		}
		check("completion pending", first, ErrBadArgument, "is queued or its completion has not landed")
	})
	eng.Run()
	if !first.Completed() {
		t.Fatal("first buffer never completed")
	}
	check("in history", first, ErrBadArgument, "retained for Rewind")

	// One more epoch pushes the first buffer out of the depth-1 history.
	eng.Schedule(0, func() { src.Put(1, 22, 0, make([]byte, 64)) })
	eng.Run()
	if win.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", win.Epoch())
	}
	if err := win.Repost(first); err != nil {
		t.Fatalf("Repost of a buffer that left the history: %v", err)
	}
	check("already reposted", first, ErrBadArgument, "is queued or its completion has not landed")

	win.Close()
	check("closed window", third, ErrClosed, "window closed")
}

// TestRepostKeepsRewindHistoryIntact: under recovery's history depth of
// 2, a mailbox that reposts only the buffer leaving the history (posting
// fresh ones until the history fills, as the motif transport does) holds
// depth + 2 buffers for any number of epochs, and Rewind(k) still returns
// the intact contents of the last two epochs.
func TestRepostKeepsRewindHistoryIntact(t *testing.T) {
	const history, depth, epochs = 2, 1, 8
	cfg := DefaultConfig()
	cfg.HistoryDepth = history
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(24, 64, EpochBytes)
	for i := 0; i < depth; i++ {
		win.PostBuffer(64)
	}
	buffers := map[*Buffer]bool{}
	var retired []*Buffer
	put := func(epoch int) { src.Put(1, 24, 0, bytes.Repeat([]byte{byte(epoch)}, 64)) }
	win.SetCompletionHandler(func(b *Buffer) {
		buffers[b] = true
		retired = append(retired, b)
		if len(retired) <= history {
			if _, err := win.PostBuffer(64); err != nil {
				t.Fatal(err)
			}
		} else {
			old := retired[0]
			retired = retired[1:]
			if err := win.Repost(old); err != nil {
				t.Fatalf("Repost after epoch %d: %v", win.Epoch(), err)
			}
		}
		if n := int(win.Epoch()); n < epochs {
			put(n + 1)
		}
	})
	eng.Schedule(0, func() { put(1) })
	eng.Run()
	if win.Epoch() != epochs {
		t.Fatalf("epoch = %d, want %d", win.Epoch(), epochs)
	}
	if len(buffers) != depth+history {
		t.Fatalf("%d distinct buffers served %d epochs, want %d", len(buffers), epochs, depth+history)
	}
	for k := 1; k <= history; k++ {
		b, err := win.Rewind(k)
		if err != nil {
			t.Fatalf("Rewind(%d): %v", k, err)
		}
		want := bytes.Repeat([]byte{byte(epochs + 1 - k)}, 64)
		if got := dst.Memory().Read(b.Region.Base, 64); !bytes.Equal(got, want) {
			t.Fatalf("Rewind(%d) holds %v..., want epoch %d's bytes", k, got[:4], epochs+1-k)
		}
		if h, l := b.Cell.Get(); h != b.Region.Base || l != 64 {
			t.Fatalf("Rewind(%d) cell = (%#x, %d)", k, h, l)
		}
	}
}
