package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestShardGroupProcessPanicMessage: a process body's panic surfaces from
// ShardGroup.Run with the process name, as on a single heap
// (TestProcessPanicPropagates), when the process lives on a shard driven
// by a worker goroutine.
func TestShardGroupProcessPanicMessage(t *testing.T) {
	g := NewShardGroup(7, 4, relayLookahead)
	tagA := g.Shard(0).Tag("a")
	tagB := g.Shard(3).Tag("b")
	// Enough cross-shard traffic to keep 2+ shards active (worker path).
	for i := 0; i < 8; i++ {
		at := Time(10 + i)
		g.Post(0, 3, at+relayLookahead, -(i + 1), tagB.Label(), func() {})
		tagA.AtP(at, 0, func() {})
	}
	g.Shard(3).Tag("proc").Spawn("shard-boom", func(p *Process) {
		p.Sleep(relayLookahead + 12)
		panic(fmt.Errorf("kaboom at %v", p.Now()))
	})
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.HasPrefix(s, `sim: process "shard-boom" panicked: kaboom at `) {
			t.Fatalf("panic = %v, want the process panic message", r)
		}
	}()
	g.Run()
}

// TestProcessSleepWaitOrdering pins how Sleep and Wait interleave with
// plain events at one instant: a future's callbacks resume waiters inline
// in registration order inside the completing event, Sleep wake-ups run
// in the order they were scheduled, and Wait on a completed future does
// not yield.
func TestProcessSleepWaitOrdering(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now()/Nanosecond)) }
	e.Schedule(10*Nanosecond, func() {
		note("ev")
		f.Complete(e, nil)
	})
	e.Spawn("a", func(p *Process) {
		note("a0")
		p.Sleep(10 * Nanosecond)
		note("a1")
		p.Wait(f)
		note("a2")
		p.Sleep(0)
		note("a3")
	})
	e.Spawn("b", func(p *Process) {
		note("b0")
		p.Wait(f)
		note("b1")
		p.Sleep(5 * Nanosecond)
		note("b2")
	})
	e.Spawn("c", func(p *Process) {
		note("c0")
		p.Sleep(10 * Nanosecond)
		note("c1")
	})
	e.Spawn("d", func(p *Process) {
		note("d0")
		p.Wait(f)
		note("d1")
	})
	e.Run()
	want := "a0@0 b0@0 c0@0 d0@0 ev@10 b1@10 d1@10 a1@10 a2@10 c1@10 a3@10 b2@15"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order:\n got %s\nwant %s", got, want)
	}
	if e.procs != 0 {
		t.Fatalf("%d processes still counted live after all finished", e.procs)
	}
}
