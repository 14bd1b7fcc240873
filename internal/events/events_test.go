package events

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"funcx/internal/types"
)

func ev(id string, status types.TaskStatus) types.TaskEvent {
	return types.TaskEvent{TaskID: types.TaskID(id), Status: status, Time: time.Now()}
}

func TestPublishAssignsOrderedSeqs(t *testing.T) {
	b := New(Config{})
	for i := 1; i <= 3; i++ {
		if seq := b.Publish("alice", ev(fmt.Sprintf("t%d", i), types.TaskQueued)); seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if b.Seq("alice") != 3 || b.Seq("bob") != 0 {
		t.Fatalf("Seq = %d/%d", b.Seq("alice"), b.Seq("bob"))
	}
}

func TestSubscribeDeliversOnlyNewEventsForUser(t *testing.T) {
	b := New(Config{})
	b.Publish("alice", ev("old", types.TaskQueued))
	sub := b.Subscribe("alice")
	defer sub.Cancel()
	if sub.Start() != 1 {
		t.Fatalf("start = %d", sub.Start())
	}
	b.Publish("bob", ev("other-user", types.TaskQueued))
	b.Publish("alice", ev("new", types.TaskQueued))
	got := <-sub.C
	if got.TaskID != "new" || got.Seq != 2 {
		t.Fatalf("got %+v", got)
	}
	select {
	case e := <-sub.C:
		t.Fatalf("unexpected extra event %+v", e)
	default:
	}
}

func TestResumeReplaysExactlyMissedEvents(t *testing.T) {
	b := New(Config{})
	sub := b.Subscribe("alice")
	b.Publish("alice", ev("t1", types.TaskQueued))
	first := <-sub.C
	sub.Cancel()
	b.Publish("alice", ev("t2", types.TaskQueued))
	b.Publish("alice", ev("t3", types.TaskQueued))

	replay, sub2, err := b.Resume("alice", first.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Cancel()
	if len(replay) != 2 || replay[0].TaskID != "t2" || replay[1].TaskID != "t3" {
		t.Fatalf("replay = %+v", replay)
	}
	// No duplicates: the live channel starts after the replay.
	b.Publish("alice", ev("t4", types.TaskQueued))
	if got := <-sub2.C; got.TaskID != "t4" {
		t.Fatalf("live after resume = %+v", got)
	}
}

func TestResumeGapWhenRingEvicted(t *testing.T) {
	b := New(Config{Ring: 2})
	for i := 1; i <= 5; i++ {
		b.Publish("alice", ev(fmt.Sprintf("t%d", i), types.TaskQueued))
	}
	// Ring holds seqs 4,5; resuming after 1 needs 2..5.
	if _, _, err := b.Resume("alice", 1); !errors.Is(err, ErrGap) {
		t.Fatalf("err = %v, want ErrGap", err)
	}
	// Resuming after 3 is exactly covered.
	replay, sub, err := b.Resume("alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	if len(replay) != 2 || replay[0].Seq != 4 || replay[1].Seq != 5 {
		t.Fatalf("replay = %+v", replay)
	}
	// A seq from the future (another incarnation) is a gap too.
	if _, _, err := b.Resume("alice", 99); !errors.Is(err, ErrGap) {
		t.Fatalf("future seq err = %v, want ErrGap", err)
	}
}

func TestLaggedSubscriberClosedNotBlocking(t *testing.T) {
	b := New(Config{SubBuffer: 2})
	sub := b.Subscribe("alice")
	for i := 0; i < 5; i++ {
		b.Publish("alice", ev(fmt.Sprintf("t%d", i), types.TaskQueued))
	}
	// Buffer of 2 absorbed two events; the third publish closed it.
	n := 0
	for range sub.C {
		n++
	}
	if n != 2 {
		t.Fatalf("delivered %d events before lag close, want 2", n)
	}
	if !sub.Lagged() {
		t.Fatal("subscription not marked lagged")
	}
	// The lagged subscriber recovers losslessly from the ring.
	replay, sub2, err := b.Resume("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	sub2.Cancel()
	if len(replay) != 3 {
		t.Fatalf("recovered %d events, want 3", len(replay))
	}
}

func TestNotifyDoneFiresOnTerminalOnly(t *testing.T) {
	b := New(Config{})
	ch := make(chan types.TaskID, 2)
	cancel := b.NotifyDone([]types.TaskID{"t1", "t2"}, ch)
	defer cancel()

	b.Publish("alice", ev("t1", types.TaskQueued))
	b.Publish("alice", ev("t1", types.TaskDispatched))
	select {
	case id := <-ch:
		t.Fatalf("non-terminal event pinged %s", id)
	default:
	}
	b.Publish("alice", ev("t1", types.TaskSuccess))
	if id := <-ch; id != "t1" {
		t.Fatalf("ping = %s", id)
	}
	b.Publish("alice", ev("t2", types.TaskFailed))
	if id := <-ch; id != "t2" {
		t.Fatalf("ping = %s", id)
	}
}

func TestNotifyDoneCancelReleases(t *testing.T) {
	b := New(Config{})
	ch := make(chan types.TaskID, 1)
	cancel := b.NotifyDone([]types.TaskID{"t1"}, ch)
	cancel()
	b.Publish("alice", ev("t1", types.TaskSuccess))
	select {
	case id := <-ch:
		t.Fatalf("canceled registration pinged %s", id)
	default:
	}
	b.mu.Lock()
	n := len(b.done)
	b.mu.Unlock()
	if n != 0 {
		t.Fatalf("done registrations leaked: %d", n)
	}
}

func TestEvictIdleDropsUnattachedStreams(t *testing.T) {
	b := New(Config{Ring: 8, IdleTTL: 10 * time.Millisecond})
	b.Publish("u1", types.TaskEvent{TaskID: "t1", Status: types.TaskQueued})
	sub := b.Subscribe("u2")
	defer sub.Cancel()
	b.Publish("u2", types.TaskEvent{TaskID: "t2", Status: types.TaskQueued})
	if got := b.Users(); got != 2 {
		t.Fatalf("users = %d, want 2", got)
	}

	time.Sleep(20 * time.Millisecond)
	if n := b.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d streams, want 1 (u1 only; u2 has a live subscriber)", n)
	}
	if got := b.Users(); got != 1 {
		t.Fatalf("users after eviction = %d, want 1", got)
	}

	// A resume against the evicted stream is a clean gap (HTTP 410)
	// for anything actually missed — the ring is gone but the seq
	// numbering survives, so the position cannot silently shift.
	if _, _, err := b.Resume("u1", 0); !errors.Is(err, ErrGap) {
		t.Fatalf("resume past evicted events = %v, want ErrGap", err)
	}
	// Resuming from the exact preserved seq saw everything: clean.
	if replay, sub2, err := b.Resume("u1", 1); err != nil || len(replay) != 0 {
		t.Fatalf("resume at preserved seq = (%v, %v), want empty success", replay, err)
	} else {
		sub2.Cancel()
	}
	// New events continue the old numbering, never reusing seq 1.
	if seq := b.Publish("u1", types.TaskEvent{TaskID: "t3", Status: types.TaskQueued}); seq != 2 {
		t.Fatalf("post-eviction seq = %d, want 2 (numbering preserved)", seq)
	}
	// The subscribed user's stream survived intact.
	if _, _, err := b.Resume("u2", 0); err != nil {
		t.Fatalf("resume of live stream: %v", err)
	}
}

func TestEvictIdleDisabledAndFreshStreamsKept(t *testing.T) {
	b := New(Config{Ring: 8}) // IdleTTL zero: eviction disabled
	b.Publish("u1", types.TaskEvent{TaskID: "t1", Status: types.TaskQueued})
	if n := b.EvictIdle(); n != 0 {
		t.Fatalf("eviction disabled but evicted %d", n)
	}

	b2 := New(Config{Ring: 8, IdleTTL: time.Hour})
	b2.Publish("u1", types.TaskEvent{TaskID: "t1", Status: types.TaskQueued})
	if n := b2.EvictIdle(); n != 0 {
		t.Fatalf("fresh stream evicted (%d) before its TTL", n)
	}
}

// lifecycle publishes one task's four events and returns the seq of
// the terminal one.
func lifecycle(b *Bus, user types.UserID, id string, terminal types.TaskStatus) uint64 {
	for _, s := range []types.TaskStatus{types.TaskQueued, types.TaskDispatched, types.TaskRunning} {
		b.Publish(user, ev(id, s))
	}
	e := ev(id, terminal)
	e.Result = []byte("result of " + id)
	return b.Publish(user, e)
}

func TestTerminalOnlySubscriptionSeesOnlyCompletions(t *testing.T) {
	b := New(Config{})
	all := b.Subscribe("alice")
	defer all.Cancel()
	sub := b.Subscribe("alice", TerminalOnly)
	defer sub.Cancel()
	b.Publish("alice", types.TaskEvent{TaskID: "d1", Status: types.DAGRunning, DAGID: "d1"})
	b.Publish("alice", ev("t0", types.TaskPending))
	want := []uint64{
		lifecycle(b, "alice", "t1", types.TaskSuccess),
		lifecycle(b, "alice", "t2", types.TaskFailed),
		lifecycle(b, "alice", "t3", types.TaskLost),
	}
	for i, seq := range want {
		got := <-sub.C
		if !got.Terminal() || got.Seq != seq || len(got.Result) == 0 {
			t.Fatalf("event %d = %+v, want the terminal event at seq %d with its result", i, got, seq)
		}
	}
	select {
	case e := <-sub.C:
		t.Fatalf("unexpected extra event %+v", e)
	default:
	}
	// The unfiltered subscription next to it still gets all fourteen.
	if n := len(all.C); n != 14 {
		t.Fatalf("unfiltered subscription holds %d events, want 14", n)
	}
}

// Events a subscriber did not ask for take no slot of its buffer.
func TestTerminalOnlySubscriberDoesNotLagOnLifecycleEvents(t *testing.T) {
	b := New(Config{SubBuffer: 4})
	sub := b.Subscribe("alice", TerminalOnly)
	defer sub.Cancel()
	for i := range 5 { // SubBuffer+1
		b.Publish("alice", ev(fmt.Sprintf("t%d", i), types.TaskQueued))
	}
	seq := b.Publish("alice", ev("t0", types.TaskSuccess))
	select {
	case got, ok := <-sub.C:
		if !ok || got.Seq != seq {
			t.Fatalf("got %+v (open %v), want seq %d", got, ok, seq)
		}
	default:
		t.Fatal("terminal event not delivered")
	}
	if sub.Lagged() {
		t.Fatal("filtered subscriber lagged on events it never receives")
	}
}

func TestTerminalOnlyResumeFiltersReplayAndStillGaps(t *testing.T) {
	b := New(Config{Ring: 16})
	first := lifecycle(b, "alice", "t1", types.TaskSuccess)
	second := lifecycle(b, "alice", "t2", types.TaskSuccess)
	third := lifecycle(b, "alice", "t3", types.TaskFailed)
	replay, sub, err := b.Resume("alice", first, TerminalOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if len(replay) != 2 || replay[0].Seq != second || replay[1].Seq != third {
		t.Fatalf("replay = %+v, want seqs %d and %d", replay, second, third)
	}
	// Live delivery carries on after the replay, filtered alike.
	fourth := lifecycle(b, "alice", "t4", types.TaskSuccess)
	if got := <-sub.C; got.Seq != fourth {
		t.Fatalf("live after resume = %+v, want seq %d", got, fourth)
	}
	// Past the ring the answer is ErrGap, whatever the stretch held.
	for i := range 5 {
		lifecycle(b, "alice", fmt.Sprintf("u%d", i), types.TaskSuccess)
	}
	if _, _, err := b.Resume("alice", first, TerminalOnly); !errors.Is(err, ErrGap) {
		t.Fatalf("err = %v, want ErrGap", err)
	}
}
