package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"funcx/internal/taskrec"
	"funcx/internal/types"
)

// tableOf copies a table out for comparison.
func tableOf(s *Store) map[types.TaskID]taskrec.Record {
	out := make(map[types.TaskID]taskrec.Record)
	s.Tasks().Range(func(id types.TaskID, rec taskrec.Record) { out[id] = rec })
	return out
}

func discard(types.UserID, types.TaskEvent) {}

// The task op's replay arm, the delete op's, and the snapshot section:
// a table written through all three reads back identical, retired and
// scheduled records included.
func TestTaskTableReplayAndSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)
	now := time.Unix(1_700_000_000, 0)
	apply := func(ev taskrec.Event) {
		t.Helper()
		ev.At = now
		if _, ok := s.Tasks().Apply(ev, discard); !ok {
			t.Fatalf("%s %s did not apply", ev.Kind, ev.ID)
		}
	}
	place := func(id types.TaskID) {
		apply(taskrec.Event{Kind: taskrec.Place, ID: id, Owner: "alice", Endpoint: "ep", Attempt: 1, Memoize: true, Frame: []byte("task " + id)})
	}
	land := func(id types.TaskID) {
		apply(taskrec.Event{Kind: taskrec.Result, ID: id, Status: types.TaskSuccess, Frame: []byte("result " + id)})
	}
	// Before the snapshot: one task of each shape.
	place("snap-queued")
	place("snap-landed")
	land("snap-landed")
	place("snap-dropped")
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// After it, in the journal tail: more transitions of the same
	// records, new ones, a delete.
	apply(taskrec.Event{Kind: taskrec.Running, ID: "snap-queued", Endpoint: "ep"})
	s.Tasks().Delete("snap-dropped")
	place("tail-retired")
	land("tail-retired")
	if _, ok := s.Tasks().Apply(taskrec.Event{Kind: taskrec.Retire, ID: "tail-retired"}, discard); !ok {
		t.Fatal("retire did not apply")
	}
	if _, ok := s.Tasks().Apply(taskrec.Event{Kind: taskrec.Retire, ID: "snap-landed", At: now.Add(time.Hour)}, discard); !ok {
		t.Fatal("scheduled retire did not apply")
	}
	apply(taskrec.Event{Kind: taskrec.Hold, ID: "tail-held", Owner: "bob", DAGID: "g"})
	want := tableOf(s)
	if len(want) != 4 || want["snap-queued"].Status() != types.TaskRunning || want["tail-retired"].Owner() != "" {
		t.Fatalf("live table = %+v", want)
	}
	s.Close()

	s2 := openPersistent(t, dir)
	defer s2.Close()
	if got := tableOf(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered table = %+v\nwant %+v", got, want)
	}
}

// Due retirements are swept by the store's janitor pass, and read as
// retired even before it runs.
func TestTaskTablePurgeRetiresDueRecords(t *testing.T) {
	s := New()
	now := time.Unix(1_700_000_000, 0)
	s.Tasks().now = func() time.Time { return now }
	s.Tasks().Apply(taskrec.Event{Kind: taskrec.Place, ID: "t", Owner: "alice", Endpoint: "ep", Frame: []byte("task")}, discard)
	s.Tasks().Apply(taskrec.Event{Kind: taskrec.Result, ID: "t", Status: types.TaskFailed, Frame: []byte("result")}, discard)
	s.Tasks().Apply(taskrec.Event{Kind: taskrec.Retire, ID: "t", At: now.Add(time.Second)}, discard)
	if rec, _ := s.Tasks().Get("t"); rec.Result() == nil || s.PurgeExpired() != 0 {
		t.Fatal("retired before its deadline")
	}
	now = now.Add(2 * time.Second)
	if rec, ok := s.Tasks().Get("t"); !ok || rec.Result() != nil || rec.Owner() != "" || rec.Status() != types.TaskFailed {
		t.Fatalf("past the deadline, unswept, the record reads %+v", rec)
	}
	if n := s.PurgeExpired(); n != 1 {
		t.Fatalf("PurgeExpired = %d, want 1", n)
	}
	if rec := tableOf(s)["t"]; !reflect.DeepEqual(rec, rec.Retired()) || s.PurgeExpired() != 0 {
		t.Fatalf("after the sweep the stored record is %+v", rec)
	}
}

// A snapshot written before the task table existed has no section for
// it; loading one must fail saying so, not read as an empty table.
func TestSnapshotWithoutTaskTableRefused(t *testing.T) {
	s := New()
	s.Hash("owners").Set("t1", []byte("alice"))
	blob := s.encodeSnapshot()
	old := blob[:len(blob)-1] // an empty table's section is its one count byte
	if err := New().decodeSnapshot(old); err == nil || !strings.Contains(err.Error(), "task table") {
		t.Fatalf("decoding a pre-table snapshot: %v", err)
	}
	if err := New().decodeSnapshot(blob); err != nil {
		t.Fatal(err)
	}
}

// Random schedules of every lifecycle event over a handful of tasks,
// from several goroutines, with snapshots falling where they may. Per
// task, whatever the interleaving: the published events come in
// lifecycle order with at most one terminal among them, and replaying
// the journal the run left behind rebuilds the very same table.
func TestTaskTableRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { randomSchedule(t, seed) })
	}
}

func randomSchedule(t *testing.T, seed int64) {
	const (
		tasks   = 24
		workers = 4
		steps   = 600
	)
	dir := t.TempDir()
	s := openPersistent(t, dir)
	// published is appended to under the record's stripe lock, which is
	// what orders one task's events; tasks sharing a stripe share it too.
	published := make([][]types.TaskEvent, tasks)
	publish := func(owner types.UserID, ev types.TaskEvent) {
		var i int
		fmt.Sscanf(string(ev.TaskID), "task-%d", &i)
		published[i] = append(published[i], ev)
	}
	base := time.Unix(1_700_000_000, 0)
	endpoints := []types.EndpointID{"ep-a", "ep-b"}
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(rng *rand.Rand) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < steps; i++ {
				ev := taskrec.Event{
					Kind: taskrec.Kind(1 + rng.Intn(int(taskrec.Retire))), Owner: "alice",
					ID:       types.TaskID(fmt.Sprintf("task-%d", rng.Intn(tasks))),
					Endpoint: endpoints[rng.Intn(2)], Attempt: 1 + rng.Intn(3), Memoize: rng.Intn(2) == 0,
					TS: time.Duration(rng.Intn(1000)), At: base.Add(time.Duration(i) * time.Millisecond),
					Status: []types.TaskStatus{types.TaskSuccess, types.TaskFailed}[rng.Intn(2)],
					Frame:  []byte(fmt.Sprintf("frame-%d", rng.Int())),
				}
				if ev.Kind == taskrec.Retire && rng.Intn(2) == 0 {
					ev.At = time.Time{}
				}
				s.Tasks().Apply(ev, publish)
			}
		}(rand.New(rand.NewSource(seed*100 + int64(w))))
	}
	// Snapshots meanwhile, back to back: each takes the freeze lock
	// against every stripe's writers, and replay starts from the last.
	snapshots := make(chan error)
	go func() {
		var err error
		for w := 0; w < workers; {
			select {
			case <-done:
				w++
			default:
				if e := s.Snapshot(); e != nil {
					err = e
				}
			}
		}
		snapshots <- err
	}()
	if err := <-snapshots; err != nil {
		t.Fatal(err)
	}

	// stage is how far a task has come since it was last queued:
	// 0 held, 1 queued, 2 dispatched, 3 running, 4 retired.
	for i, evs := range published {
		stage := -1
		for j, ev := range evs {
			ok := false
			next := stage
			switch ev.Status {
			case types.TaskPending:
				ok, next = stage == -1, 0
			case types.TaskQueued:
				ok, next = stage < 4, 1
			case types.TaskDispatched:
				ok, next = stage == 1 || stage == 2, 2
			case types.TaskRunning:
				ok, next = stage == 2 || stage == 3, 3
			case types.TaskSuccess, types.TaskFailed, types.TaskLost:
				ok, next = stage < 4, 4 // whatever came before, and only once
			}
			if !ok {
				t.Fatalf("task-%d: event %d (%q) at stage %d breaks the lifecycle order: %v", i, j, ev.Status, stage, statuses(evs))
			}
			stage = next
		}
	}

	want := tableOf(s)
	s.Close()
	s2 := openPersistent(t, dir)
	defer s2.Close()
	if got := tableOf(s2); !reflect.DeepEqual(got, want) {
		for id, rec := range want {
			if !reflect.DeepEqual(got[id], rec) {
				t.Errorf("%s: replayed %+v, live %+v", id, got[id], rec)
			}
		}
		t.Fatalf("replayed table has %d records, live table %d", len(got), len(want))
	}
}

func statuses(evs []types.TaskEvent) []types.TaskStatus {
	out := make([]types.TaskStatus, len(evs))
	for i, ev := range evs {
		out[i] = ev.Status
	}
	return out
}
