package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"funcx/internal/wal"
)

func openPersistent(t *testing.T, dir string) *Store {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := NewPersistent(log, PersistOptions{})
	if err != nil {
		t.Fatalf("NewPersistent: %v", err)
	}
	return s
}

// A hash field journaled with a deadline was written by a build that
// had hash TTLs; replayed without one it would never go, so it is
// refused.
func TestHashDeadlineRefused(t *testing.T) {
	rec := encodeHSet("results", "t1", []byte("v"))
	if err := New().applyRecord(rec); err != nil {
		t.Fatalf("replaying a hash set: %v", err)
	}
	rec[len(rec)-1] = 1
	if err := New().applyRecord(rec); !errors.Is(err, errHashDeadline) {
		t.Fatalf("replaying a hash set with a deadline = %v, want errHashDeadline", err)
	}
}

func TestPersistentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)

	s.Hash("tasks").Set("t1", []byte("alpha"))
	s.Hash("tasks").Set("t2", []byte("beta"))
	s.Hash("tasks").Del("t1")
	s.Hash("results").Set("t3", []byte("kept"))

	q := s.Queue("tasks:ep1")
	for i := 0; i < 5; i++ {
		if err := q.Push([]byte(fmt.Sprintf("task-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Pop two reliably (stay pending), ack one, pop one destructively.
	_, r1, _ := q.TryPopReliable()
	_, r2, _ := q.TryPopReliable()
	if err := q.Ack(r1); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.TryPop(); !ok {
		t.Fatal("TryPop failed")
	}
	s.Close()

	s2 := openPersistent(t, dir)
	defer s2.Close()
	if !s2.Recovered() {
		t.Fatal("expected recovered store")
	}

	if _, ok := s2.Hash("tasks").Get("t1"); ok {
		t.Fatal("deleted field t1 survived recovery")
	}
	if v, ok := s2.Hash("tasks").Get("t2"); !ok || string(v) != "beta" {
		t.Fatalf("t2 = %q, %v", v, ok)
	}
	if v, ok := s2.Hash("results").Get("t3"); !ok || string(v) != "kept" {
		t.Fatalf("t3 = %q, %v", v, ok)
	}

	q2 := s2.Queue("tasks:ep1")
	if q2.Len() != 2 {
		t.Fatalf("queued = %d, want 2", q2.Len())
	}
	if q2.PendingLen() != 1 {
		t.Fatalf("pending = %d, want 1", q2.PendingLen())
	}
	// The surviving pending receipt must still be ackable/requeueable.
	if n := q2.RequeueReceipts(r2); n != 1 {
		t.Fatalf("RequeueReceipts(%d) = %d, want 1", r2, n)
	}
	if q2.Len() != 3 {
		t.Fatalf("queued after requeue = %d, want 3", q2.Len())
	}
	// Requeued in-flight item comes back at the head (original order).
	data, ok := q2.TryPop()
	if !ok || string(data) != "task-1" {
		t.Fatalf("head after requeue = %q, %v (want task-1)", data, ok)
	}
}

// TestInFlightLeasesRecovered is the lease-shaped recovery contract:
// items that were popped reliably but never acked (dispatched tasks
// whose worker died with the shard) must survive as pending and be
// reclaimable, not lost.
func TestInFlightLeasesRecovered(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)
	q := s.Queue("tasks:ep")
	for i := 0; i < 4; i++ {
		if err := q.Push([]byte(fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	q.TryPopReliable()
	q.TryPopReliable()
	s.Close()

	s2 := openPersistent(t, dir)
	defer s2.Close()
	q2 := s2.Queue("tasks:ep")
	if q2.PendingLen() != 2 || q2.Len() != 2 {
		t.Fatalf("pending=%d queued=%d, want 2/2", q2.PendingLen(), q2.Len())
	}
	if n := q2.RequeuePending(); n != 2 {
		t.Fatalf("RequeuePending = %d, want 2", n)
	}
	// All four, in original submission order.
	for i := 0; i < 4; i++ {
		data, ok := q2.TryPop()
		if !ok || string(data) != fmt.Sprintf("t%d", i) {
			t.Fatalf("pop %d = %q, %v", i, data, ok)
		}
	}
}

// storeState captures the externally observable state of the named
// hashes and queues for equivalence checks.
type storeState struct {
	Hashes  map[string]map[string]string
	Queues  map[string][]string
	Pending map[string]map[uint64]string
}

func captureState(s *Store, hashNames, queueNames []string) storeState {
	st := storeState{
		Hashes:  map[string]map[string]string{},
		Queues:  map[string][]string{},
		Pending: map[string]map[uint64]string{},
	}
	for _, hn := range hashNames {
		h := s.Hash(hn)
		fields := map[string]string{}
		for _, k := range h.Keys() {
			if v, ok := h.Get(k); ok {
				fields[k] = string(v)
			}
		}
		st.Hashes[hn] = fields
	}
	for _, qn := range queueNames {
		q := s.Queue(qn)
		items := []string{}
		for _, it := range q.Items() {
			items = append(items, string(it))
		}
		st.Queues[qn] = items
		pend := map[uint64]string{}
		for r, it := range q.Pending() {
			pend[r] = string(it)
		}
		st.Pending[qn] = pend
	}
	return st
}

// TestRandomizedReplayEquivalence drives a live persistent store
// through a random op sequence (with snapshots forced mid-stream),
// then reopens from disk and checks the recovered state matches the
// live store observation-for-observation — the snapshot+tail replay
// equivalence contract.
func TestRandomizedReplayEquivalence(t *testing.T) {
	hashNames := []string{"h0", "h1", "h2"}
	queueNames := []string{"q0", "q1"}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s := openPersistent(t, dir)
			var receipts []uint64
			receiptQueue := map[uint64]string{}
			for i := 0; i < 2000; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2:
					h := hashNames[rng.Intn(len(hashNames))]
					field := fmt.Sprintf("f%d", rng.Intn(50))
					s.Hash(h).Set(field, []byte(fmt.Sprintf("v%d", i)))
				case 3:
					h := hashNames[rng.Intn(len(hashNames))]
					s.Hash(h).Del(fmt.Sprintf("f%d", rng.Intn(50)))
				case 4, 5:
					qn := queueNames[rng.Intn(len(queueNames))]
					if rng.Intn(4) == 0 {
						s.Queue(qn).PushFront([]byte(fmt.Sprintf("i%d", i)))
					} else {
						s.Queue(qn).Push([]byte(fmt.Sprintf("i%d", i)))
					}
				case 6:
					qn := queueNames[rng.Intn(len(queueNames))]
					if rng.Intn(2) == 0 {
						s.Queue(qn).TryPop()
					} else if _, r, ok := s.Queue(qn).TryPopReliable(); ok {
						receipts = append(receipts, r)
						receiptQueue[r] = qn
					}
				case 7:
					if len(receipts) > 0 {
						idx := rng.Intn(len(receipts))
						r := receipts[idx]
						q := s.Queue(receiptQueue[r])
						if rng.Intn(2) == 0 {
							q.Ack(r)
						} else {
							q.Nack(r)
						}
						receipts = append(receipts[:idx], receipts[idx+1:]...)
					}
				case 8:
					qn := queueNames[rng.Intn(len(queueNames))]
					s.Queue(qn).RequeuePending()
					filtered := receipts[:0]
					for _, r := range receipts {
						if receiptQueue[r] != qn {
							filtered = append(filtered, r)
						}
					}
					receipts = filtered
				case 9:
					if rng.Intn(20) == 0 { // occasional forced checkpoint
						if err := s.Snapshot(); err != nil {
							t.Fatalf("Snapshot: %v", err)
						}
					}
				}
			}
			want := captureState(s, hashNames, queueNames)
			s.Close()

			s2 := openPersistent(t, dir)
			defer s2.Close()
			got := captureState(s2, hashNames, queueNames)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("recovered state diverged\n want: %+v\n  got: %+v", want, got)
			}
		})
	}
}

// TestTornJournalTailRecovery truncates the active WAL segment
// mid-record and verifies the store recovers the valid prefix.
func TestTornJournalTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)
	for i := 0; i < 10; i++ {
		s.Hash("h").Set(fmt.Sprintf("f%d", i), bytes.Repeat([]byte{'x'}, 100))
	}
	s.Close()

	// Find the newest segment and tear its tail.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openPersistent(t, dir)
	defer s2.Close()
	h := s2.Hash("h")
	if n := h.Len(); n != 9 {
		t.Fatalf("recovered %d fields after torn tail, want 9", n)
	}
	stats, ok := s2.WALStats()
	if !ok || stats.TornRecords != 1 {
		t.Fatalf("WALStats = %+v, %v", stats, ok)
	}
}

// TestSnapshotterThresholds exercises the background checkpoint loop.
func TestSnapshotterThresholds(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewPersistent(log, PersistOptions{
		SnapshotOps:      50,
		SnapshotInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		s.Hash("h").Set(fmt.Sprintf("f%d", i%10), []byte("v"))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, _ := s.WALStats(); st.Snapshots > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshotter never checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
