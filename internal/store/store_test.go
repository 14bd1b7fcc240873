package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"funcx/internal/taskrec"
	"funcx/internal/types"
)

func TestHashSetGetDel(t *testing.T) {
	h := NewHash()
	if _, ok := h.Get("missing"); ok {
		t.Fatal("Get found a missing field")
	}
	h.Set("a", []byte("1"))
	v, ok := h.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d", h.Len())
	}
	if !h.Del("a") {
		t.Fatal("Del reported missing")
	}
	if h.Del("a") {
		t.Fatal("second Del reported present")
	}
}

func TestHashKeys(t *testing.T) {
	h := NewHash()
	h.Set("a", nil)
	h.Set("b", nil)
	keys := h.Keys()
	if len(keys) != 2 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 10; i++ {
		if err := q.Push([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		v, ok := q.TryPop()
		if !ok || v[0] != byte(i) {
			t.Fatalf("pop %d = %v, %v", i, v, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
}

func TestQueueBlockingPop(t *testing.T) {
	q := NewQueue()
	done := make(chan []byte, 1)
	go func() {
		v, _, err := q.BPopReliable(time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	if err := q.Push([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if string(v) != "x" {
			t.Fatalf("BPopReliable = %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("BPopReliable did not wake")
	}
}

func TestQueueBPopTimeout(t *testing.T) {
	q := NewQueue()
	start := time.Now()
	_, _, err := q.BPopReliable(30 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("timed out too early: %v", elapsed)
	}
}

func TestQueueReliableAck(t *testing.T) {
	q := NewQueue()
	q.Push([]byte("a")) //nolint:errcheck
	data, receipt, err := q.BPopReliable(time.Second)
	if err != nil || string(data) != "a" {
		t.Fatalf("BPopReliable = %q, %v", data, err)
	}
	if q.PendingLen() != 1 {
		t.Fatalf("PendingLen = %d", q.PendingLen())
	}
	if err := q.Ack(receipt); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if q.PendingLen() != 0 {
		t.Fatalf("PendingLen after ack = %d", q.PendingLen())
	}
	if err := q.Ack(receipt); !errors.Is(err, ErrNotPending) {
		t.Fatalf("double Ack = %v, want ErrNotPending", err)
	}
}

func TestQueueNackRedelivers(t *testing.T) {
	q := NewQueue()
	q.Push([]byte("a")) //nolint:errcheck
	q.Push([]byte("b")) //nolint:errcheck
	data, receipt, _ := q.BPopReliable(time.Second)
	if string(data) != "a" {
		t.Fatalf("first pop = %q", data)
	}
	if err := q.Nack(receipt); err != nil {
		t.Fatalf("Nack: %v", err)
	}
	// Redelivered item returns to the head.
	data, _, _ = q.BPopReliable(time.Second)
	if string(data) != "a" {
		t.Fatalf("pop after nack = %q, want a", data)
	}
}

func TestRequeuePendingPreservesOrder(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 5; i++ {
		q.Push([]byte{byte(i)}) //nolint:errcheck
	}
	// Pop 0,1,2 into pending; leave 3,4 queued.
	for i := 0; i < 3; i++ {
		if _, _, err := q.BPopReliable(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.RequeuePending(); n != 3 {
		t.Fatalf("RequeuePending = %d, want 3", n)
	}
	// Order must be 0,1,2,3,4 again: redelivery ahead of queued items,
	// in original submission order.
	for i := 0; i < 5; i++ {
		v, ok := q.TryPop()
		if !ok || v[0] != byte(i) {
			t.Fatalf("pop %d = %v, %v", i, v, ok)
		}
	}
}

func TestQueueCloseWakesConsumers(t *testing.T) {
	q := NewQueue()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := q.BPopReliable(0)
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
		case <-time.After(time.Second):
			t.Fatal("consumer not woken by Close")
		}
	}
	if err := q.Push(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after close = %v", err)
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue()
	const producers, perProducer = 4, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push([]byte(fmt.Sprintf("%d-%d", p, i))) //nolint:errcheck
			}
		}(p)
	}
	got := make(chan []byte, producers*perProducer)
	var cg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, _, err := q.BPopReliable(200 * time.Millisecond)
				if err != nil {
					return
				}
				got <- v
			}
		}()
	}
	wg.Wait()
	cg.Wait()
	close(got)
	seen := map[string]bool{}
	for v := range got {
		if seen[string(v)] {
			t.Fatalf("duplicate delivery: %s", v)
		}
		seen[string(v)] = true
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("delivered %d items, want %d", len(seen), producers*perProducer)
	}
}

// TestQueueFIFOProperty: any push sequence pops back in order.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(items [][]byte) bool {
		q := NewQueue()
		for _, it := range items {
			if err := q.Push(it); err != nil {
				return false
			}
		}
		for _, it := range items {
			v, ok := q.TryPop()
			if !ok || !bytes.Equal(v, it) {
				return false
			}
		}
		_, ok := q.TryPop()
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueReliabilityProperty: pop-reliable + requeue loses nothing
// and duplicates nothing.
func TestQueueReliabilityProperty(t *testing.T) {
	prop := func(n uint8, popped uint8) bool {
		total := int(n%50) + 1
		take := int(popped) % (total + 1)
		q := NewQueue()
		for i := 0; i < total; i++ {
			q.Push([]byte{byte(i)}) //nolint:errcheck
		}
		for i := 0; i < take; i++ {
			if _, _, err := q.BPopReliable(time.Second); err != nil {
				return false
			}
		}
		q.RequeuePending()
		seen := map[byte]bool{}
		for i := 0; i < total; i++ {
			v, ok := q.TryPop()
			if !ok || seen[v[0]] {
				return false
			}
			seen[v[0]] = true
		}
		_, ok := q.TryPop()
		return !ok && len(seen) == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreNamedResources(t *testing.T) {
	s := New()
	defer s.Close()
	h1 := s.Hash("results")
	h2 := s.Hash("results")
	if h1 != h2 {
		t.Fatal("Hash returned different instances for the same name")
	}
	q1 := s.Queue(TaskQueueName("ep1"))
	q2 := s.Queue(TaskQueueName("ep1"))
	if q1 != q2 {
		t.Fatal("Queue returned different instances for the same name")
	}
	if s.Queue(TaskQueueName("ep2")) == q1 {
		t.Fatal("distinct names share a queue")
	}
}

func TestStoreJanitorPurges(t *testing.T) {
	s := New()
	defer s.Close()
	s.Tasks().Apply(taskrec.Event{Kind: taskrec.Place, ID: "t", Owner: "alice", Endpoint: "ep", Frame: []byte("task")}, discard)
	s.Tasks().Apply(taskrec.Event{Kind: taskrec.Result, ID: "t", Status: types.TaskSuccess, Frame: []byte("result")}, discard)
	s.Tasks().Apply(taskrec.Event{Kind: taskrec.Retire, ID: "t", At: time.Now().Add(time.Millisecond)}, discard)
	s.StartJanitor(5 * time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if rec := tableOf(s)["t"]; rec.Result() == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("janitor did not retire the due record")
}

func TestStoreCloseClosesQueues(t *testing.T) {
	s := New()
	q := s.Queue("q")
	s.Close()
	if err := q.Push(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after store close = %v", err)
	}
}

func TestQueueNames(t *testing.T) {
	if TaskQueueName("abc") != "tasks:abc" {
		t.Fatal(TaskQueueName("abc"))
	}
}
