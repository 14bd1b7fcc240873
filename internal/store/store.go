// Package store is the in-memory substitute for the AWS ElastiCache
// Redis deployment of paper §4.1. The funcX service keeps its registry
// and bookkeeping in Redis-style hashsets, one record per task in the
// task table (TaskTable, over internal/taskrec), and one task queue
// per endpoint. The queues are *reliable*:
// a consumer pops an item into a pending set and must acknowledge it;
// unacknowledged items can be returned to the queue (the mechanism the
// forwarder uses to re-deliver tasks after an endpoint disconnect,
// giving at-least-once semantics).
//
// All operations are safe for concurrent use.
package store

import (
	"container/list"
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed store or queue.
var ErrClosed = errors.New("store: closed")

// ErrTimeout is returned by blocking pops that expire.
var ErrTimeout = errors.New("store: blocking pop timed out")

// ErrNotPending is returned when acknowledging an item that is not in
// the pending set.
var ErrNotPending = errors.New("store: item not pending")

// Hash is one Redis-style hashset: field -> value.
type Hash struct {
	mu     sync.RWMutex
	fields map[string][]byte

	// set by a persistent Store; nil in pure in-memory mode
	name string
	j    *journal
}

// NewHash returns an empty hashset.
func NewHash() *Hash {
	return &Hash{fields: make(map[string][]byte)}
}

// Set stores value under field.
func (h *Hash) Set(field string, value []byte) {
	if h.j != nil {
		h.j.lock()
		defer h.j.unlock()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fields[field] = value
	if h.j != nil {
		h.j.record(encodeHSet(h.name, field, value))
	}
}

// Get returns the value for field and whether it exists.
func (h *Hash) Get(field string) ([]byte, bool) {
	h.mu.RLock()
	v, ok := h.fields[field]
	h.mu.RUnlock()
	return v, ok
}

// Del removes field, reporting whether it existed.
func (h *Hash) Del(field string) bool {
	if h.j != nil {
		h.j.lock()
		defer h.j.unlock()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.fields[field]
	if ok {
		delete(h.fields, field)
		if h.j != nil {
			h.j.record(encodeHDel(h.name, field))
		}
	}
	return ok
}

// Len returns the number of fields.
func (h *Hash) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.fields)
}

// Keys returns the field names in unspecified order.
func (h *Hash) Keys() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	keys := make([]string, 0, len(h.fields))
	for k := range h.fields {
		keys = append(keys, k)
	}
	return keys
}

// Queue is a reliable FIFO queue of byte items. Consumers either Pop
// (destructive, non-reliable) or PopReliable, which moves the item to a
// pending set keyed by a receipt id; Ack removes it permanently and
// RequeuePending returns pending items to the head of the queue in
// original order.
//
// Blocking pops use an explicit waiter list (one channel per blocked
// consumer) rather than sync.Cond so that timed waits cannot deadlock
// or lose wakeups.
type Queue struct {
	mu      sync.Mutex
	items   *list.List // of queued
	waiters *list.List // of chan struct{}
	pending map[uint64]queued
	nextID  uint64
	closed  bool

	// set by a persistent Store; nil in pure in-memory mode
	name string
	j    *journal
}

type queued struct {
	data []byte
	seq  uint64 // original enqueue order, for ordered requeue
}

// NewQueue returns an empty reliable queue.
func NewQueue() *Queue {
	return &Queue{items: list.New(), waiters: list.New(), pending: make(map[uint64]queued)}
}

// signalOne wakes one blocked consumer. Caller must hold q.mu.
func (q *Queue) signalOne() {
	if q.waiters.Len() > 0 {
		ch := q.waiters.Remove(q.waiters.Front()).(chan struct{})
		close(ch)
	}
}

// signalAll wakes every blocked consumer. Caller must hold q.mu.
func (q *Queue) signalAll() {
	for q.waiters.Len() > 0 {
		ch := q.waiters.Remove(q.waiters.Front()).(chan struct{})
		close(ch)
	}
}

// Push appends an item to the tail of the queue.
func (q *Queue) Push(data []byte) error {
	if q.j != nil {
		q.j.lock()
		defer q.j.unlock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.nextID++
	q.items.PushBack(queued{data: data, seq: q.nextID})
	if q.j != nil {
		q.j.record(encodeQItem(opQPush, q.name, data))
	}
	q.signalOne()
	return nil
}

// PushFront prepends an item to the head of the queue (used for ordered
// requeue of failed deliveries).
func (q *Queue) PushFront(data []byte) error {
	if q.j != nil {
		q.j.lock()
		defer q.j.unlock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.nextID++
	q.items.PushFront(queued{data: data, seq: q.nextID})
	if q.j != nil {
		q.j.record(encodeQItem(opQPushFront, q.name, data))
	}
	q.signalOne()
	return nil
}

// Len returns the number of queued (not pending) items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

// PendingLen returns the number of popped-but-unacknowledged items.
func (q *Queue) PendingLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Pending returns a copy of the pending set, receipt -> item data.
// Recovery uses it to reconcile in-flight deliveries after a restart.
func (q *Queue) Pending() map[uint64][]byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[uint64][]byte, len(q.pending))
	for r, it := range q.pending {
		out[r] = it.data
	}
	return out
}

// Items returns the queued (not pending) item data in queue order.
func (q *Queue) Items() [][]byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([][]byte, 0, q.items.Len())
	for e := q.items.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(queued).data)
	}
	return out
}

// TryPop removes and returns the head item without blocking. ok is
// false when the queue is empty.
func (q *Queue) TryPop() (data []byte, ok bool) {
	if q.j != nil {
		q.j.lock()
		defer q.j.unlock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() == 0 {
		return nil, false
	}
	front := q.items.Remove(q.items.Front()).(queued)
	if q.j != nil {
		q.j.record(encodeQReceipt(opQPop, q.name, 0))
	}
	return front.data, true
}

// TryPopReliable is TryPop with reliable-queue semantics: the item is
// parked in the pending set until Ack or Nack. ok is false when the
// queue is empty.
func (q *Queue) TryPopReliable() (data []byte, receipt uint64, ok bool) {
	if q.j != nil {
		q.j.lock()
		defer q.j.unlock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() == 0 {
		return nil, 0, false
	}
	item := q.items.Remove(q.items.Front()).(queued)
	q.nextID++
	receipt = q.nextID
	q.pending[receipt] = item
	if q.j != nil {
		q.j.record(encodeQReceipt(opQPop, q.name, receipt))
	}
	return item.data, receipt, true
}

// BPopReliable blocks until an item is available or the timeout
// elapses (timeout <= 0 waits forever): the BLPOP analogue. The item is
// parked in the pending set until Ack(receipt) or RequeuePending
// returns it to the queue.
func (q *Queue) BPopReliable(timeout time.Duration) (data []byte, receipt uint64, err error) {
	// The timer is armed by the first wait, not before the first look:
	// a pop that finds an item pays for no timer.
	var timer *time.Timer
	var timerC <-chan time.Time
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		// The freeze lock is taken per-iteration, never across the
		// wait below, so a blocked consumer cannot stall a snapshot.
		if q.j != nil {
			q.j.lock()
		}
		q.mu.Lock()
		if q.items.Len() > 0 {
			item := q.items.Remove(q.items.Front()).(queued)
			q.nextID++
			receipt := q.nextID
			q.pending[receipt] = item
			if q.j != nil {
				q.j.record(encodeQReceipt(opQPop, q.name, receipt))
			}
			q.mu.Unlock()
			if q.j != nil {
				q.j.unlock()
			}
			return item.data, receipt, nil
		}
		if q.closed {
			q.mu.Unlock()
			if q.j != nil {
				q.j.unlock()
			}
			return nil, 0, ErrClosed
		}
		ch := make(chan struct{})
		elem := q.waiters.PushBack(ch)
		q.mu.Unlock()
		if q.j != nil {
			q.j.unlock()
		}
		if timer == nil && timeout > 0 {
			timer = time.NewTimer(timeout)
			timerC = timer.C
		}

		select {
		case <-ch:
			// Woken: loop to re-check (another consumer may win
			// the race for the item, in which case we re-wait).
		case <-timerC:
			q.mu.Lock()
			select {
			case <-ch:
				// Signal raced the timeout; honor the signal so
				// the wakeup is not lost.
				q.mu.Unlock()
				continue
			default:
			}
			q.waiters.Remove(elem)
			q.mu.Unlock()
			return nil, 0, ErrTimeout
		}
	}
}

// Ack permanently removes a pending item.
func (q *Queue) Ack(receipt uint64) error {
	if q.j != nil {
		q.j.lock()
		defer q.j.unlock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.pending[receipt]; !ok {
		return ErrNotPending
	}
	delete(q.pending, receipt)
	if q.j != nil {
		q.j.record(encodeQReceipt(opQAck, q.name, receipt))
	}
	return nil
}

// Nack returns one pending item to the head of the queue (redelivery).
func (q *Queue) Nack(receipt uint64) error {
	if q.j != nil {
		q.j.lock()
		defer q.j.unlock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	item, ok := q.pending[receipt]
	if !ok {
		return ErrNotPending
	}
	delete(q.pending, receipt)
	q.items.PushFront(item)
	if q.j != nil {
		q.j.record(encodeQReceipt(opQNack, q.name, receipt))
	}
	q.signalOne()
	return nil
}

// RequeuePending returns all pending items to the queue in their
// original enqueue order, ahead of currently queued items. This is the
// forwarder's recovery action when an endpoint disconnects. It returns
// the number of items requeued.
func (q *Queue) RequeuePending() int {
	if q.j != nil {
		q.j.lock()
		defer q.j.unlock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return 0
	}
	items := make([]queued, 0, len(q.pending))
	receipts := make([]uint64, 0, len(q.pending))
	for r, it := range q.pending {
		items = append(items, it)
		receipts = append(receipts, r)
	}
	clear(q.pending)
	if q.j != nil {
		q.j.record(encodeQRequeue(q.name, receipts))
	}
	return q.requeueLocked(items)
}

// RequeueReceipts returns only the named pending items to the queue,
// in their original enqueue order. Receipts no longer pending are
// skipped. Consumers with concurrent pending pops (e.g. a forwarder
// whose dispatch and failover paths overlap) use this to requeue
// exactly the items they own, leaving other consumers' receipts
// untouched. It returns the number of items requeued.
func (q *Queue) RequeueReceipts(receipts ...uint64) int {
	if q.j != nil {
		q.j.lock()
		defer q.j.unlock()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	items := make([]queued, 0, len(receipts))
	moved := make([]uint64, 0, len(receipts))
	for _, r := range receipts {
		if it, ok := q.pending[r]; ok {
			items = append(items, it)
			moved = append(moved, r)
			delete(q.pending, r)
		}
	}
	if len(items) == 0 {
		return 0
	}
	if q.j != nil {
		q.j.record(encodeQRequeue(q.name, moved))
	}
	return q.requeueLocked(items)
}

// requeueLocked prepends items in original enqueue order and wakes
// all consumers. Caller must hold q.mu.
func (q *Queue) requeueLocked(items []queued) int {
	// Sort by original sequence so redelivery preserves submission
	// order. Insertion sort: pending sets are small (in-flight
	// window).
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].seq < items[j-1].seq; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	// PushFront in reverse keeps ascending order at the head.
	for i := len(items) - 1; i >= 0; i-- {
		q.items.PushFront(items[i])
	}
	q.signalAll()
	return len(items)
}

// Close wakes all blocked consumers with ErrClosed. Items already
// queued remain poppable via TryPop.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.signalAll()
}

// Store bundles named hashes, named queues and the task table, like
// one Redis instance serving the whole funcX service.
type Store struct {
	mu     sync.Mutex
	hashes map[string]*Hash
	queues map[string]*Queue
	tasks  *TaskTable
	closed bool

	janitorStop chan struct{}
	janitorDone chan struct{}

	// durable mode (NewPersistent); nil for in-memory stores
	j        *journal
	popts    PersistOptions
	snapStop chan struct{}
	snapDone chan struct{}
}

// New returns an empty store.
func New() *Store {
	return &Store{hashes: make(map[string]*Hash), queues: make(map[string]*Queue), tasks: newTaskTable()}
}

// Tasks returns the store's task table.
func (s *Store) Tasks() *TaskTable { return s.tasks }

// Hash returns the named hashset, creating it on first use.
func (s *Store) Hash(name string) *Hash {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hashes[name]
	if !ok {
		h = NewHash()
		h.name, h.j = name, s.j
		s.hashes[name] = h
	}
	return h
}

// Queue returns the named queue, creating it on first use.
func (s *Store) Queue(name string) *Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[name]
	if !ok {
		q = NewQueue()
		q.name, q.j = name, s.j
		s.queues[name] = q
	}
	return q
}

// StartJanitor launches a background loop that retires task records
// whose retirement is due every interval, mirroring funcX's periodic
// purge of retrieved results from the Redis store (§4.1). Stop with
// StopJanitor.
func (s *Store) StartJanitor(interval time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.janitorStop != nil || s.closed {
		return
	}
	s.janitorStop = make(chan struct{})
	s.janitorDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				s.PurgeExpired()
			}
		}
	}(s.janitorStop, s.janitorDone)
}

// StopJanitor stops the purge loop, if running.
func (s *Store) StopJanitor() {
	s.mu.Lock()
	stop, done := s.janitorStop, s.janitorDone
	s.janitorStop, s.janitorDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// PurgeExpired retires the task records whose retirement is due,
// returning how many.
func (s *Store) PurgeExpired() int { return s.tasks.purge() }

// Close stops the janitor and snapshotter, closes every queue, and —
// in durable mode — flushes and closes the WAL, so a clean shutdown
// loses nothing.
func (s *Store) Close() {
	s.stopSnapshotter()
	s.StopJanitor()
	s.mu.Lock()
	s.closed = true
	queues := make([]*Queue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.Unlock()
	for _, q := range queues {
		q.Close()
	}
	if s.j != nil {
		_ = s.j.log.Close()
	}
}

// TaskQueueName returns the conventional task queue name for an
// endpoint id.
func TaskQueueName(endpointID string) string { return "tasks:" + endpointID }
