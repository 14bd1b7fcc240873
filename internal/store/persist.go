// Durable mode: every mutation of a persistent store is journaled to a
// write-ahead log inside the same critical section that applies it, so
// journal order equals apply order and replay is deterministic —
// including reliable-queue receipts, which are recorded explicitly so
// a recovered store's pending sets match the crashed one's. A
// background snapshotter checkpoints full store state and truncates
// the log when enough journal has accumulated.
//
// The freeze lock orders journaling against snapshots: mutators hold
// it shared around (mutate + append), the snapshotter holds it
// exclusively around (rotate segment + encode state), so a snapshot is
// exactly the state produced by the records before the rotation point.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"funcx/internal/taskrec"
	"funcx/internal/types"
	"funcx/internal/wal"
)

// PersistOptions tunes the snapshot policy of a persistent store.
type PersistOptions struct {
	// SnapshotBytes triggers a checkpoint once this many journal
	// payload bytes accumulate since the last one. Default 8 MiB.
	SnapshotBytes uint64
	// SnapshotOps triggers a checkpoint once this many journal records
	// accumulate since the last one. Default 100k.
	SnapshotOps uint64
	// SnapshotInterval is how often the snapshotter checks the
	// thresholds. Default 500ms.
	SnapshotInterval time.Duration
}

func (o PersistOptions) withDefaults() PersistOptions {
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 8 << 20
	}
	if o.SnapshotOps == 0 {
		o.SnapshotOps = 100_000
	}
	if o.SnapshotInterval <= 0 {
		o.SnapshotInterval = 500 * time.Millisecond
	}
	return o
}

// journal couples a WAL with the freeze lock and since-last-snapshot
// counters. A nil *journal on a Hash/Queue means pure in-memory mode.
type journal struct {
	freeze sync.RWMutex
	log    *wal.Log
	ops    atomic.Uint64
	bytes  atomic.Uint64
}

func (j *journal) lock()   { j.freeze.RLock() }
func (j *journal) unlock() { j.freeze.RUnlock() }

// record appends one op. Called with freeze held shared and the owning
// structure's mutex held, so append order is apply order. WAL errors
// are sticky inside the log and surfaced via Store.WALErr, which the
// service's readiness probe and funcx_wal_failed gauge report.
func (j *journal) record(op []byte) {
	_ = j.log.Append(op)
	j.ops.Add(1)
	j.bytes.Add(uint64(len(op)))
}

// NewPersistent returns a store whose every mutation is journaled to
// log, after first replaying the log's recovered snapshot and tail
// records into the fresh store. The caller owns opening the log
// (wal.Open) and the store takes over closing it.
func NewPersistent(log *wal.Log, opts PersistOptions) (*Store, error) {
	s := New()
	s.j = &journal{log: log}
	s.tasks.j = s.j
	s.popts = opts.withDefaults()
	if blob := log.RecoveredSnapshot(); len(blob) > 0 {
		if err := s.decodeSnapshot(blob); err != nil {
			return nil, fmt.Errorf("store: decoding snapshot: %w", err)
		}
	}
	for i, rec := range log.RecoveredRecords() {
		if err := s.applyRecord(rec); err != nil {
			return nil, fmt.Errorf("store: replaying record %d: %w", i, err)
		}
	}
	log.DropRecovered()
	s.startSnapshotter()
	return s, nil
}

// Persistent reports whether this store journals to a WAL.
func (s *Store) Persistent() bool { return s.j != nil }

// Recovered reports whether the store was rebuilt from prior on-disk
// state (as opposed to starting from an empty data directory).
func (s *Store) Recovered() bool {
	return s.j != nil && s.j.log.Recovered()
}

// WALStats returns the underlying log's counters; ok is false for an
// in-memory store.
func (s *Store) WALStats() (stats wal.Stats, ok bool) {
	if s.j == nil {
		return wal.Stats{}, false
	}
	return s.j.log.Stats(), true
}

// WALErr returns the log's sticky I/O error, if any.
func (s *Store) WALErr() error {
	if s.j == nil {
		return nil
	}
	return s.j.log.Err()
}

// Sync forces buffered journal records to disk now (tests and clean
// shutdown paths; normal operation group-commits in the background).
func (s *Store) Sync() error {
	if s.j == nil {
		return nil
	}
	return s.j.log.Sync()
}

// Snapshot forces a checkpoint: it seals the current WAL segment,
// encodes full store state as of that boundary, writes it durably, and
// prunes the journal before it.
func (s *Store) Snapshot() error {
	j := s.j
	if j == nil {
		return nil
	}
	j.freeze.Lock()
	seg, err := j.log.Rotate()
	if err != nil {
		j.freeze.Unlock()
		return err
	}
	blob := s.encodeSnapshot()
	j.ops.Store(0)
	j.bytes.Store(0)
	j.freeze.Unlock()
	return j.log.WriteSnapshot(seg, blob)
}

// startSnapshotter launches the background checkpoint loop.
func (s *Store) startSnapshotter() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapStop != nil || s.closed {
		return
	}
	s.snapStop = make(chan struct{})
	s.snapDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(s.popts.SnapshotInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if s.j.ops.Load() >= s.popts.SnapshotOps || s.j.bytes.Load() >= s.popts.SnapshotBytes {
					_ = s.Snapshot()
				}
			}
		}
	}(s.snapStop, s.snapDone)
}

func (s *Store) stopSnapshotter() {
	s.mu.Lock()
	stop, done := s.snapStop, s.snapDone
	s.snapStop, s.snapDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ---------------------------------------------------------------------
// Op codec. Each journal record is one mutation:
//
//	opcode byte, then length-prefixed strings/bytes and uvarints.
//
// A hash set ends in a zero uvarint where builds that had hash TTLs
// journaled the field's deadline; a record that carries one is refused.
// ---------------------------------------------------------------------

const (
	opHSet byte = iota + 1
	opHDel
	opQPush
	opQPushFront
	opQPop // receipt 0 = destructive pop, else parked pending
	opQAck
	opQNack
	opQRequeue
	opTask    // one task-table transition: a taskrec.Event
	opTaskDel // a task record removed outright
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

type opReader struct {
	b   []byte
	off int
	err error
}

func (r *opReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *opReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)-r.off) < n {
		r.err = fmt.Errorf("short bytes at offset %d", r.off)
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

func (r *opReader) string() string { return string(r.bytes()) }

func encodeHSet(name, field string, value []byte) []byte {
	b := make([]byte, 0, 1+len(name)+len(field)+len(value)+24)
	b = append(b, opHSet)
	b = appendString(b, name)
	b = appendString(b, field)
	b = appendBytes(b, value)
	return append(b, 0) // no deadline
}

// errHashDeadline refuses a journaled or snapshotted hash field that
// expires: hashes have had no TTL since the task table took over the
// results, and a field replayed without its deadline would never go.
var errHashDeadline = errors.New("hash field with a deadline: written by a build that had hash TTLs")

func encodeHDel(name, field string) []byte {
	b := make([]byte, 0, 1+len(name)+len(field)+8)
	b = append(b, opHDel)
	b = appendString(b, name)
	return appendString(b, field)
}

func encodeQItem(op byte, name string, data []byte) []byte {
	b := make([]byte, 0, 1+len(name)+len(data)+12)
	b = append(b, op)
	b = appendString(b, name)
	return appendBytes(b, data)
}

func encodeQReceipt(op byte, name string, receipt uint64) []byte {
	b := make([]byte, 0, 1+len(name)+12)
	b = append(b, op)
	b = appendString(b, name)
	return binary.AppendUvarint(b, receipt)
}

func encodeQRequeue(name string, receipts []uint64) []byte {
	b := make([]byte, 0, 1+len(name)+8+10*len(receipts))
	b = append(b, opQRequeue)
	b = appendString(b, name)
	b = binary.AppendUvarint(b, uint64(len(receipts)))
	for _, r := range receipts {
		b = binary.AppendUvarint(b, r)
	}
	return b
}

// applyRecord replays one journaled mutation without re-journaling.
func (s *Store) applyRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("empty record")
	}
	r := &opReader{b: rec, off: 1}
	// Replay arm for every WAL op code: an op that can be encoded must
	// be replayable, or recovery silently drops journaled mutations.
	//funcx:exhaustive funcx/internal/store.op*
	switch rec[0] {
	case opHSet:
		name, field, value := r.string(), r.string(), r.bytes()
		deadline := r.uvarint()
		if r.err != nil {
			return r.err
		}
		if deadline != 0 {
			return errHashDeadline
		}
		s.Hash(name).applySet(field, bytes.Clone(value))
	case opHDel:
		name, field := r.string(), r.string()
		if r.err != nil {
			return r.err
		}
		s.Hash(name).applyDel(field)
	case opQPush, opQPushFront:
		name, data := r.string(), r.bytes()
		if r.err != nil {
			return r.err
		}
		d := make([]byte, len(data))
		copy(d, data)
		s.Queue(name).applyPush(d, rec[0] == opQPushFront)
	case opQPop:
		name, receipt := r.string(), r.uvarint()
		if r.err != nil {
			return r.err
		}
		return s.Queue(name).applyPop(receipt)
	case opQAck:
		name, receipt := r.string(), r.uvarint()
		if r.err != nil {
			return r.err
		}
		s.Queue(name).applyAck(receipt)
	case opQNack:
		name, receipt := r.string(), r.uvarint()
		if r.err != nil {
			return r.err
		}
		s.Queue(name).applyNack(receipt)
	case opQRequeue:
		name := r.string()
		n := r.uvarint()
		receipts := make([]uint64, 0, n)
		for i := uint64(0); i < n; i++ {
			receipts = append(receipts, r.uvarint())
		}
		if r.err != nil {
			return r.err
		}
		s.Queue(name).applyRequeue(receipts)
	case opTask:
		ev, err := taskrec.DecodeEvent(rec[1:])
		if err != nil {
			return err
		}
		if !s.tasks.replay(ev) {
			return fmt.Errorf("task %s: journaled %s does not apply to its record", ev.ID, ev.Kind)
		}
	case opTaskDel:
		id := r.string()
		if r.err != nil {
			return r.err
		}
		delete(s.tasks.stripe(types.TaskID(id)).recs, types.TaskID(id))
	default:
		return fmt.Errorf("unknown opcode %d", rec[0])
	}
	return r.err
}

// ---------------------------------------------------------------------
// Replay-side mutators: identical state transitions to the public
// methods, minus journaling, watches, and waiter signaling (recovery
// has no consumers yet).
// ---------------------------------------------------------------------

func (h *Hash) applySet(field string, value []byte) {
	h.mu.Lock()
	h.fields[field] = value
	h.mu.Unlock()
}

func (h *Hash) applyDel(field string) {
	h.mu.Lock()
	delete(h.fields, field)
	h.mu.Unlock()
}

func (q *Queue) applyPush(data []byte, front bool) {
	q.mu.Lock()
	q.nextID++
	if front {
		q.items.PushFront(queued{data: data, seq: q.nextID})
	} else {
		q.items.PushBack(queued{data: data, seq: q.nextID})
	}
	q.mu.Unlock()
}

func (q *Queue) applyPop(receipt uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() == 0 {
		return fmt.Errorf("pop replay on empty queue")
	}
	item := q.items.Remove(q.items.Front()).(queued)
	if receipt > 0 {
		q.pending[receipt] = item
		if receipt > q.nextID {
			q.nextID = receipt
		}
	}
	return nil
}

func (q *Queue) applyAck(receipt uint64) {
	q.mu.Lock()
	delete(q.pending, receipt)
	q.mu.Unlock()
}

func (q *Queue) applyNack(receipt uint64) {
	q.mu.Lock()
	if item, ok := q.pending[receipt]; ok {
		delete(q.pending, receipt)
		q.items.PushFront(item)
	}
	q.mu.Unlock()
}

func (q *Queue) applyRequeue(receipts []uint64) {
	q.mu.Lock()
	items := make([]queued, 0, len(receipts))
	for _, r := range receipts {
		if it, ok := q.pending[r]; ok {
			items = append(items, it)
			delete(q.pending, r)
		}
	}
	if len(items) > 0 {
		q.requeueLocked(items)
	}
	q.mu.Unlock()
}

// ---------------------------------------------------------------------
// Snapshot codec: full store state (hashes, each field behind the same
// zero deadline as in the journal, queues with items, pending sets, and sequence counters, then the
// task table's records).
// ---------------------------------------------------------------------

// encodeSnapshot serializes current state. Called with the freeze lock
// held exclusively, so no journaled mutation can interleave; it still
// takes each structure's own mutex against non-journaled readers.
func (s *Store) encodeSnapshot() []byte {
	s.mu.Lock()
	hashNames := make([]string, 0, len(s.hashes))
	for n := range s.hashes {
		hashNames = append(hashNames, n)
	}
	queueNames := make([]string, 0, len(s.queues))
	for n := range s.queues {
		queueNames = append(queueNames, n)
	}
	hashes, queues := s.hashes, s.queues
	s.mu.Unlock()

	b := make([]byte, 0, 4096)
	b = binary.AppendUvarint(b, uint64(len(hashNames)))
	for _, name := range hashNames {
		h := hashes[name]
		b = appendString(b, name)
		h.mu.RLock()
		b = binary.AppendUvarint(b, uint64(len(h.fields)))
		for f, v := range h.fields {
			b = appendString(b, f)
			b = appendBytes(b, v)
			b = append(b, 0) // no deadline
		}
		h.mu.RUnlock()
	}

	b = binary.AppendUvarint(b, uint64(len(queueNames)))
	for _, name := range queueNames {
		q := queues[name]
		b = appendString(b, name)
		q.mu.Lock()
		b = binary.AppendUvarint(b, q.nextID)
		b = binary.AppendUvarint(b, uint64(q.items.Len()))
		for e := q.items.Front(); e != nil; e = e.Next() {
			it := e.Value.(queued)
			b = appendBytes(b, it.data)
			b = binary.AppendUvarint(b, it.seq)
		}
		b = binary.AppendUvarint(b, uint64(len(q.pending)))
		for r, it := range q.pending {
			b = binary.AppendUvarint(b, r)
			b = appendBytes(b, it.data)
			b = binary.AppendUvarint(b, it.seq)
		}
		q.mu.Unlock()
	}

	// The task table, without its stripe locks: every table mutation
	// holds the freeze lock shared, so none is in progress, and a
	// publisher may be holding a stripe while it waits for that lock.
	n := 0
	for i := range s.tasks.stripes {
		n += len(s.tasks.stripes[i].recs)
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i := range s.tasks.stripes {
		for id, rec := range s.tasks.stripes[i].recs {
			b = appendString(b, string(id))
			b = taskrec.AppendRecord(b, rec)
		}
	}
	return b
}

// decodeSnapshot loads a snapshot payload into a fresh store.
func (s *Store) decodeSnapshot(blob []byte) error {
	r := &opReader{b: blob}
	nh := r.uvarint()
	for i := uint64(0); i < nh && r.err == nil; i++ {
		h := s.Hash(r.string())
		nf := r.uvarint()
		for j := uint64(0); j < nf && r.err == nil; j++ {
			field := r.string()
			value := r.bytes()
			deadline := r.uvarint()
			if r.err != nil {
				break
			}
			if deadline != 0 {
				return errHashDeadline
			}
			h.applySet(field, bytes.Clone(value))
		}
	}
	nq := r.uvarint()
	for i := uint64(0); i < nq && r.err == nil; i++ {
		q := s.Queue(r.string())
		nextID := r.uvarint()
		ni := r.uvarint()
		for j := uint64(0); j < ni && r.err == nil; j++ {
			data := r.bytes()
			seq := r.uvarint()
			if r.err != nil {
				break
			}
			d := make([]byte, len(data))
			copy(d, data)
			q.items.PushBack(queued{data: d, seq: seq})
		}
		np := r.uvarint()
		for j := uint64(0); j < np && r.err == nil; j++ {
			receipt := r.uvarint()
			data := r.bytes()
			seq := r.uvarint()
			if r.err != nil {
				break
			}
			d := make([]byte, len(data))
			copy(d, data)
			q.pending[receipt] = queued{data: d, seq: seq}
		}
		q.nextID = nextID
	}
	if r.err == nil && r.off == len(r.b) {
		return errors.New("no task table section: the snapshot predates the task table")
	}
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		id := types.TaskID(r.string())
		if r.err != nil {
			break
		}
		rec, rest, err := taskrec.DecodeRecord(r.b[r.off:])
		if err != nil {
			return err
		}
		r.off = len(r.b) - len(rest)
		s.tasks.stripe(id).recs[id] = rec
	}
	return r.err
}
