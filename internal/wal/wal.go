// Package wal is the append-only write-ahead log under the store's
// durable mode. The production funcX service leans on Redis
// persistence (RDB snapshots + AOF) so that web-tier restarts are
// invisible to users; this package reproduces that discipline for the
// in-process store: every mutation is journaled as a CRC-checked
// record, a snapshot periodically checkpoints full state and lets the
// log be truncated, and recovery replays "newest valid snapshot + log
// tail", tolerating a torn final record from a mid-write crash.
//
// Layout of a data directory:
//
//	wal-0000000000000001.log   sealed segment (records 1..k)
//	wal-0000000000000002.log   active segment (records k+1..)
//	snapshot-0000000000000002.snap
//
// snapshot-<n> captures the state produced by every record in
// segments < n; recovery loads it and replays segments >= n in order.
// Snapshots are written to a temp file, fsynced, and renamed, so a
// crash mid-snapshot leaves the previous snapshot intact.
//
// Durability is group-committed: Append buffers the record and a
// background flusher issues one fsync per SyncInterval window, so the
// submit hot path never waits on the disk. A hard crash can lose at
// most one flush window of acknowledged mutations; Close (and Sync)
// flush and fsync synchronously.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".snap"

	// recordHeaderSize is the per-record framing: 4-byte little-endian
	// payload length followed by 4-byte IEEE CRC32 of the payload.
	recordHeaderSize = 8

	// maxRecordSize bounds a single record so a corrupt length field
	// cannot trigger a giant allocation during recovery.
	maxRecordSize = 64 << 20

	// snapshotMagic heads every snapshot file, ahead of a 4-byte CRC
	// and the payload.
	snapshotMagic = "FXWSNAP1"

	// DefaultSyncInterval is the group-commit flush window.
	DefaultSyncInterval = 2 * time.Millisecond
)

// Options configures a log directory.
type Options struct {
	// Dir is the data directory; it is created if absent.
	Dir string
	// SyncInterval is the group-commit flush window: buffered records
	// are flushed and fsynced once per interval, not once per append.
	// Defaults to DefaultSyncInterval.
	SyncInterval time.Duration
}

// Stats are the log's monotonic counters, exported up through the
// service's /v1/stats and /v1/metrics surfaces.
type Stats struct {
	Appends       uint64 // records appended since open
	AppendedBytes uint64 // payload bytes appended since open
	Fsyncs        uint64 // fsync calls issued (group commits)
	FsyncNanos    uint64 // cumulative wall time spent inside fsync
	Rotations     uint64 // segment rotations
	Snapshots     uint64 // snapshots written since open

	Recovered          bool   // prior state was found at open
	RecoveredRecords   uint64 // tail records replayable after the snapshot
	RecoveredSnapshot  uint64 // bytes in the recovered snapshot payload
	TornRecords        uint64 // trailing records dropped by CRC/length checks
	RecoveredSegments  uint64 // segment files scanned at open
	LastSnapshotBytes  uint64 // payload size of the newest snapshot written
	ActiveSegmentBytes uint64 // bytes written to the active segment
}

// Log is an open write-ahead log directory. All methods are safe for
// concurrent use.
type Log struct {
	dir      string
	interval time.Duration

	// syncMu totally orders the slow paths that touch the file
	// descriptor outside mu — group commits, Rotate, Close — so an
	// off-mutex fsync never races a segment being sealed. Lock order:
	// syncMu before mu, never the reverse.
	syncMu sync.Mutex

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seg     uint64 // active segment index
	segSize uint64
	alloc   uint64 // preallocated size of the active segment (0 = unsupported)
	dirty   bool
	closed  bool
	err     error // sticky I/O error

	stop chan struct{}
	done chan struct{}

	// recovered state, immutable after Open
	snapshot []byte
	records  [][]byte
	wasPrior bool

	appends       atomic.Uint64
	appendedBytes atomic.Uint64
	fsyncs        atomic.Uint64
	fsyncNanos    atomic.Uint64
	rotations     atomic.Uint64
	snapshots     atomic.Uint64
	recRecords    uint64
	recSnapshot   uint64
	tornRecords   uint64
	recSegments   uint64
	lastSnapBytes atomic.Uint64
}

// Open opens (creating if needed) the log directory, scans prior
// snapshots and segments into recovered state, and starts the
// group-commit flusher. Appends go to a fresh segment, so sealed
// segments are never mutated.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating dir: %w", err)
	}
	l := &Log{dir: opts.Dir, interval: opts.SyncInterval}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if err := l.openSegment(l.seg + 1); err != nil {
		return nil, err
	}
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go l.flushLoop()
	return l, nil
}

// recover scans the directory: it loads the newest CRC-valid snapshot
// and every record in segments at or after the snapshot's index,
// stopping at the first torn or corrupt record. It leaves l.seg at the
// highest segment index seen (0 when the directory is empty).
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: reading dir: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if idx, ok := parseIndexed(name, segmentPrefix, segmentSuffix); ok {
			segs = append(segs, idx)
		} else if idx, ok := parseIndexed(name, snapshotPrefix, snapshotSuffix); ok {
			snaps = append(snaps, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first

	// Newest CRC-valid snapshot wins; an invalid one (which the
	// tmp+rename protocol makes near-impossible) falls back to older.
	var from uint64
	for _, idx := range snaps {
		blob, err := readSnapshotFile(l.snapshotPath(idx))
		if err != nil {
			continue
		}
		l.snapshot = blob
		l.recSnapshot = uint64(len(blob))
		from = idx
		break
	}

	for _, idx := range segs {
		if idx > l.seg {
			l.seg = idx
		}
		if idx < from {
			continue
		}
		l.recSegments++
		recs, torn, err := readSegment(l.segmentPath(idx))
		if err != nil {
			return err
		}
		l.records = append(l.records, recs...)
		if torn > 0 {
			// A torn record means nothing after it in this or any
			// later segment can be trusted in order; stop here.
			l.tornRecords += torn
			break
		}
	}
	l.recRecords = uint64(len(l.records))
	l.wasPrior = len(l.snapshot) > 0 || len(l.records) > 0 || len(segs) > 0
	return nil
}

// Recovered reports whether Open found prior state (any snapshot or
// segment, even empty) in the directory.
func (l *Log) Recovered() bool { return l.wasPrior }

// RecoveredSnapshot returns the newest valid snapshot payload found at
// Open, or nil.
func (l *Log) RecoveredSnapshot() []byte { return l.snapshot }

// RecoveredRecords returns, in append order, every valid record after
// the recovered snapshot.
func (l *Log) RecoveredRecords() [][]byte { return l.records }

// DropRecovered releases the recovered snapshot and records once the
// caller has replayed them.
func (l *Log) DropRecovered() {
	l.snapshot = nil
	l.records = nil
}

// Append journals one record. The write is buffered; durability
// arrives with the next group commit (at most SyncInterval later), or
// immediately after Sync. Payloads must be non-empty: a zeroed header
// marks the end of a segment's preallocated region, so an empty
// record is indistinguishable from no record.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("wal: empty record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if need := l.segSize + uint64(recordHeaderSize+len(payload)); l.alloc > 0 && need > l.alloc {
		for l.alloc < need {
			l.alloc *= 2
		}
		if err := preallocate(l.f, int64(l.alloc)); err != nil {
			l.alloc = 0 // fall back to size-changing appends
		}
	}
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	l.dirty = true
	l.segSize += uint64(recordHeaderSize + len(payload))
	l.appends.Add(1)
	l.appendedBytes.Add(uint64(len(payload)))
	return nil
}

// Sync flushes buffered records and fsyncs the active segment now,
// regardless of the flush window.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncSlow()
}

// syncSlow is the group commit. The buffer is handed to the OS under
// the append mutex, but the fsync itself runs without it, so
// concurrent appenders only ever wait on the (cheap) flush, never on
// the disk. Records appended while the fsync is in flight re-mark the
// log dirty and ride the next commit. Callers hold syncMu, which
// keeps the fsync ordered against Rotate and Close sealing l.f.
func (l *Log) syncSlow() error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.f == nil {
		l.mu.Unlock()
		return ErrClosed
	}
	if !l.dirty {
		l.mu.Unlock()
		return nil
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
		l.mu.Unlock()
		return l.err
	}
	l.dirty = false
	f := l.f
	l.mu.Unlock()

	start := time.Now()
	if err := datasync(f); err != nil {
		l.mu.Lock()
		l.err = fmt.Errorf("wal: fsync: %w", err)
		l.mu.Unlock()
		return err
	}
	l.fsyncs.Add(1)
	l.fsyncNanos.Add(uint64(time.Since(start)))
	return nil
}

// sealLocked flushes and fsyncs the active segment with both locks
// held — the pre-close barrier for Rotate and Close, where holding mu
// across the fsync is fine because the segment is ending anyway.
func (l *Log) sealLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
		return l.err
	}
	if err := datasync(l.f); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	l.dirty = false
	l.fsyncs.Add(1)
	return nil
}

// flushLoop is the group-commit driver: one fsync per flush window
// while there are buffered records. The window is measured from the
// *end* of the previous commit, not on a fixed tick: when the device
// is slow (in-situ fdatasync can take several ms against a nominal
// 2ms window) a ticker would drive fsyncs back-to-back, saturating
// the disk and starving the appenders of CPU. Resting a full window
// between commits caps the flusher's duty cycle at
// fsync/(fsync+window) and lets commits grow instead — the loss
// window only widens by the fsync in flight, which no pacing can
// avoid anyway.
func (l *Log) flushLoop() {
	defer close(l.done)
	timer := time.NewTimer(l.interval)
	defer timer.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-timer.C:
			l.mu.Lock()
			dirty := l.dirty && l.err == nil && !l.closed
			l.mu.Unlock()
			if dirty {
				l.syncMu.Lock()
				_ = l.syncSlow()
				l.syncMu.Unlock()
			}
			timer.Reset(l.interval)
		}
	}
}

// Rotate seals the active segment (flush + fsync) and opens the next
// one, returning the new segment's index. The caller then captures a
// state snapshot that covers everything before the new segment and
// hands it to WriteSnapshot with the returned index.
func (l *Log) Rotate() (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.sealLocked(); err != nil {
		return 0, err
	}
	if l.alloc > l.segSize {
		_ = l.f.Truncate(int64(l.segSize)) // drop the preallocated tail
	}
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: sealing segment: %w", err)
		return 0, l.err
	}
	l.f = nil
	if err := l.openSegmentLocked(l.seg + 1); err != nil {
		l.err = err // no open segment: nothing appended from here on is kept
		return 0, err
	}
	l.rotations.Add(1)
	return l.seg, nil
}

// WriteSnapshot durably records state as the checkpoint for segment
// seg (write temp, fsync, rename), then prunes every older segment and
// snapshot: the log is truncated to the tail after the checkpoint.
func (l *Log) WriteSnapshot(seg uint64, state []byte) error {
	if l.isClosed() {
		return ErrClosed
	}
	tmp, err := os.CreateTemp(l.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(state))
	if _, err := tmp.Write([]byte(snapshotMagic)); err == nil {
		_, err = tmp.Write(hdr[:])
		if err == nil {
			_, err = tmp.Write(state)
		}
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), l.snapshotPath(seg)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	l.snapshots.Add(1)
	l.lastSnapBytes.Store(uint64(len(state)))
	l.prune(seg)
	return nil
}

// prune removes segments and snapshots strictly older than the
// checkpoint at seg. Removal failures are ignored: stale files are
// harmless (recovery prefers the newest snapshot) and are retried at
// the next snapshot.
func (l *Log) prune(seg uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if idx, ok := parseIndexed(name, segmentPrefix, segmentSuffix); ok && idx < seg {
			_ = os.Remove(filepath.Join(l.dir, name))
		} else if idx, ok := parseIndexed(name, snapshotPrefix, snapshotSuffix); ok && idx < seg {
			_ = os.Remove(filepath.Join(l.dir, name))
		}
	}
}

// Err returns the sticky I/O error, if any append or sync has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segSize := l.segSize
	l.mu.Unlock()
	return Stats{
		Appends:            l.appends.Load(),
		AppendedBytes:      l.appendedBytes.Load(),
		Fsyncs:             l.fsyncs.Load(),
		FsyncNanos:         l.fsyncNanos.Load(),
		Rotations:          l.rotations.Load(),
		Snapshots:          l.snapshots.Load(),
		Recovered:          l.wasPrior,
		RecoveredRecords:   l.recRecords,
		RecoveredSnapshot:  l.recSnapshot,
		TornRecords:        l.tornRecords,
		RecoveredSegments:  l.recSegments,
		LastSnapshotBytes:  l.lastSnapBytes.Load(),
		ActiveSegmentBytes: segSize,
	}
}

// Close flushes, fsyncs, stops the flusher, and closes the active
// segment. A cleanly closed log loses nothing on restart.
func (l *Log) Close() error {
	l.syncMu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.syncMu.Unlock()
		return nil
	}
	l.closed = true
	syncErr := l.sealLocked()
	var closeErr error
	if l.f != nil {
		if l.alloc > l.segSize {
			_ = l.f.Truncate(int64(l.segSize)) // drop the preallocated tail
		}
		closeErr = l.f.Close()
		l.f = nil
	}
	l.mu.Unlock()
	// Release syncMu before waiting on the flusher: it may be blocked
	// acquiring it for one last (now no-op) commit.
	l.syncMu.Unlock()
	close(l.stop)
	<-l.done
	if syncErr != nil && !errors.Is(syncErr, ErrClosed) {
		return syncErr
	}
	return closeErr
}

func (l *Log) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *Log) openSegment(idx uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.openSegmentLocked(idx)
}

// preallocBytes is the initial size of a fresh segment. Reserving the
// space up front keeps the inode's size stable across appends, so
// each group commit is a data-only fdatasync instead of a metadata
// journal transaction (the etcd WAL trick). Sealed segments are
// trimmed back to their true length.
const preallocBytes = 1 << 20

// zeroFill writes size zero bytes from the file's current offset.
func zeroFill(f *os.File, size int64) error {
	zeros := make([]byte, 64<<10)
	for size > 0 {
		n := int64(len(zeros))
		if n > size {
			n = size
		}
		if _, err := f.Write(zeros[:n]); err != nil {
			return err
		}
		size -= n
	}
	return nil
}

func (l *Log) openSegmentLocked(idx uint64) error {
	// Segments are only ever opened at a fresh index (recovery leaves
	// l.seg at the highest prior index and appends go to l.seg+1), so
	// writes start at offset zero over the preallocated region.
	f, err := os.OpenFile(l.segmentPath(idx), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	// Zero-fill the preallocated region and flush it now: extents are
	// then allocated AND in the written state, so every later append
	// is an in-place data overwrite and group commits never touch
	// filesystem metadata (allocation or unwritten-extent conversion
	// would drag each fdatasync through the journal). One ~1 MiB
	// write per segment buys hundreds of metadata-free commits.
	l.alloc = 0
	if zeroFill(f, preallocBytes) == nil && datasync(f) == nil {
		if _, err := f.Seek(0, io.SeekStart); err == nil {
			l.alloc = preallocBytes
		}
	}
	if l.alloc == 0 {
		// Reopen clean if the fast path failed partway.
		f.Close()
		f, err = os.OpenFile(l.segmentPath(idx), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("wal: opening segment: %w", err)
		}
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.seg = idx
	l.segSize = 0
	l.dirty = false
	return nil
}

func (l *Log) segmentPath(idx uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segmentPrefix, idx, segmentSuffix))
}

func (l *Log) snapshotPath(idx uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", snapshotPrefix, idx, snapshotSuffix))
}

// parseIndexed extracts the numeric index from "<prefix><n><suffix>".
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	idx, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// readSegment scans one segment file, returning every CRC-valid record
// in order and the count of trailing torn/corrupt records dropped. A
// short header, short payload, oversized length, or CRC mismatch ends
// the scan: that is the torn tail of a mid-write crash.
func readSegment(path string) (recs [][]byte, torn uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: reading segment: %w", err)
	}
	off := 0
	for off < len(data) {
		if len(data)-off < recordHeaderSize {
			torn++
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 && sum == 0 {
			// A zeroed header is the untouched preallocated region
			// after a crash: the clean end of the log, not a torn
			// record (Append forbids empty payloads).
			break
		}
		if n > maxRecordSize || len(data)-off-recordHeaderSize < n {
			torn++
			break
		}
		payload := data[off+recordHeaderSize : off+recordHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			torn++
			break
		}
		rec := make([]byte, n)
		copy(rec, payload)
		recs = append(recs, rec)
		off += recordHeaderSize + n
	}
	return recs, torn, nil
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapshotMagic)+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, errors.New("wal: bad snapshot header")
	}
	sum := binary.LittleEndian.Uint32(data[len(snapshotMagic) : len(snapshotMagic)+4])
	payload := data[len(snapshotMagic)+4:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errors.New("wal: snapshot CRC mismatch")
	}
	return payload, nil
}
