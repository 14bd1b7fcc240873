// Package events is the service's task event bus: every task
// lifecycle transition (queued → dispatched → success/failed, with
// result bytes on completion) is published onto its owner's ordered
// per-user stream. The bus is the single result-notification seam of
// the service — it replaces the ad-hoc per-connection waiter map that
// blocking result retrieval used to park channels in — and backs both
// new API surfaces:
//
//   - POST /v1/tasks/wait blocks on N task completions through
//     NotifyDone, one registration and one channel regardless of N;
//   - GET /v1/events streams a user's events over one SSE connection
//     through Subscribe/Resume, resumable after a disconnect against
//     a bounded per-user replay ring.
//
// A subscription takes either every event or, with TerminalOnly, just
// the ones that retire a task (TaskEvent.Terminal: success, failed,
// lost — the events that carry a result). The filter is applied inside
// Publish, ahead of the subscription's channel, and to the replayed
// suffix in Resume, so an event a subscriber did not ask for costs it
// no buffer slot and no wake-up, and lifecycle chatter cannot make a
// completion-only subscriber lag. Seqs number the user's whole stream:
// a filtered subscriber sees them increase with holes, and resumes
// from the last one it saw like any other.
//
// All operations are safe for concurrent use.
package events

import (
	"errors"
	"sync"
	"time"

	"funcx/internal/types"
)

// ErrGap is returned by Resume when the requested position is no
// longer covered by the replay ring: events between the caller's last
// seen seq and the oldest buffered event have been evicted, so a
// gapless resume is impossible. Callers must re-subscribe from now
// and reconcile missed completions out of band (batch wait).
var ErrGap = errors.New("events: replay gap: events no longer buffered")

// Filter selects which of a user's events a subscription is sent.
type Filter uint8

const (
	// All delivers every event (the default).
	All Filter = iota
	// TerminalOnly delivers the events for which TaskEvent.Terminal
	// holds and nothing else.
	TerminalOnly
)

// admits reports whether a subscription with this filter is sent ev.
func (f Filter) admits(ev *types.TaskEvent) bool {
	return f == All || ev.Terminal()
}

// filterOf resolves the optional trailing argument of Subscribe and
// Resume.
func filterOf(only []Filter) Filter {
	if len(only) == 0 {
		return All
	}
	return only[0]
}

// Config parameterizes a Bus.
type Config struct {
	// Ring bounds each user's replay ring: how many trailing events a
	// disconnected subscriber can still resume across (default 1024).
	Ring int
	// SubBuffer bounds each subscription's delivery channel. A
	// subscriber that falls this many events behind is closed lagged
	// and must Resume from its last delivered seq (default 256).
	SubBuffer int
	// IdleTTL bounds how long a user's stream (replay ring + seq
	// counter) may sit idle with no attached subscribers before
	// EvictIdle may drop it. Without eviction, one ring per user
	// lives for the process lifetime. 0 disables eviction; a resume
	// after eviction returns ErrGap (HTTP 410), exactly like a ring
	// overrun, and the client reconciles via batch wait.
	IdleTTL time.Duration
}

// Bus is a per-user task event bus with bounded replay.
type Bus struct {
	cfg Config

	mu    sync.Mutex
	users map[types.UserID]*stream
	// lastSeq tombstones evicted users' seq counters (8 bytes each,
	// vs a full ring): a recreated stream continues the numbering, so
	// a pre-eviction Last-Event-ID can never silently resume at the
	// wrong position — it either matches the preserved seq exactly
	// (nothing missed) or gets ErrGap. Bounded by maxSeqTombstones so
	// user churn cannot grow it for the process lifetime.
	lastSeq map[types.UserID]uint64
	// done holds completion-notification registrations: task id ->
	// registrations to ping when the task's terminal event lands.
	done map[types.TaskID][]*doneReg
}

// stream is one user's event history and live subscriber set.
type stream struct {
	seq  uint64 // seq of the newest published event
	ring []types.TaskEvent
	n    int // events currently buffered (<= cap(ring))
	subs map[*Subscription]struct{}
	// lastActive is the last publish or subscriber attachment, the
	// idle clock EvictIdle judges against.
	lastActive time.Time
}

type doneReg struct {
	ch chan<- types.TaskID
}

// New creates a bus.
func New(cfg Config) *Bus {
	if cfg.Ring <= 0 {
		cfg.Ring = 1024
	}
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = 256
	}
	return &Bus{
		cfg:     cfg,
		users:   make(map[types.UserID]*stream),
		lastSeq: make(map[types.UserID]uint64),
		done:    make(map[types.TaskID][]*doneReg),
	}
}

func (b *Bus) stream(user types.UserID) *stream {
	st, ok := b.users[user]
	if !ok {
		st = &stream{subs: make(map[*Subscription]struct{})}
		// Continue a previously evicted user's numbering so old
		// Last-Event-IDs stay unambiguous.
		if seq, evicted := b.lastSeq[user]; evicted {
			st.seq = seq
			delete(b.lastSeq, user)
		}
		b.users[user] = st
	}
	st.lastActive = time.Now()
	return st
}

// EvictIdle drops streams that have had no publish and no attached
// subscriber for longer than IdleTTL, returning how many users were
// evicted. Streams with live subscribers are never evicted. The ring
// is freed; only the 8-byte seq counter survives as a tombstone, so
// the numbering continues if the user returns. A subscriber resuming
// with a pre-eviction Last-Event-ID gets ErrGap (410) for anything it
// actually missed — only a resume from the exact preserved seq (it
// saw everything) succeeds — and reconciles completions out of band,
// exactly as after a ring overrun.
func (b *Bus) EvictIdle() int {
	if b.cfg.IdleTTL <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-b.cfg.IdleTTL)
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for user, st := range b.users {
		if len(st.subs) == 0 && st.lastActive.Before(cutoff) {
			if st.seq > 0 {
				b.lastSeq[user] = st.seq
			}
			delete(b.users, user)
			n++
		}
	}
	// Bound the tombstones themselves: beyond the cap, arbitrary old
	// entries are dropped. A dropped user's numbering restarts, so
	// their ancient Last-Event-ID degrades to ErrGap/410 in the worst
	// case — which resuming clients must handle anyway.
	for user := range b.lastSeq {
		if len(b.lastSeq) <= maxSeqTombstones {
			break
		}
		delete(b.lastSeq, user)
	}
	return n
}

// maxSeqTombstones bounds the evicted-user seq map (~64k entries of a
// key string plus 8 bytes — a few MiB worst case).
const maxSeqTombstones = 65536

// Users reports how many per-user streams the bus currently holds
// (diagnostics for eviction tests).
func (b *Bus) Users() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.users)
}

// Stats is the bus's aggregate gauge snapshot, taken in one lock
// acquisition for the observability surfaces (/v1/stats JSON and the
// /v1/metrics Prometheus exposition report identical values).
type Stats struct {
	// Users is the number of per-user streams currently held.
	Users int
	// Subscribers is the number of live subscriptions across streams.
	Subscribers int
	// BufferedEvents is the total event count across replay rings.
	BufferedEvents int
	// PendingDone is how many tasks carry completion registrations.
	PendingDone int
	// SeqTombstones counts evicted users whose event numbering is
	// preserved for Last-Event-ID continuity.
	SeqTombstones int
}

// Stats snapshots the bus's gauges under one lock.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Stats{
		Users:         len(b.users),
		PendingDone:   len(b.done),
		SeqTombstones: len(b.lastSeq),
	}
	for _, s := range b.users {
		st.Subscribers += len(s.subs)
		st.BufferedEvents += s.n
	}
	return st
}

// slot returns the ring index holding the event with the given seq.
// The ring grows lazily up to cfg.Ring so idle users stay cheap.
func (st *stream) slot(seq uint64, ringCap int) int {
	return int((seq - 1) % uint64(ringCap))
}

// Publish appends an event to the user's stream, assigns its seq,
// fans it out to live subscribers, and — for terminal events — pings
// every NotifyDone registration for the task. It returns the assigned
// seq.
func (b *Bus) Publish(user types.UserID, ev types.TaskEvent) uint64 {
	b.mu.Lock()
	st := b.stream(user)
	st.seq++
	ev.Seq = st.seq
	// The ring copy drops the inline result bytes: pinning every
	// user's last N full results in memory for the process lifetime
	// is the one unbounded cost of replay, and a resumed subscriber
	// can reconcile trimmed terminal events via POST /v1/tasks/wait
	// (live deliveries below keep the bytes).
	ringCopy := ev
	ringCopy.Result = nil
	if len(st.ring) < b.cfg.Ring {
		st.ring = append(st.ring, ringCopy)
	} else {
		st.ring[st.slot(ev.Seq, b.cfg.Ring)] = ringCopy
	}
	if st.n < b.cfg.Ring {
		st.n++
	}
	for sub := range st.subs {
		if !sub.filter.admits(&ev) {
			continue
		}
		select {
		case sub.c <- ev:
		default:
			// Subscriber fell a full buffer behind: close it lagged
			// rather than block the publisher; it resumes from the
			// ring with its last delivered seq.
			sub.lagged = true
			sub.closeLocked()
			delete(st.subs, sub)
		}
	}
	var regs []*doneReg
	if ev.Terminal() {
		regs = b.done[ev.TaskID]
		delete(b.done, ev.TaskID)
	}
	b.mu.Unlock()
	for _, reg := range regs {
		select {
		case reg.ch <- ev.TaskID:
		default:
			// Registration contract: the channel is buffered for every
			// registered id, so this only drops for misuse.
		}
	}
	return ev.Seq
}

// Seq returns the seq of the newest event on a user's stream (0 when
// none has been published).
func (b *Bus) Seq(user types.UserID) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if st, ok := b.users[user]; ok {
		return st.seq
	}
	return 0
}

// SeedSeq fast-forwards a user's event numbering to at least seq.
// Recovery calls this with the last journaled seq per user so a
// restarted shard continues numbering where the dead process stopped
// instead of reissuing seqs that clients have already consumed as
// Last-Event-IDs. Seeding a lower seq than the stream already holds
// is a no-op. The seeded prefix is recorded as a tombstone: resuming
// from exactly seq succeeds, anything older gets ErrGap — identical
// to resuming after an idle eviction.
func (b *Bus) SeedSeq(user types.UserID, seq uint64) {
	if seq == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if st, ok := b.users[user]; ok {
		if st.seq < seq {
			st.seq = seq
		}
		return
	}
	if b.lastSeq[user] < seq {
		b.lastSeq[user] = seq
	}
}

// Subscribe attaches a live subscription starting now: only events
// published after the call are delivered, and of those only the ones
// the filter (All when omitted) admits.
func (b *Bus) Subscribe(user types.UserID, only ...Filter) *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stream(user)
	return b.attachLocked(user, st, filterOf(only))
}

// Resume attaches a subscription continuing after afterSeq: events
// with greater seqs still buffered in the replay ring are returned
// for immediate redelivery, and the subscription carries on from the
// newest. ErrGap is returned when the ring no longer covers the
// requested position (including an afterSeq from a different bus
// incarnation, which is ahead of everything published here). The
// filter (All when omitted) applies to the replay as it does to the
// live subscription; whether the ring covers the position is judged on
// the whole stream, so a filtered subscriber may be told ErrGap for a
// stretch that held nothing it wanted.
func (b *Bus) Resume(user types.UserID, afterSeq uint64, only ...Filter) ([]types.TaskEvent, *Subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stream(user)
	if afterSeq > st.seq {
		return nil, nil, ErrGap
	}
	if missed := st.seq - afterSeq; missed > uint64(st.n) {
		return nil, nil, ErrGap
	}
	filter := filterOf(only)
	var replay []types.TaskEvent
	for seq := afterSeq + 1; seq <= st.seq; seq++ {
		if ev := &st.ring[st.slot(seq, b.cfg.Ring)]; filter.admits(ev) {
			replay = append(replay, *ev)
		}
	}
	return replay, b.attachLocked(user, st, filter), nil
}

// attachLocked creates and registers a subscription. Caller holds b.mu.
func (b *Bus) attachLocked(user types.UserID, st *stream, filter Filter) *Subscription {
	c := make(chan types.TaskEvent, b.cfg.SubBuffer)
	sub := &Subscription{C: c, c: c, bus: b, user: user, start: st.seq, filter: filter}
	st.subs[sub] = struct{}{}
	return sub
}

// NotifyDone registers for completion pings: when any of ids reaches
// a terminal event, its id is sent on ch (which must be buffered for
// at least len(ids) sends). Already-completed tasks produce no ping —
// callers check the result store *after* registering so no completion
// can slip between. The returned cancel releases the registration.
func (b *Bus) NotifyDone(ids []types.TaskID, ch chan<- types.TaskID) (cancel func()) {
	reg := &doneReg{ch: ch}
	registered := append([]types.TaskID(nil), ids...)
	b.mu.Lock()
	for _, id := range registered {
		b.done[id] = append(b.done[id], reg)
	}
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, id := range registered {
			list := b.done[id]
			for i, r := range list {
				if r == reg {
					b.done[id] = append(list[:i], list[i+1:]...)
					break
				}
			}
			if len(b.done[id]) == 0 {
				delete(b.done, id)
			}
		}
	}
}

// PendingDone reports how many tasks currently carry completion
// registrations (diagnostics: it drains to zero once waiters return,
// since registrations are canceled by their waiter or consumed by the
// terminal event).
func (b *Bus) PendingDone() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.done)
}

// Subscription is one live attachment to a user's stream.
type Subscription struct {
	// C delivers events in seq order. It is closed when the
	// subscription is canceled or has lagged (see Lagged).
	C <-chan types.TaskEvent

	c      chan types.TaskEvent
	bus    *Bus
	user   types.UserID
	start  uint64
	filter Filter
	closed bool
	lagged bool
}

// Start returns the stream seq at attachment: the position to resume
// from if the subscription closes before delivering anything.
func (s *Subscription) Start() uint64 { return s.start }

// Lagged reports whether the bus closed the subscription because it
// fell behind; valid once C is closed. A lagged subscriber resumes
// from the last seq it actually received (or Start).
func (s *Subscription) Lagged() bool {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.lagged
}

// Cancel detaches the subscription and closes C.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if st, ok := s.bus.users[s.user]; ok {
		delete(st.subs, s)
		// The idle clock starts at detachment, so a stream is kept a
		// full IdleTTL after its last subscriber leaves.
		st.lastActive = time.Now()
	}
	s.closeLocked()
}

// closeLocked closes the channel once. Caller holds bus.mu.
func (s *Subscription) closeLocked() {
	if !s.closed {
		s.closed = true
		close(s.c)
	}
}
