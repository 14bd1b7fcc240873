// Package forwarder implements the per-endpoint forwarder process of
// paper §4.1: when an endpoint registers, the funcX service creates a
// forwarder that owns the endpoint's Redis task queue and hands every
// arriving result to the service. The forwarder dispatches tasks to the
// endpoint agent only while the agent is connected, uses heartbeats to
// detect agent loss,
// and leases every dispatched task: tasks whose lease expires without
// a running signal or result — and all in-flight tasks on agent loss —
// are offered to the service's reclaim hook (retry budgets, failover
// re-routing, at-most-once fail-fast), falling back to requeue-for-
// redelivery, so that agents receive tasks with at-least-once
// semantics by default.
package forwarder

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"funcx/internal/netlat"
	"funcx/internal/store"
	"funcx/internal/transport"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// AuthFunc validates an endpoint registration token. A nil AuthFunc
// accepts every registration (tests and closed-world experiments).
type AuthFunc func(endpointID types.EndpointID, token string) error

// Config parameterizes a forwarder.
type Config struct {
	// EndpointID is the endpoint this forwarder serves.
	EndpointID types.EndpointID
	// Network is the transport for the agent connection ("inproc" or
	// "tcp").
	Network string
	// Addr optionally pins the listener address.
	Addr string
	// TaskQueue is the endpoint's reliable task queue.
	TaskQueue *store.Queue
	// HeartbeatPeriod is the forwarder's heartbeat interval and the
	// granularity of agent-loss detection.
	HeartbeatPeriod time.Duration
	// HeartbeatMisses is how many missed agent heartbeats mark the
	// agent disconnected.
	HeartbeatMisses int
	// DispatchLease is the base lease granted to every dispatched
	// task: a task that produces neither a running signal nor a result
	// within the lease (plus its own Walltime) is presumed lost and
	// reclaimed through OnReclaim. A running signal re-arms the lease.
	// Default: 4 × HeartbeatMisses × HeartbeatPeriod.
	DispatchLease time.Duration
	// Auth validates registrations (nil accepts all).
	Auth AuthFunc
	// Lat optionally injects WAN latency per dispatched message
	// (Table 1 / Figure 4 experiments).
	Lat *netlat.Link
	// OnResult receives every result the agent returns, its
	// reliable-queue receipt acknowledged: the decoded result with TF
	// stamped, beside the frame it arrived in, which does not have that
	// stamp yet and now belongs to the receiver (the service adds TS,
	// writes both into the frame with wire.RestampResult, feeds the
	// memoization cache, and lands the frame in the task's record).
	OnResult func(res *types.Result, frame []byte)
	// OnDispatched, when set, fires after a task is shipped to the
	// connected agent (the service advances the task's lifecycle
	// status and publishes the "dispatched" event here). Redeliveries
	// after an agent reconnect fire it again, once per dispatch. It does
	// not fire for a task whose lease went while the send was in flight
	// (a disconnect offered the task to OnReclaim, or its result came
	// back), nor for a send on a connection a new registration replaced.
	OnDispatched func(*types.Task)
	// OnRunning, when set, fires when the agent relays a worker's
	// execution-start signal for a dispatched task (the service
	// advances the status to running and publishes the event).
	OnRunning func(id types.TaskID)
	// OnReclaim, when set, is offered every dispatched task whose
	// delivery is presumed failed: its lease expired without a
	// terminal result, or the agent disconnected while it was in
	// flight. Returning true transfers ownership (the service bumps
	// the attempt, enforces retry budgets, re-routes or requeues, or
	// lands the task as lost) and the forwarder acknowledges the
	// reliable-queue receipt; returning false leaves recovery to the
	// forwarder's default requeue-for-redelivery.
	OnReclaim func(task *types.Task, reason string) bool
	// OnOrphaned, when set, is offered every queued task while no
	// agent is connected. Returning true transfers ownership of the
	// task (the service's router re-routes group-placed tasks to a
	// healthy group member); returning false leaves the task queued
	// for the agent's return. The forwarder keeps offering queued
	// tasks each dispatch cycle until the agent reconnects, so tasks
	// requeued after a partial dispatch are offered too.
	OnOrphaned func(*types.Task) bool
	// Logger receives the forwarder's structured logs, each carrying the
	// endpoint id. Nil means slog.Default().
	Logger *slog.Logger
}

// Forwarder relays tasks and results for one endpoint.
type Forwarder struct {
	cfg Config
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	ln     transport.Listener

	// attached wakes dispatchLoop when handleAgent installs a
	// connection, so a task queued ahead of the agent leaves with the
	// registration instead of after the loop's next quarter-beat check.
	// One token is enough: the loop re-reads conn on every wake-up.
	attached chan struct{}

	mu        sync.Mutex
	conn      transport.Conn
	lastSeen  time.Time
	connected bool
	// leases tracks every dispatched-but-unfinished task: its decoded
	// record, reliable-queue receipt, and the deadline by which a
	// running signal or result must arrive before the task is
	// reclaimed.
	leases map[types.TaskID]*lease
	// lastProgress is the last time the agent proved it is working
	// through its queue (a result or running signal arrived). The
	// lease sweep is gated on it: a healthy-but-saturated endpoint
	// whose backlog exceeds one lease window must convert that
	// backlog into latency, not into mass reclaims.
	lastProgress time.Time
	// offloadIdleLen / offloadLastScan throttle orphan offloading: a
	// full-queue scan that accepted nothing is not repeated until the
	// queue changes or a heartbeat period passes.
	offloadIdleLen  int
	offloadLastScan time.Time
	// tfStart records dispatch-side forwarder time per task.
	tfStart map[types.TaskID]time.Duration
	status  *types.EndpointStatus
	// advice is the latest scaling advice from the service's
	// elasticity controller, relayed to the agent on each heartbeat
	// while fresh; adviceAt is its local receipt time, which bounds
	// the relay so a wedged controller's last advice expires here
	// instead of being re-armed at the agent forever.
	advice   *types.ScalingAdvice
	adviceAt time.Time

	dispatched int64
	completed  int64
	requeues   int64
	reclaimed  int64
}

// lease is the delivery record of one dispatched task.
type lease struct {
	task     *types.Task
	receipt  uint64
	deadline time.Time
	// extended counts progress-based deadline extensions (see
	// maxLeaseExtensions).
	extended int
}

// maxLeaseExtensions bounds how many times an expired lease may be
// extended because the agent is visibly working through its queue.
// The bound keeps both halves of the delivery contract: a saturated
// endpoint converts backlog into latency (not mass reclaims) for up
// to this many lease windows, while a task black-holed on an
// otherwise busy endpoint is still reclaimed — and reaches a terminal
// event — once the bound is spent. Backlogs legitimately deeper than
// ~16 lease windows should raise DispatchLease or the task Walltime.
const maxLeaseExtensions = 16

// New creates a forwarder; Start launches it.
func New(cfg Config) *Forwarder {
	if cfg.Network == "" {
		cfg.Network = "inproc"
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.DispatchLease <= 0 {
		cfg.DispatchLease = 4 * time.Duration(cfg.HeartbeatMisses) * cfg.HeartbeatPeriod
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Forwarder{
		cfg:      cfg,
		log:      logger.With("endpoint_id", string(cfg.EndpointID)),
		attached: make(chan struct{}, 1),
		leases:   make(map[types.TaskID]*lease),
		tfStart:  make(map[types.TaskID]time.Duration),
	}
}

// Start opens the listener and launches the accept, dispatch, and
// heartbeat loops.
func (f *Forwarder) Start(ctx context.Context) error {
	f.ctx, f.cancel = context.WithCancel(ctx)
	ln, err := transport.Listen(f.cfg.Network, f.cfg.Addr)
	if err != nil {
		return fmt.Errorf("forwarder %s: %w", f.cfg.EndpointID, err)
	}
	f.ln = ln
	f.wg.Add(3)
	go f.acceptLoop()
	go f.dispatchLoop()
	go f.heartbeatLoop()
	return nil
}

// Addr returns the address endpoint agents should dial.
func (f *Forwarder) Addr() (network, addr string) { return f.cfg.Network, f.ln.Addr() }

// Stop shuts the forwarder down, requeueing outstanding tasks.
func (f *Forwarder) Stop() {
	if f.cancel != nil {
		f.cancel()
	}
	if f.ln != nil {
		f.ln.Close()
	}
	f.disconnect("shutdown")
	f.wg.Wait()
}

// Connected reports whether an agent is currently connected.
func (f *Forwarder) Connected() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connected
}

// Outstanding returns the number of dispatched-but-unfinished tasks.
func (f *Forwarder) Outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.leases)
}

// Status returns the latest agent-reported endpoint status (nil before
// the first report).
func (f *Forwarder) Status() *types.EndpointStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.status == nil {
		// No agent report yet: still expose the live queue depth so
		// load-aware placement works from the first submission.
		return &types.EndpointStatus{
			ID:          f.cfg.EndpointID,
			Connected:   f.connected,
			QueuedTasks: f.cfg.TaskQueue.Len(),
		}
	}
	st := *f.status
	st.Connected = f.connected
	st.QueuedTasks = f.cfg.TaskQueue.Len()
	return &st
}

// SetAdvice installs the scaling advice piggybacked on subsequent
// heartbeats to the agent (the service's elasticity controller calls
// this each evaluation). Re-sending every heartbeat keeps the agent
// fresh across reconnects at no extra round trips.
func (f *Forwarder) SetAdvice(a types.ScalingAdvice) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := a
	f.advice = &cp
	f.adviceAt = time.Now()
}

// Advice returns the latest installed scaling advice (nil when the
// controller has never advised this endpoint).
func (f *Forwarder) Advice() *types.ScalingAdvice {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.advice == nil {
		return nil
	}
	cp := *f.advice
	return &cp
}

// Stats returns cumulative dispatch/completion/requeue counters.
func (f *Forwarder) Stats() (dispatched, completed, requeues int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dispatched, f.completed, f.requeues
}

// Reclaimed returns how many dispatched tasks were handed back to the
// service's reclaim path (lease expiry or agent loss).
func (f *Forwarder) Reclaimed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reclaimed
}

// acceptLoop admits agent connections (one live at a time; a new
// registration replaces a stale connection, as when an endpoint
// restarts and repeats registration).
func (f *Forwarder) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go f.handleAgent(conn)
	}
}

// handleAgent validates the registration then serves the connection.
func (f *Forwarder) handleAgent(conn transport.Conn) {
	defer f.wg.Done()
	msg, err := conn.Recv(10 * time.Second)
	if err != nil || msg.Type != transport.MsgRegister {
		conn.Close()
		return
	}
	reg, err := wire.DecodeRegistration(msg.Payload)
	if err != nil || reg.EndpointID != f.cfg.EndpointID {
		conn.Close()
		return
	}
	if f.cfg.Auth != nil {
		if err := f.cfg.Auth(reg.EndpointID, reg.Token); err != nil {
			conn.Close()
			return
		}
	}
	if err := conn.Send(transport.Message{Type: transport.MsgRegisterAck}); err != nil {
		conn.Close()
		return
	}

	// Replace any previous connection.
	f.mu.Lock()
	old := f.conn
	f.conn = conn
	f.connected = true
	f.lastSeen = time.Now()
	f.mu.Unlock()
	select {
	case f.attached <- struct{}{}:
	default:
	}
	if old != nil {
		old.Close()
	}

	for {
		msg, err := conn.Recv(0)
		if err != nil {
			// Agent link dropped. Mark disconnected and requeue
			// outstanding tasks for redelivery after reconnect.
			f.disconnectIfCurrent(conn, "connection lost")
			return
		}
		// Any inbound frame proves the agent alive: results, status
		// reports, and running signals all refresh lastSeen, so a busy
		// link whose heartbeats queue behind a result burst cannot
		// trip a false disconnect.
		f.mu.Lock()
		f.lastSeen = time.Now()
		f.mu.Unlock()
		// Frames the service-side forwarder consumes from an agent;
		// everything else is agent-bound or handshake-only.
		//funcx:exhaustive funcx/internal/transport.MsgType ignore=MsgRegister,MsgRegisterAck,MsgTask,MsgTaskBatch,MsgCapacity,MsgTaskRequest,MsgSuspend,MsgShutdown,MsgAdvice
		switch msg.Type {
		case transport.MsgHeartbeat:
			// lastSeen refreshed above.
		case transport.MsgRunning:
			if err := f.running(msg.Payload); err != nil {
				transport.WarnUndecodable(f.log, "agent", conn, msg, err)
			}
		case transport.MsgStatus:
			if st, err := wire.DecodeStatus(msg.Payload); err == nil {
				f.mu.Lock()
				f.status = st
				f.mu.Unlock()
			}
		case transport.MsgResult:
			res, err := wire.DecodeResult(msg.Payload)
			if err != nil {
				transport.WarnUndecodable(f.log, "agent", conn, msg, err)
				continue
			}
			f.storeResult(res, msg.Payload)
		}
	}
}

// running takes a worker's execution-start signal, relayed by the
// agent: execution began, so the task's lease is re-armed to give it
// its full walltime (plus slack) to produce a result, and the service
// is told. The id is read where it lies in the frame; the service is
// handed the lease's own.
func (f *Forwarder) running(frame []byte) error {
	id, err := wire.TaskStartID(frame)
	if err != nil {
		return err
	}
	now := time.Now()
	f.mu.Lock()
	f.lastProgress = now
	l, ok := f.leases[types.TaskID(id)]
	if ok {
		l.deadline = now.Add(f.cfg.DispatchLease + l.task.Walltime)
	}
	f.mu.Unlock()
	if ok && f.cfg.OnRunning != nil {
		f.cfg.OnRunning(l.task.ID)
	}
	return nil
}

// disconnect marks the agent gone and recovers every dispatched task.
// Each lease is first offered to OnReclaim, which lets the service
// bump the attempt, enforce retry budgets, re-route group tasks to a
// healthy member immediately, and land at-most-once tasks as lost
// (they must never be redelivered). Leases the service declines fall
// back to the original requeue-for-redelivery. Only the receipts this
// forwarder recorded for dispatched tasks are touched — not the whole
// pending set — so a concurrent offload scan's in-flight receipt
// cannot be yanked back into the queue after the failover path
// already re-homed its task (which would duplicate it).
func (f *Forwarder) disconnect(reason string) {
	f.mu.Lock()
	conn := f.conn
	f.conn = nil
	f.connected = false
	drained := make([]*lease, 0, len(f.leases))
	for _, l := range f.leases {
		drained = append(drained, l)
	}
	// In dispatch order (a receipt is numbered at its pop), so a new
	// owner that requeues them as offered keeps the order they were
	// sent in.
	slices.SortFunc(drained, func(a, b *lease) int { return cmp.Compare(a.receipt, b.receipt) })
	clear(f.leases)
	clear(f.tfStart)
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	var requeue []uint64
	reclaimed := 0
	for _, l := range drained {
		if f.cfg.OnReclaim != nil && f.cfg.OnReclaim(l.task, "agent "+reason) {
			f.cfg.TaskQueue.Ack(l.receipt) //nolint:errcheck // new owner requeued or retired it
			reclaimed++
			continue
		}
		requeue = append(requeue, l.receipt)
	}
	if len(requeue) > 0 {
		f.cfg.TaskQueue.RequeueReceipts(requeue...)
	}
	f.mu.Lock()
	f.requeues += int64(len(requeue))
	f.reclaimed += int64(reclaimed)
	f.mu.Unlock()
}

// disconnectIfCurrent is disconnect for a failure seen on one
// connection: a newer registration may have replaced it since, and the
// replacement must not pay for its predecessor's error.
func (f *Forwarder) disconnectIfCurrent(conn transport.Conn, reason string) {
	f.mu.Lock()
	current := f.conn == conn
	f.mu.Unlock()
	if current {
		f.disconnect(reason)
	}
}

// sweepLeases reclaims dispatched tasks whose lease expired without a
// running signal or result: the agent link may be nominally healthy
// while the task itself is black-holed (wedged manager, dropped frame).
// Expired tasks go through OnReclaim exactly like disconnect recovery;
// declined ones are returned to the queue for redelivery.
//
// An expired lease is first extended (bounded by maxLeaseExtensions)
// while the agent shows recent progress — results or running signals
// within the last lease period — so a saturated endpoint working
// through a deep backlog is not mass-reclaimed; a task whose
// extensions run out is reclaimed regardless, keeping the guarantee
// that every task reaches a terminal event.
func (f *Forwarder) sweepLeases() {
	now := time.Now()
	f.mu.Lock()
	progressing := !f.lastProgress.IsZero() && now.Sub(f.lastProgress) < f.cfg.DispatchLease
	var expired []*lease
	for id, l := range f.leases {
		if !now.After(l.deadline) {
			continue
		}
		if progressing && l.extended < maxLeaseExtensions {
			l.extended++
			l.deadline = now.Add(f.cfg.DispatchLease)
			continue
		}
		expired = append(expired, l)
		delete(f.leases, id)
		delete(f.tfStart, id)
	}
	f.mu.Unlock()
	if len(expired) == 0 {
		return
	}
	reclaimed, requeued := 0, 0
	for _, l := range expired {
		if f.cfg.OnReclaim != nil && f.cfg.OnReclaim(l.task, "dispatch lease expired") {
			f.cfg.TaskQueue.Ack(l.receipt) //nolint:errcheck
			reclaimed++
		} else {
			f.cfg.TaskQueue.Nack(l.receipt) //nolint:errcheck
			requeued++
		}
	}
	f.mu.Lock()
	f.reclaimed += int64(reclaimed)
	f.requeues += int64(requeued)
	f.mu.Unlock()
}

// dispatchLoop pops tasks from the endpoint queue and ships them to
// the connected agent; while no agent is connected, tasks simply wait
// in the reliable queue.
func (f *Forwarder) dispatchLoop() {
	defer f.wg.Done()
	// idle paces offloadOrphans while no agent is connected.
	idle := time.NewTimer(f.cfg.HeartbeatPeriod / 4)
	defer idle.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		default:
		}
		f.mu.Lock()
		connected := f.conn != nil
		f.mu.Unlock()
		if !connected {
			// No agent: offer queued tasks to the failover path, then
			// wait for one to attach (or the next offload round).
			f.offloadOrphans()
			idle.Reset(f.cfg.HeartbeatPeriod / 4)
			select {
			case <-f.attached:
			case <-idle.C:
			case <-f.ctx.Done():
				return
			}
			continue
		}
		data, receipt, err := f.cfg.TaskQueue.BPopReliable(f.cfg.HeartbeatPeriod)
		if err != nil {
			if err == store.ErrClosed {
				return
			}
			continue // timeout: re-check connection and context
		}
		// TF starts once a task is in hand: read + forward count,
		// idle blocking on an empty queue does not (Figure 4).
		popDone := time.Now()
		task, err := wire.DecodeTask(data)
		if err != nil {
			f.cfg.TaskQueue.Ack(receipt) //nolint:errcheck // drop undecodable item
			continue
		}
		// The lease is taken before the send, under the lock disconnect
		// drains leases under: an agent that drops while the frame is in
		// flight gives this task back with the ones sent before it, in
		// queue order.
		l := &lease{task: task, receipt: receipt, deadline: time.Now().Add(f.cfg.DispatchLease + task.Walltime)}
		f.mu.Lock()
		conn := f.conn
		if conn != nil {
			f.leases[task.ID] = l
		}
		f.mu.Unlock()
		if conn == nil {
			// The agent left while the loop waited for a task: nothing
			// was sent, and the task goes back where it was.
			f.cfg.TaskQueue.Nack(receipt) //nolint:errcheck
			continue
		}
		// Simulated WAN propagation toward the endpoint.
		if f.cfg.Lat != nil {
			f.cfg.Lat.Delay()
		}
		err = conn.Send(transport.Message{Type: transport.MsgTask, Payload: data})
		f.mu.Lock()
		// A disconnect or a lease sweep that ran meanwhile took the
		// lease and recovered the task; this loop no longer owns it.
		held := f.leases[task.ID] == l
		if held && err != nil {
			delete(f.leases, task.ID)
		}
		dispatched := held && err == nil && f.conn == conn
		if dispatched {
			f.tfStart[task.ID] = time.Since(popDone)
			f.dispatched++
		}
		f.mu.Unlock()
		if err != nil {
			// Send failed: the agent just vanished. Return the task —
			// except an at-most-once task, which may have partially
			// reached the agent and must never risk double delivery.
			if held {
				f.recoverUnleased(task, receipt, "send failed")
			}
			f.disconnectIfCurrent(conn, "send failed")
			continue
		}
		if dispatched && f.cfg.OnDispatched != nil {
			f.cfg.OnDispatched(task)
		}
	}
}

// recoverUnleased handles a dispatch whose send failed, its lease
// taken back. The task may or may not have reached the agent, so an
// at-most-once task is offered to OnReclaim — which retires it as lost
// rather than risk a second delivery — while ordinary tasks are
// returned to the queue for redelivery.
func (f *Forwarder) recoverUnleased(task *types.Task, receipt uint64, reason string) {
	if task.AtMostOnce && f.cfg.OnReclaim != nil && f.cfg.OnReclaim(task, "agent "+reason) {
		f.cfg.TaskQueue.Ack(receipt) //nolint:errcheck
		f.mu.Lock()
		f.reclaimed++
		f.mu.Unlock()
		return
	}
	f.cfg.TaskQueue.Nack(receipt) //nolint:errcheck
}

// offloadOrphans walks the queue while no agent is connected,
// offering each task to OnOrphaned. Accepted tasks are acknowledged
// (their new owner has requeued them elsewhere); declined tasks
// return to the queue in their original order to await the agent.
//
// Scans are throttled: when a pass accepts nothing (direct tasks, or
// no healthy alternative yet), the queue is not re-walked until it
// changes or a heartbeat period passes — a large backlog of
// unroutable tasks must not be decoded every dispatch cycle, but a
// group member recovering elsewhere is still picked up within one
// heartbeat.
func (f *Forwarder) offloadOrphans() {
	if f.cfg.OnOrphaned == nil {
		return
	}
	f.mu.Lock()
	idleLen, lastScan := f.offloadIdleLen, f.offloadLastScan
	f.mu.Unlock()
	if idleLen > 0 && f.cfg.TaskQueue.Len() == idleLen &&
		time.Since(lastScan) < f.cfg.HeartbeatPeriod {
		return
	}
	accepted := 0
	var declined []uint64
	for {
		data, receipt, ok := f.cfg.TaskQueue.TryPopReliable()
		if !ok {
			break
		}
		task, err := wire.DecodeTask(data)
		if err != nil {
			f.cfg.TaskQueue.Ack(receipt) //nolint:errcheck // drop undecodable item
			continue
		}
		if f.cfg.OnOrphaned(task) {
			f.cfg.TaskQueue.Ack(receipt) //nolint:errcheck
			accepted++
		} else {
			declined = append(declined, receipt)
		}
	}
	// Nack prepends, so restoring in reverse keeps original order.
	for i := len(declined) - 1; i >= 0; i-- {
		f.cfg.TaskQueue.Nack(declined[i]) //nolint:errcheck
	}
	f.mu.Lock()
	if accepted == 0 && len(declined) > 0 {
		f.offloadIdleLen = len(declined)
		f.offloadLastScan = time.Now()
	} else {
		f.offloadIdleLen = 0
	}
	f.mu.Unlock()
}

// storeResult records a completed task: acknowledges the reliable
// queue, stamps TF timing, and hands the result and the frame it came
// in to the service.
func (f *Forwarder) storeResult(res *types.Result, frame []byte) {
	start := time.Now()
	f.mu.Lock()
	f.lastProgress = start
	var receipt uint64
	l, ok := f.leases[res.TaskID]
	if ok {
		receipt = l.receipt
		delete(f.leases, res.TaskID)
	}
	if d, ok2 := f.tfStart[res.TaskID]; ok2 {
		res.Timing.TF = d
		delete(f.tfStart, res.TaskID)
	}
	f.completed++
	f.mu.Unlock()
	if ok {
		f.cfg.TaskQueue.Ack(receipt) //nolint:errcheck
	}
	// Result-side WAN propagation.
	if f.cfg.Lat != nil {
		f.cfg.Lat.Delay()
	}
	res.Timing.TF += time.Since(start)
	if f.cfg.OnResult != nil {
		f.cfg.OnResult(res, frame)
	}
}

// heartbeatLoop probes the agent and detects loss.
func (f *Forwarder) heartbeatLoop() {
	defer f.wg.Done()
	ticker := time.NewTicker(f.cfg.HeartbeatPeriod)
	defer ticker.Stop()
	lastCheck := time.Now()
	for {
		select {
		case <-ticker.C:
			f.mu.Lock()
			conn := f.conn
			// The agent's silence counts only while this process was
			// running to hear it: a check that comes late (a suspended
			// VM, a starved scheduler) restarts the agent's clock, and
			// the frames that queued up meanwhile refresh it from there.
			if time.Since(lastCheck) > 2*f.cfg.HeartbeatPeriod {
				f.lastSeen = time.Now()
			}
			lastCheck = time.Now()
			stale := f.connected && time.Since(f.lastSeen) > time.Duration(f.cfg.HeartbeatMisses)*f.cfg.HeartbeatPeriod
			advice := f.advice
			// Never relay expired advice: each delivery re-stamps the
			// agent's receipt clock, so relaying past the TTL would
			// keep stale advice alive at the endpoint indefinitely.
			if advice != nil && (advice.TTL <= 0 || time.Since(f.adviceAt) >= advice.TTL) {
				advice = nil
			}
			f.mu.Unlock()
			if conn == nil {
				continue
			}
			if stale {
				f.disconnect("heartbeat loss")
				continue
			}
			// Reclaim dispatched tasks whose lease ran out while the
			// link stayed up (black-holed at a wedged manager, etc.).
			f.sweepLeases()
			conn.Send(transport.Message{Type: transport.MsgHeartbeat, Payload: []byte(f.cfg.EndpointID)}) //nolint:errcheck
			// Piggyback the latest scaling advice on the heartbeat
			// cycle: no extra round trips, and a reconnecting agent
			// re-learns its target within one period.
			if advice != nil {
				conn.Send(transport.Message{Type: transport.MsgAdvice, Payload: wire.EncodeAdvice(advice)}) //nolint:errcheck
			}
		case <-f.ctx.Done():
			return
		}
	}
}
