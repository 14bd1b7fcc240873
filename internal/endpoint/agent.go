// Package endpoint implements the funcX agent (paper §4.3): the
// persistent process deployed on a resource's login node (or cloud
// instance, or laptop) that turns it into a function-serving endpoint.
//
// The agent:
//
//   - registers with the funcX service's forwarder and relays tasks and
//     results between the service and node managers;
//   - provisions managers through a pilot-job provider, scaling the
//     pool with the automatic scaling strategy (§4.4);
//   - allocates tasks to suitable managers with available capacity
//     using a greedy randomized scheduling algorithm (§4.5), routing on
//     container type;
//   - queues tasks internally so none are lost once delivered (§4.1);
//   - watches manager heartbeats with a watchdog and re-executes tasks
//     lost to failed managers (§4.3);
//   - amortizes communication with executor-side batching and relays
//     opportunistic prefetch capacity (§4.7).
package endpoint

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"funcx/internal/transport"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// SchedulingPolicy selects how the agent picks among managers with
// capacity. The paper uses the randomized policy; the alternatives
// exist for the scheduling ablation.
type SchedulingPolicy string

// Scheduling policies.
const (
	// ScheduleRandom picks uniformly among suitable managers (§4.5).
	ScheduleRandom SchedulingPolicy = "random"
	// ScheduleRoundRobin cycles through suitable managers.
	ScheduleRoundRobin SchedulingPolicy = "round-robin"
	// ScheduleFirstFit always picks the first suitable manager.
	ScheduleFirstFit SchedulingPolicy = "first-fit"
)

// Config parameterizes an endpoint agent.
type Config struct {
	// ID is the registered endpoint id.
	ID types.EndpointID
	// ServiceNetwork/ServiceAddr locate the forwarder's listener.
	ServiceNetwork string
	ServiceAddr    string
	// Token authenticates the endpoint (native client token).
	Token string
	// ListenNetwork is the transport for manager connections
	// ("inproc" default, "tcp" for multi-process deployments).
	ListenNetwork string
	// ListenAddr optionally pins the manager listener address.
	ListenAddr string
	// HeartbeatPeriod is the agent's heartbeat interval, both to the
	// forwarder and expected from managers.
	HeartbeatPeriod time.Duration
	// HeartbeatMisses is how many missed manager heartbeats mark a
	// manager lost.
	HeartbeatMisses int
	// Policy selects the scheduling policy (default random).
	Policy SchedulingPolicy
	// BatchDispatch enables executor-side batching (§4.7): fill each
	// manager's full advertised capacity per scheduling round. When
	// false, one task is dispatched per manager per capacity
	// advertisement (the §5.5.2 "disabled" baseline).
	BatchDispatch bool
	// MaxAttempts bounds task re-executions after manager loss
	// (0 = retry forever).
	MaxAttempts int
	// DisableAdvice drops incoming scaling-advice frames, keeping the
	// endpoint's scaling purely local (the funcx-endpoint CLI's
	// -no-advice flag).
	DisableAdvice bool
	// Seed seeds the randomized scheduler.
	Seed int64
	// Logger receives the agent's structured logs; every record carries
	// the endpoint id, and per-task records (receipt, completion) log at
	// Debug so a task id greps across the service and agent sides of a
	// dispatch. Nil means slog.Default().
	Logger *slog.Logger
}

// managerState is the agent's view of one registered manager.
type managerState struct {
	id       types.ManagerID
	conn     transport.Conn
	capacity *types.Capacity
	lastSeen time.Time
	// dispatched is decremented capacity bookkeeping between
	// advertisements.
	budget int
	// awaitingAdvert gates non-batched dispatch: one task per
	// advertisement round-trip.
	awaitingAdvert bool
	// outstanding tasks at this manager, by id.
	outstanding map[types.TaskID]wire.TaskView
	suspended   bool
}

// traceIDOf returns the task's service-propagated trace id for
// log↔span correlation ("" for unsampled tasks): the agent logs the
// exact id under which the service exports the task's spans.
func traceIDOf(t *types.Task) string {
	if t != nil && t.Trace != nil {
		return t.Trace.TraceID
	}
	return ""
}

// arrivedTask tracks a task between arrival at the agent and result
// departure, for the TE timing component and log correlation.
type arrivedTask struct {
	traceID string
	arrived time.Time
}

// Agent is the funcX endpoint agent.
type Agent struct {
	cfg Config
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	ln transport.Listener

	// outMu guards the upstream outbox. All upstream traffic (results,
	// heartbeats, status, running signals) is enqueued here and written
	// by a dedicated goroutine, so a saturated service link can never
	// block the goroutines that process manager frames or run the
	// watchdog — the head-of-line blocking that used to let queued
	// manager heartbeats go unread under dispatch storms and kill
	// healthy managers.
	outMu   sync.Mutex
	outbox  []transport.Message
	outKick chan struct{}

	mu        sync.Mutex
	upstream  transport.Conn
	connected bool
	managers  map[types.ManagerID]*managerState
	// queue holds each task as the frame it arrived in, which is what a
	// manager is sent.
	queue    []wire.TaskView
	inflight map[types.TaskID]*arrivedTask
	rng      *rand.Rand
	rrCursor int
	// advice is the latest scaling advice from the service, with its
	// local receipt time (staleness is judged against the receiver's
	// clock so cross-machine skew cannot pin old advice).
	advice     *types.ScalingAdvice
	adviceAt   time.Time
	blockStats func() (live, pending int)
	// counters
	received  int64
	completed int64
	requeued  int64
}

// New creates an agent; Start connects and runs it.
func New(cfg Config) *Agent {
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.ListenNetwork == "" {
		cfg.ListenNetwork = "inproc"
	}
	if cfg.Policy == "" {
		cfg.Policy = ScheduleRandom
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Agent{
		cfg:      cfg,
		log:      logger.With("endpoint_id", string(cfg.ID)),
		managers: make(map[types.ManagerID]*managerState),
		inflight: make(map[types.TaskID]*arrivedTask),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		outKick:  make(chan struct{}, 1),
	}
}

// ManagerAddr returns the address managers should dial. Valid after
// Start.
func (a *Agent) ManagerAddr() (network, addr string) {
	return a.cfg.ListenNetwork, a.ln.Addr()
}

// Start opens the manager listener, connects to the forwarder,
// registers, and launches the agent loops.
func (a *Agent) Start(ctx context.Context) error {
	a.ctx, a.cancel = context.WithCancel(ctx)
	ln, err := transport.Listen(a.cfg.ListenNetwork, a.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("endpoint %s: %w", a.cfg.ID, err)
	}
	a.ln = ln
	if err := a.connect(nil); err != nil {
		ln.Close()
		return err
	}
	a.wg.Add(3)
	go a.acceptLoop()
	go a.heartbeatLoop()
	go a.upstreamWriter()
	return nil
}

// connect dials the forwarder and registers. The new link replaces
// old, the upstream the caller saw; if the upstream changed while
// dialing (a Disconnect, or another connect won) the new link is
// dropped and that later decision stands.
func (a *Agent) connect(old transport.Conn) error {
	conn, err := transport.Dial(a.cfg.ServiceNetwork, a.cfg.ServiceAddr, string(a.cfg.ID))
	if err != nil {
		return fmt.Errorf("endpoint %s: dial forwarder: %w", a.cfg.ID, err)
	}
	reg := &wire.Registration{EndpointID: a.cfg.ID, Token: a.cfg.Token}
	if err := conn.Send(transport.Message{Type: transport.MsgRegister, Payload: wire.EncodeRegistration(reg)}); err != nil {
		conn.Close()
		return fmt.Errorf("endpoint %s: register: %w", a.cfg.ID, err)
	}
	// Wait for the ack so registration failures surface synchronously.
	msg, err := conn.Recv(10 * time.Second)
	if err != nil || msg.Type != transport.MsgRegisterAck {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("unexpected %s", msg.Type)
		}
		return fmt.Errorf("endpoint %s: registration rejected: %w", a.cfg.ID, err)
	}
	a.mu.Lock()
	// Stop cancels before it collects the upstream to close: a link
	// installed after that would never be closed.
	if a.upstream != old || a.ctx.Err() != nil {
		a.mu.Unlock()
		conn.Close()
		return nil
	}
	a.upstream = conn
	a.connected = true
	a.mu.Unlock()
	a.log.Info("registered with forwarder", "service_addr", a.cfg.ServiceAddr)
	a.wg.Add(1)
	go a.upstreamLoop(conn)
	return nil
}

// Stop shuts the agent down, closing manager connections.
func (a *Agent) Stop() {
	if a.cancel != nil {
		a.cancel()
	}
	if a.ln != nil {
		a.ln.Close()
	}
	a.mu.Lock()
	up := a.upstream
	conns := make([]transport.Conn, 0, len(a.managers))
	for _, m := range a.managers {
		conns = append(conns, m.conn)
	}
	a.mu.Unlock()
	if up != nil {
		up.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	a.wg.Wait()
}

// Disconnect severs the forwarder connection without stopping managers
// — the failure injected in the Figure 8 experiment. The agent stays
// down until Reconnect.
func (a *Agent) Disconnect() {
	a.mu.Lock()
	up := a.upstream
	a.upstream = nil
	a.connected = false
	a.mu.Unlock()
	if up != nil {
		up.Close()
	}
}

// Reconnect re-dials the forwarder and repeats registration, after
// which the forwarder resumes dispatching (paper §4.3: "when the funcX
// agent recovers, it repeats the registration process").
func (a *Agent) Reconnect() error {
	a.mu.Lock()
	connected, old := a.connected, a.upstream
	a.mu.Unlock()
	if connected {
		return nil
	}
	return a.connect(old)
}

// Connected reports whether the upstream link is up.
func (a *Agent) Connected() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.connected
}

// Stats returns cumulative task counters: received, completed, and
// requeued-after-manager-loss.
func (a *Agent) Stats() (received, completed, requeued int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.received, a.completed, a.requeued
}

// QueueDepth returns the internal queue length.
func (a *Agent) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// ManagerCount returns the number of registered (live) managers.
func (a *Agent) ManagerCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.managers)
}

// SetBlockStats installs the provider block-count source included in
// status reports (core installs it when elasticity is enabled), so the
// service's cold-start-aware strategy can see capacity already booting.
func (a *Agent) SetBlockStats(fn func() (live, pending int)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.blockStats = fn
}

// Advice returns the latest scaling advice received from the service
// and its local receipt time (ok is false before any advice arrives).
func (a *Agent) Advice() (adv types.ScalingAdvice, receivedAt time.Time, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.advice == nil {
		return types.ScalingAdvice{}, time.Time{}, false
	}
	return *a.advice, a.adviceAt, true
}

// Status snapshots the endpoint for service-side reporting.
func (a *Agent) Status() *types.EndpointStatus {
	a.mu.Lock()
	stats := a.blockStats
	a.mu.Unlock()
	live, pending := 0, 0
	if stats != nil {
		// Called outside a.mu: the source reads the provider, whose
		// lock must not nest inside the agent's.
		live, pending = stats()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	workers, idle := 0, 0
	for _, m := range a.managers {
		if m.capacity != nil {
			workers += m.capacity.Total
			for _, f := range m.capacity.Free {
				idle += f
			}
			idle += m.capacity.Slots
		}
	}
	return &types.EndpointStatus{
		ID:               a.cfg.ID,
		Connected:        a.connected,
		OutstandingTasks: len(a.inflight),
		QueuedTasks:      len(a.queue),
		Managers:         len(a.managers),
		Workers:          workers,
		IdleWorkers:      idle,
		LiveBlocks:       live,
		PendingBlocks:    pending,
		LastHeartbeat:    time.Now(),
	}
}

// --- upstream (forwarder) side ---

func (a *Agent) upstreamLoop(conn transport.Conn) {
	defer a.wg.Done()
	for {
		msg, err := conn.Recv(0)
		if err != nil {
			// Disconnect clears a.upstream before it closes the link
			// and Stop cancels the context first, so a link that fails
			// while still current was dropped by the other side (the
			// forwarder's heartbeat timeout, a service restart): the
			// agent repeats the registration (§4.3).
			a.mu.Lock()
			lost := a.upstream == conn
			if lost {
				a.connected = false
			}
			a.mu.Unlock()
			if lost {
				a.redial(conn)
			}
			return
		}
		// Frames the agent consumes from the service's forwarder;
		// the rest are agent-originated or handshake-only.
		//funcx:exhaustive funcx/internal/transport.MsgType ignore=MsgRegister,MsgRegisterAck,MsgResult,MsgCapacity,MsgTaskRequest,MsgSuspend,MsgStatus,MsgRunning
		switch msg.Type {
		case transport.MsgTask:
			v, err := wire.ViewTask(msg.Payload)
			if err != nil {
				transport.WarnUndecodable(a.log, "forwarder", conn, msg, err)
				continue
			}
			a.enqueue(v)
		case transport.MsgTaskBatch:
			vs, err := wire.ViewTasks(msg.Payload)
			if err != nil {
				transport.WarnUndecodable(a.log, "forwarder", conn, msg, err)
				continue
			}
			for _, v := range vs {
				a.enqueue(v)
			}
		case transport.MsgHeartbeat:
			// Forwarder liveness: receipt is enough; our own
			// heartbeats flow from heartbeatLoop.
		case transport.MsgAdvice:
			if a.cfg.DisableAdvice {
				continue
			}
			adv, err := wire.DecodeAdvice(msg.Payload)
			if err != nil || adv.EndpointID != a.cfg.ID {
				continue
			}
			a.mu.Lock()
			// Seq guards against reordered frames on reconnect races —
			// but only while the stored advice is itself fresh. Stale
			// advice yields to anything newer-by-arrival, so a
			// restarted service (whose Seq counter reset) is not
			// ignored until it climbs past the old counter.
			storedStale := a.advice != nil &&
				(a.advice.TTL <= 0 || time.Since(a.adviceAt) >= a.advice.TTL)
			if a.advice == nil || storedStale || adv.Seq == 0 || adv.Seq >= a.advice.Seq {
				a.advice = adv
				a.adviceAt = time.Now()
			}
			a.mu.Unlock()
		case transport.MsgShutdown:
			go a.Stop()
			return
		}
	}
}

// redial re-attaches after the forwarder dropped lost, backing off
// from a quarter to eight heartbeat periods between attempts, until it
// succeeds, the agent stops, or the upstream is no longer lost — a
// Disconnect or a Reconnect decided otherwise.
func (a *Agent) redial(lost transport.Conn) {
	backoff := a.cfg.HeartbeatPeriod / 4
	for {
		a.mu.Lock()
		current := a.upstream == lost
		a.mu.Unlock()
		if !current || a.ctx.Err() != nil {
			return
		}
		err := a.connect(lost)
		if err == nil {
			return
		}
		a.log.Warn("re-attaching to forwarder failed", "error", err, "retry_in", backoff)
		select {
		case <-a.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, 8*a.cfg.HeartbeatPeriod)
	}
}

// enqueue accepts a task from upstream into the internal queue.
func (a *Agent) enqueue(v wire.TaskView) {
	t := v.Head
	a.mu.Lock()
	a.received++
	a.queue = append(a.queue, v)
	a.inflight[t.ID] = &arrivedTask{traceID: traceIDOf(t), arrived: time.Now()}
	a.mu.Unlock()
	a.log.Debug("task received", "task_id", string(t.ID), "function_id", string(t.FunctionID), "attempt", t.Attempt, "trace_id", traceIDOf(t))
	a.schedule()
}

// outboxCap bounds the upstream outbox. A wedged-but-open service
// link (peer stopped reading, no connection error) would otherwise
// grow the queue forever: heartbeats and status reports are refreshed
// every tick anyway, and results dropped here are redelivered once
// the dead link finally breaks and the forwarder reclaims the leases.
const outboxCap = 16384

// enqueueUpstream hands a message to the upstream writer. It never
// blocks, so callers holding a.mu (the watchdog) or processing manager
// frames are isolated from upstream backpressure; memory is bounded
// by outboxCap with drop-oldest overflow.
func (a *Agent) enqueueUpstream(m transport.Message) {
	a.outMu.Lock()
	if len(a.outbox) >= outboxCap {
		// Drop the oldest half rather than the new message: the
		// freshest heartbeat/status/result is always the most useful.
		a.outbox = append(a.outbox[:0:0], a.outbox[len(a.outbox)/2:]...)
	}
	a.outbox = append(a.outbox, m)
	a.outMu.Unlock()
	select {
	case a.outKick <- struct{}{}:
	default:
	}
}

// upstreamWriter drains the outbox onto the live upstream connection
// in FIFO order. Messages drained while no agent link is up are
// dropped, matching the old synchronous behavior: results lost this
// way are covered by the forwarder's redelivery after reconnect.
func (a *Agent) upstreamWriter() {
	defer a.wg.Done()
	for {
		select {
		case <-a.outKick:
		case <-a.ctx.Done():
			return
		}
		for {
			a.outMu.Lock()
			msgs := a.outbox
			a.outbox = nil
			a.outMu.Unlock()
			if len(msgs) == 0 {
				break
			}
			a.mu.Lock()
			conn := a.upstream
			a.mu.Unlock()
			if conn == nil {
				continue // drop the batch; redelivery covers results
			}
			for _, m := range msgs {
				conn.Send(m) //nolint:errcheck
			}
		}
	}
}

// heartbeatLoop sends agent heartbeats + status upstream and runs the
// manager watchdog.
func (a *Agent) heartbeatLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.cfg.HeartbeatPeriod)
	defer ticker.Stop()
	lastCheck := time.Now()
	for {
		select {
		case <-ticker.C:
			a.mu.Lock()
			connected := a.upstream != nil
			a.mu.Unlock()
			if connected {
				// Enqueued, not sent inline: a saturated upstream link
				// must delay the beats, not the watchdog below.
				a.enqueueUpstream(transport.Message{Type: transport.MsgHeartbeat, Payload: []byte(a.cfg.ID)})
				a.enqueueUpstream(transport.Message{Type: transport.MsgStatus, Payload: wire.EncodeStatus(a.Status())})
			}
			// The watchdog reads a manager's silence as its death, which
			// holds only while this process was running to hear it. A
			// check that comes late (a suspended VM, a starved
			// scheduler) restarts every manager's clock instead: what
			// they sent meanwhile is still queued, and a manager dropped
			// here never comes back.
			a.watchdog(time.Since(lastCheck) > 2*a.cfg.HeartbeatPeriod)
			lastCheck = time.Now()
		case <-a.ctx.Done():
			return
		}
	}
}

// watchdog detects managers whose heartbeats stopped and re-queues
// their outstanding tasks for re-execution (§4.3). After a stall of
// the agent's own it finds nobody lost and counts every manager's
// silence from now.
func (a *Agent) watchdog(stalled bool) {
	now := time.Now()
	cutoff := now.Add(-time.Duration(a.cfg.HeartbeatMisses) * a.cfg.HeartbeatPeriod)
	var lost []*managerState
	a.mu.Lock()
	for id, m := range a.managers {
		if stalled {
			m.lastSeen = now
		}
		if m.lastSeen.Before(cutoff) {
			lost = append(lost, m)
			delete(a.managers, id)
		}
	}
	for _, m := range lost {
		a.log.Warn("manager lost", "manager_id", string(m.id), "outstanding", len(m.outstanding))
		for _, v := range m.outstanding {
			t := v.Head
			if t.AtMostOnce || (a.cfg.MaxAttempts > 0 && t.Attempt >= a.cfg.MaxAttempts) {
				// Permanent failure: at-most-once tasks must never be
				// re-executed after their manager is presumed dead (it
				// may still be running them), and retryable tasks give
				// up once the attempt budget is spent. The Lost result
				// lands the task as TaskLost at the service.
				reason := fmt.Sprintf(`{"message":"task lost: manager %s failed after %d attempts"}`, m.id, t.Attempt)
				if t.AtMostOnce {
					reason = fmt.Sprintf(`{"message":"task lost: manager %s failed and the task is at-most-once"}`, m.id)
				}
				a.completed++
				delete(a.inflight, t.ID)
				// enqueueUpstream never blocks, so calling under a.mu
				// is safe.
				a.enqueueUpstream(transport.Message{Type: transport.MsgResult, Payload: wire.EncodeResult(&types.Result{
					TaskID:    t.ID,
					Err:       reason,
					Lost:      true,
					Completed: time.Now(),
				})})
				a.log.Warn("task lost", "task_id", string(t.ID), "manager_id", string(m.id), "attempt", t.Attempt, "at_most_once", t.AtMostOnce, "trace_id", traceIDOf(t))
				continue
			}
			// The one field the agent changes on a task: the frame it
			// received says the old attempt, so this one is re-encoded.
			v = v.WithAttempt(t.Attempt + 1)
			a.requeued++
			a.log.Debug("task requeued after manager loss", "task_id", string(t.ID), "manager_id", string(m.id), "attempt", v.Head.Attempt, "trace_id", traceIDOf(t))
			// Head-of-queue so recovered tasks run first.
			a.queue = append([]wire.TaskView{v}, a.queue...)
		}
	}
	a.mu.Unlock()
	for _, m := range lost {
		m.conn.Close()
	}
	if len(lost) > 0 {
		a.schedule()
	}
}

// --- manager side ---

func (a *Agent) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.wg.Add(1)
		go a.manageConn(conn)
	}
}

// manageConn handles one manager connection for its lifetime.
func (a *Agent) manageConn(conn transport.Conn) {
	defer a.wg.Done()
	// First message must be a registration.
	msg, err := conn.Recv(10 * time.Second)
	if err != nil || msg.Type != transport.MsgRegister {
		conn.Close()
		return
	}
	reg, err := wire.DecodeRegistration(msg.Payload)
	if err != nil || reg.ManagerID == "" {
		conn.Close()
		return
	}
	st := &managerState{
		id:          reg.ManagerID,
		conn:        conn,
		lastSeen:    time.Now(),
		outstanding: make(map[types.TaskID]wire.TaskView),
	}
	a.mu.Lock()
	a.managers[reg.ManagerID] = st
	a.mu.Unlock()
	a.log.Info("manager registered", "manager_id", string(reg.ManagerID))

	for {
		msg, err := conn.Recv(0)
		if err != nil {
			// Connection gone; the watchdog reclaims outstanding
			// tasks after missed heartbeats (do not reclaim
			// instantly: transient transport hiccups and manager
			// restarts share this path).
			return
		}
		a.mu.Lock()
		st.lastSeen = time.Now()
		a.mu.Unlock()
		// Frames the agent relays or absorbs from a manager; the rest
		// are manager-bound or handshake-only.
		//funcx:exhaustive funcx/internal/transport.MsgType ignore=MsgRegister,MsgRegisterAck,MsgTask,MsgTaskBatch,MsgTaskRequest,MsgSuspend,MsgShutdown,MsgStatus,MsgAdvice
		switch msg.Type {
		case transport.MsgHeartbeat:
			// lastSeen already refreshed.
		case transport.MsgCapacity:
			cap, err := wire.DecodeCapacity(msg.Payload)
			if err != nil {
				transport.WarnUndecodable(a.log, "manager", conn, msg, err)
				continue
			}
			a.mu.Lock()
			st.capacity = cap
			st.budget = a.capacityBudget(cap)
			st.awaitingAdvert = false
			a.mu.Unlock()
			a.schedule()
		case transport.MsgRunning:
			// Worker began executing: relay toward the service so it
			// can emit TaskRunning and extend the dispatch lease.
			a.enqueueUpstream(msg)
		case transport.MsgResult:
			res, err := wire.DecodeResult(msg.Payload)
			if err != nil {
				transport.WarnUndecodable(a.log, "manager", conn, msg, err)
				continue
			}
			a.finish(st, res, msg.Payload)
		}
	}
}

// capacityBudget converts an advertisement into a dispatch budget.
func (a *Agent) capacityBudget(c *types.Capacity) int {
	n := c.Slots + c.Prefetch
	for _, f := range c.Free {
		n += f
	}
	return n
}

// finish processes a result from a manager: stamps TE timing, clears
// bookkeeping, forwards upstream. frame is the manager's encoding of
// res, which Send handed over: the stamps go into it where it lies and
// the same bytes travel on.
func (a *Agent) finish(st *managerState, res *types.Result, frame []byte) {
	var traceID string
	a.mu.Lock()
	delete(st.outstanding, res.TaskID)
	if fl, ok := a.inflight[res.TaskID]; ok {
		traceID = fl.traceID
		delete(a.inflight, res.TaskID)
		// TE: time inside the endpoint excluding execution (§5.1).
		te := time.Since(fl.arrived) - res.Timing.TW
		if te < 0 {
			te = 0
		}
		res.Timing.TE = te
		if res.Trace != nil {
			// Agent-queue trace delta: endpoint time outside the
			// manager and worker, measured on this machine's clock.
			aq := te - res.Trace.ManagerQueue
			if aq < 0 {
				aq = 0
			}
			res.Trace.AgentQueue = aq
		}
	}
	a.completed++
	a.mu.Unlock()
	a.log.Debug("task completed", "task_id", string(res.TaskID), "manager_id", string(st.id), "failed", res.Err != "", "trace_id", traceID)
	a.enqueueUpstream(transport.Message{Type: transport.MsgResult, Payload: wire.RestampResult(frame, res)})
}

// schedule drains the internal queue onto managers using the greedy
// randomized algorithm of §4.5: prefer managers with a matching
// deployed container, then any manager with free capacity, choosing
// randomly among candidates.
func (a *Agent) schedule() {
	type dispatch struct {
		st    *managerState
		tasks []wire.TaskView
	}
	var plan []dispatch

	a.mu.Lock()
	byManager := make(map[types.ManagerID]*dispatch)
	var order []types.ManagerID
	// What stays queued is compacted in place: a deep queue is walked
	// on every arrival, and must not be copied on every arrival too.
	remaining := a.queue[:0]
	for _, t := range a.queue {
		st := a.pickManagerLocked(t.Head)
		if st == nil {
			remaining = append(remaining, t)
			continue
		}
		st.budget--
		if !a.cfg.BatchDispatch {
			st.awaitingAdvert = true
		}
		st.outstanding[t.Head.ID] = t
		d := byManager[st.id]
		if d == nil {
			d = &dispatch{st: st}
			byManager[st.id] = d
			order = append(order, st.id)
		}
		d.tasks = append(d.tasks, t)
	}
	clear(a.queue[len(remaining):]) // let go of the frames that left
	a.queue = remaining
	for _, id := range order {
		plan = append(plan, *byManager[id])
	}
	a.mu.Unlock()

	for _, d := range plan {
		// Each task leaves as the frame it arrived in; a batch is those
		// frames joined.
		msg := transport.Message{Type: transport.MsgTask, Payload: d.tasks[0].Raw}
		if len(d.tasks) > 1 {
			var room [16][]byte // a manager's advertised capacity is a few tasks
			frames := room[:0]
			for _, t := range d.tasks {
				frames = append(frames, t.Raw)
			}
			msg = transport.Message{Type: transport.MsgTaskBatch, Payload: wire.JoinTasks(frames)}
		}
		if err := d.st.conn.Send(msg); err != nil {
			// Manager connection failed mid-dispatch: requeue; the
			// watchdog will clean up the manager itself.
			a.mu.Lock()
			for _, t := range d.tasks {
				delete(d.st.outstanding, t.Head.ID)
				a.queue = append(a.queue, t)
			}
			a.mu.Unlock()
		}
	}
}

// pickManagerLocked selects a manager for one task, or nil when none
// has capacity. Caller holds a.mu.
func (a *Agent) pickManagerLocked(t *types.Task) *managerState {
	key := t.Container.Key()
	var warm, cold []*managerState // warm: matching container deployed
	for _, m := range a.managers {
		if m.suspended || m.capacity == nil || m.budget <= 0 || m.awaitingAdvert {
			continue
		}
		if m.capacity.Free[key] > 0 {
			warm = append(warm, m)
		} else {
			cold = append(cold, m)
		}
	}
	candidates := warm
	if len(candidates) == 0 {
		candidates = cold
	}
	if len(candidates) == 0 {
		return nil
	}
	switch a.cfg.Policy {
	case ScheduleFirstFit:
		return candidates[0]
	case ScheduleRoundRobin:
		a.rrCursor++
		return candidates[a.rrCursor%len(candidates)]
	default: // ScheduleRandom
		return candidates[a.rng.Intn(len(candidates))]
	}
}

// SuspendManager stops scheduling new tasks to a manager (used before
// scale-in; paper §4.3: the agent can "suspend managers to prevent
// further tasks being scheduled to them").
func (a *Agent) SuspendManager(id types.ManagerID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, ok := a.managers[id]
	if !ok {
		return errors.New("endpoint: unknown manager")
	}
	m.suspended = true
	return nil
}

// ManagerIDs lists the registered managers.
func (a *Agent) ManagerIDs() []types.ManagerID {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]types.ManagerID, 0, len(a.managers))
	for id := range a.managers {
		ids = append(ids, id)
	}
	return ids
}

// OutstandingAt returns how many tasks are outstanding at one manager.
func (a *Agent) OutstandingAt(id types.ManagerID) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, ok := a.managers[id]
	if !ok {
		return 0
	}
	return len(m.outstanding)
}
