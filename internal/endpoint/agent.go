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
	"slices"
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
	// pending is what the scheduling pass in progress assigned here and
	// has not sent yet. Only scheduleLoop touches it; its storage is
	// reused from pass to pass.
	pending []wire.TaskView
}

// eligible reports whether the manager may be sent a task now. It does
// not depend on the task: see Agent.schedule.
func (m *managerState) eligible() bool {
	return !m.suspended && m.capacity != nil && m.budget > 0 && !m.awaitingAdvert
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
	task    *types.Task
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

	// schedKick wakes scheduleLoop, the one goroutine that assigns
	// queued tasks to managers and sends them. Like the outbox above it
	// keeps a manager link that stopped draining from blocking the
	// goroutines that read frames or run the watchdog; it also puts the
	// sends to one manager in queue order and gives the passes one set
	// of scratch buffers to reuse.
	schedKick chan struct{}

	mu        sync.Mutex
	upstream  transport.Conn
	connected bool
	managers  map[types.ManagerID]*managerState
	// order lists the managers in registration order, which is the order
	// the scheduler considers them in: "first" (first-fit) and the
	// round-robin rotation mean the same thing on every call.
	order []*managerState
	// queue holds each task as the frame it arrived in, which is what a
	// manager is sent.
	queue    taskQueue
	inflight map[types.TaskID]*arrivedTask
	rng      *rand.Rand
	rrCursor int
	// starved: the last pass ended with no eligible manager, and no
	// capacity advertisement (the only thing that makes one eligible)
	// has arrived since, so arrivals need no pass.
	starved bool
	// Scratch of the scheduling pass, kept between passes: the eligible
	// managers, which of them are warm for the task in hand, the
	// managers with something pending and the frames of one batch.
	candidates []*managerState
	warm       []int
	touched    []*managerState
	frames     [][]byte
	// passes and evals count scheduling passes that got past the O(1)
	// checks and the managers they examined. Tests hold the scheduler's
	// cost to them; they are no metric.
	passes int64
	evals  int64
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
		cfg:       cfg,
		log:       logger.With("endpoint_id", string(cfg.ID)),
		managers:  make(map[types.ManagerID]*managerState),
		inflight:  make(map[types.TaskID]*arrivedTask),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		outKick:   make(chan struct{}, 1),
		schedKick: make(chan struct{}, 1),
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
	a.wg.Add(4)
	go a.acceptLoop()
	go a.heartbeatLoop()
	go a.upstreamWriter()
	go a.scheduleLoop()
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
	return a.queue.Len()
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
		QueuedTasks:      a.queue.Len(),
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
			a.enqueue(vs...)
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

// enqueue accepts the tasks of one upstream frame into the internal
// queue: one lock acquisition, one clock reading and at most one
// scheduling pass per frame, whatever it carries.
func (a *Agent) enqueue(vs ...wire.TaskView) {
	a.mu.Lock()
	now := time.Now()
	a.received += int64(len(vs))
	a.queue.grow(len(vs))
	for _, v := range vs {
		a.queue.PushBack(v)
		a.inflight[v.Head.ID] = &arrivedTask{task: v.Head, arrived: now}
	}
	kick := a.wantPassLocked()
	a.mu.Unlock()
	// Asked once per frame, not per task: a disabled Debug call still
	// boxes its arguments.
	if a.log.Enabled(context.Background(), slog.LevelDebug) {
		for _, v := range vs {
			t := v.Head
			a.log.Debug("task received", "task_id", string(t.ID), "function_id", string(t.FunctionID), "attempt", t.Attempt, "trace_id", traceIDOf(t))
		}
	}
	if kick {
		a.kickSchedule()
	}
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
	for _, m := range a.order {
		if stalled {
			m.lastSeen = now
		}
		if m.lastSeen.Before(cutoff) {
			lost = append(lost, m)
			delete(a.managers, m.id)
		}
	}
	if len(lost) > 0 {
		a.order = slices.DeleteFunc(a.order, func(m *managerState) bool { return a.managers[m.id] != m })
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
			if a.log.Enabled(context.Background(), slog.LevelDebug) {
				a.log.Debug("task requeued after manager loss", "task_id", string(t.ID), "manager_id", string(m.id), "attempt", v.Head.Attempt, "trace_id", traceIDOf(t))
			}
			// Head-of-queue so recovered tasks run first.
			a.queue.PushFront(v)
		}
		// A send to this manager that is failing right now finds nothing
		// left to requeue a second time (sendPending).
		clear(m.outstanding)
	}
	a.mu.Unlock()
	for _, m := range lost {
		m.conn.Close()
	}
	if len(lost) > 0 {
		a.kickSchedule()
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
	if old := a.managers[reg.ManagerID]; old != nil {
		// The same id registering again takes its predecessor's place.
		a.order[slices.Index(a.order, old)] = st
	} else {
		a.order = append(a.order, st)
	}
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
			a.starved = false
			kick := a.wantPassLocked()
			a.mu.Unlock()
			if kick {
				a.kickSchedule()
			}
		case transport.MsgRunning:
			// Worker began executing: relay toward the service so it
			// can emit TaskRunning and extend the dispatch lease.
			a.enqueueUpstream(msg)
		case transport.MsgResult:
			v, err := wire.ViewResult(msg.Payload)
			if err != nil {
				transport.WarnUndecodable(a.log, "manager", conn, msg, err)
				continue
			}
			a.finish(st, &v)
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
// bookkeeping, forwards upstream. v views the manager's frame, which
// Send handed over: the stamps go into it where they lie and the same
// bytes travel on.
func (a *Agent) finish(st *managerState, v *wire.ResultView) {
	var task *types.Task
	a.mu.Lock()
	// Each delete is by the key its map holds: a key converted from the
	// frame's bytes would be a copy, where a lookup by them is not.
	if sent, ok := st.outstanding[types.TaskID(v.TaskID)]; ok {
		delete(st.outstanding, sent.Head.ID)
	}
	if fl, ok := a.inflight[types.TaskID(v.TaskID)]; ok {
		task = fl.task
		delete(a.inflight, task.ID)
		// TE: time inside the endpoint excluding execution (§5.1).
		te := time.Since(fl.arrived) - v.Timing.TW
		if te < 0 {
			te = 0
		}
		v.Timing.TE = te
		if v.Traced {
			// Agent-queue trace delta: endpoint time outside the
			// manager and worker, measured on this machine's clock.
			aq := te - v.Trace.ManagerQueue
			if aq < 0 {
				aq = 0
			}
			v.Trace.AgentQueue = aq
		}
	}
	a.completed++
	a.mu.Unlock()
	if a.log.Enabled(context.Background(), slog.LevelDebug) {
		a.log.Debug("task completed", "task_id", string(v.TaskID), "manager_id", string(st.id), "failed", v.Failed, "trace_id", traceIDOf(task))
	}
	a.enqueueUpstream(transport.Message{Type: transport.MsgResult, Payload: v.Restamp()})
}

// wantPassLocked is the O(1) part of scheduling: a pass can dispatch
// something only if a task is queued and some manager may be eligible.
// Caller holds a.mu.
func (a *Agent) wantPassLocked() bool {
	return a.queue.Len() > 0 && !a.starved
}

// kickSchedule asks scheduleLoop for a pass. It never blocks; kicks
// that arrive while a pass runs fold into one further pass.
func (a *Agent) kickSchedule() {
	select {
	case a.schedKick <- struct{}{}:
	default:
	}
}

// scheduleLoop runs the scheduling passes, one at a time.
func (a *Agent) scheduleLoop() {
	defer a.wg.Done()
	for {
		select {
		case <-a.schedKick:
			a.schedule()
		case <-a.ctx.Done():
			return
		}
	}
}

// schedule is one scheduling pass: it moves tasks from the head of the
// internal queue onto managers by the greedy randomized algorithm of
// §4.5 — prefer a manager with the task's container deployed, then any
// manager with free capacity, choosing among those by the configured
// policy — and sends each manager what it was assigned, one frame per
// manager (§4.7's executor-side batching).
//
// Whether any manager can take a task does not depend on the task: a
// cold manager takes any container type, so "no manager for this task"
// means "no eligible manager" (managerState.eligible), and then none of
// the tasks queued behind it has one either. The pass therefore builds
// the eligible set once, in registration order, and runs "while the
// head of the queue has a manager: pop, assign", dropping a manager
// from the set when its budget is spent (or, without BatchDispatch,
// after its one task); it ends when the set or the queue is empty and
// never looks at a task it does not dispatch. Cost: O(1) when nothing
// is queued or the last pass starved and no advertisement came since,
// otherwise O(managers + dispatched × eligible), at any queue depth,
// with no allocation beyond the joined batch frames. Should
// eligibility ever come to depend on the task, the loop below is the
// one place that assumes otherwise: it would have to skip the head, not
// stop at it.
//
// Only scheduleLoop calls it, so passes do not overlap and a manager
// receives its tasks in queue order.
func (a *Agent) schedule() {
	for a.assign() {
		if a.sendPending() {
			return
		}
		// A send failed and its tasks are back at the head of the queue:
		// give them to the managers that are left.
	}
}

// assign is the locked half of a pass: it fills managerState.pending
// and a.touched, and reports whether anything was assigned.
func (a *Agent) assign() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.wantPassLocked() {
		return false
	}
	a.passes++
	a.evals += int64(len(a.order))
	candidates := a.candidates[:0]
	for _, m := range a.order {
		if m.eligible() {
			candidates = append(candidates, m)
		}
	}
	for a.queue.Len() > 0 && len(candidates) > 0 {
		t := a.queue.PopFront()
		i := a.pickLocked(candidates, t.Head.Container.Key())
		m := candidates[i]
		m.budget--
		if !a.cfg.BatchDispatch {
			m.awaitingAdvert = true
		}
		if !m.eligible() {
			candidates = slices.Delete(candidates, i, i+1)
		}
		m.outstanding[t.Head.ID] = t
		if len(m.pending) == 0 {
			a.touched = append(a.touched, m)
		}
		m.pending = append(m.pending, t)
	}
	a.starved = len(candidates) == 0
	clear(candidates) // the scratch holds no manager between passes
	a.candidates = candidates[:0]
	return len(a.touched) > 0
}

// pickLocked chooses among the eligible managers for a task of the
// given container key and returns the choice's index: warm-first (the
// container already deployed), then the configured policy. candidates
// is not empty. Caller holds a.mu.
func (a *Agent) pickLocked(candidates []*managerState, key string) int {
	a.evals += int64(len(candidates))
	warm := a.warm[:0]
	for i, m := range candidates {
		if m.capacity.Free[key] > 0 {
			warm = append(warm, i)
		}
	}
	a.warm = warm
	n := len(warm)
	if n == 0 {
		n = len(candidates)
	}
	var k int
	switch a.cfg.Policy {
	case ScheduleFirstFit:
		k = 0
	case ScheduleRoundRobin:
		a.rrCursor++
		k = a.rrCursor % n
	default: // ScheduleRandom
		k = a.rng.Intn(n)
	}
	if len(warm) > 0 {
		return warm[k]
	}
	return k
}

// sendPending is the unlocked half of a pass: each touched manager is
// sent what it was assigned, a task as the frame it arrived in and
// several as those frames joined. It reports whether every send went
// through. The tasks of a failed send go back to the head of the queue,
// in their order (they are older than everything queued), and the
// manager gets nothing more until it advertises again; the watchdog
// cleans up the manager itself.
func (a *Agent) sendPending() bool {
	ok := true
	for _, m := range a.touched {
		msg := transport.Message{Type: transport.MsgTask, Payload: m.pending[0].Raw}
		if len(m.pending) > 1 {
			for _, t := range m.pending {
				a.frames = append(a.frames, t.Raw)
			}
			msg = transport.Message{Type: transport.MsgTaskBatch, Payload: wire.JoinTasks(a.frames)}
			clear(a.frames)
			a.frames = a.frames[:0]
		}
		if err := m.conn.Send(msg); err != nil {
			ok = false
			a.mu.Lock()
			m.budget = 0
			for _, t := range slices.Backward(m.pending) {
				// Not the ones the watchdog took back meanwhile.
				if _, mine := m.outstanding[t.Head.ID]; mine {
					delete(m.outstanding, t.Head.ID)
					a.queue.PushFront(t)
				}
			}
			a.mu.Unlock()
		}
		clear(m.pending) // let go of the frames that left
		m.pending = m.pending[:0]
	}
	clear(a.touched)
	a.touched = a.touched[:0]
	return ok
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

// ManagerIDs lists the registered managers in registration order.
func (a *Agent) ManagerIDs() []types.ManagerID {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]types.ManagerID, 0, len(a.order))
	for _, m := range a.order {
		ids = append(ids, m.id)
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
