// Package manager implements the funcX manager (paper §4.3, §4.5): one
// per compute node, it represents and communicates on behalf of the
// collective capacity of that node's workers (limiting sockets to two
// per node), partitions the node among workers, deploys and manages
// containers on demand, advertises deployed container types and
// available capacity to the endpoint agent, and — with opportunistic
// prefetching (§4.7) — advertises anticipated near-future capacity so
// communication interleaves with computation.
package manager

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"funcx/internal/container"
	"funcx/internal/fx"
	"funcx/internal/transport"
	"funcx/internal/types"
	"funcx/internal/wire"
	"funcx/internal/worker"
)

// Config parameterizes a manager.
type Config struct {
	// ID names the manager; autogenerated when empty.
	ID types.ManagerID
	// AgentNetwork/AgentAddr locate the endpoint agent's listener.
	AgentNetwork string
	AgentAddr    string
	// MaxWorkers is the node's worker slots (cores); default 4.
	MaxWorkers int
	// DefaultContainer is deployed for tasks that do not request a
	// container.
	DefaultContainer types.ContainerSpec
	// PrewarmWorkers deploys this many DefaultContainer workers at
	// startup (0 = deploy all on demand).
	PrewarmWorkers int
	// Prefetch is the number of tasks the manager will buffer beyond
	// idle workers (0 disables prefetching).
	Prefetch int
	// HeartbeatPeriod is the interval of heartbeats to the agent.
	HeartbeatPeriod time.Duration
	// Runtime executes function bodies (shared with other managers).
	Runtime *fx.Runtime
	// Containers is the node-local container runtime.
	Containers *container.Runtime
	// Logger receives the manager's structured logs, each carrying the
	// manager id. Nil means slog.Default().
	Logger *slog.Logger
}

// Manager runs the node-side of the funcX agent protocol.
type Manager struct {
	cfg  Config
	id   types.ManagerID
	log  *slog.Logger
	conn transport.Conn

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	workers map[types.WorkerID]*worker.Worker
	nextWID int
	// backlog holds tasks accepted beyond idle workers (prefetch
	// buffer and container-deployment queue).
	backlog []*types.Task
	// inflight counts tasks handed to workers but not yet completed.
	inflight int
	killed   bool
	// traceArrived records the local arrival time of sampled tasks so
	// the manager-queue trace delta can be measured on this node's
	// clock alone.
	traceArrived map[types.TaskID]time.Time

	results chan worker.Outcome

	// stats
	completed int64
}

// New creates a manager; Start connects and runs it.
func New(cfg Config) *Manager {
	if cfg.ID == "" {
		cfg.ID = types.ManagerID("mgr-" + string(types.NewUUID())[:8])
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = 4
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = time.Second
	}
	if cfg.Runtime == nil {
		cfg.Runtime = fx.NewRuntime()
	}
	if cfg.Containers == nil {
		cfg.Containers = container.NewRuntime(container.Config{System: "local"})
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Manager{
		cfg:          cfg,
		id:           cfg.ID,
		log:          logger.With("manager_id", string(cfg.ID)),
		workers:      make(map[types.WorkerID]*worker.Worker),
		results:      make(chan worker.Outcome, cfg.MaxWorkers*2+8),
		traceArrived: make(map[types.TaskID]time.Time),
	}
}

// ID returns the manager id.
func (m *Manager) ID() types.ManagerID { return m.id }

// Start connects to the agent, registers, optionally prewarms workers,
// and launches the receive/result/heartbeat loops.
func (m *Manager) Start(ctx context.Context) error {
	conn, err := transport.Dial(m.cfg.AgentNetwork, m.cfg.AgentAddr, string(m.id))
	if err != nil {
		return fmt.Errorf("manager %s: %w", m.id, err)
	}
	m.conn = conn
	m.ctx, m.cancel = context.WithCancel(ctx)

	// Prewarm: deploy default-container workers before registering so
	// the first capacity advertisement reflects them.
	for i := 0; i < m.cfg.PrewarmWorkers && i < m.cfg.MaxWorkers; i++ {
		if _, err := m.deployWorker(m.cfg.DefaultContainer); err != nil {
			return fmt.Errorf("manager %s: prewarm: %w", m.id, err)
		}
	}

	reg := &wire.Registration{
		ManagerID:  m.id,
		Workers:    len(m.workers),
		Containers: m.containerKeys(),
	}
	if err := conn.Send(transport.Message{Type: transport.MsgRegister, Payload: wire.EncodeRegistration(reg)}); err != nil {
		return fmt.Errorf("manager %s: register: %w", m.id, err)
	}

	m.wg.Add(3)
	go m.recvLoop()
	go m.resultLoop()
	go m.heartbeatLoop()
	m.advertise()
	return nil
}

// Stop shuts the manager down cleanly, stopping workers after
// in-flight tasks complete.
func (m *Manager) Stop() {
	if m.cancel != nil {
		m.cancel()
	}
	if m.conn != nil {
		m.conn.Close()
	}
	m.mu.Lock()
	ws := make([]*worker.Worker, 0, len(m.workers))
	for _, w := range m.workers {
		ws = append(ws, w)
	}
	m.mu.Unlock()
	for _, w := range ws {
		w.Stop()
	}
	m.wg.Wait()
}

// Kill abruptly terminates the manager, abandoning queued and running
// tasks — the failure injected in the Figure 7 experiment. The agent's
// watchdog detects the loss via missed heartbeats and re-executes.
func (m *Manager) Kill() {
	m.mu.Lock()
	m.killed = true
	m.mu.Unlock()
	if m.cancel != nil {
		m.cancel()
	}
	if m.conn != nil {
		m.conn.Close()
	}
}

// Completed returns the number of tasks finished by this manager.
func (m *Manager) Completed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completed
}

// WorkerCount returns the number of deployed workers.
func (m *Manager) WorkerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers)
}

func (m *Manager) containerKeys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]bool{}
	var keys []string
	for _, w := range m.workers {
		k := w.Container.Spec.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// recvLoop handles messages from the agent.
func (m *Manager) recvLoop() {
	defer m.wg.Done()
	for {
		msg, err := m.conn.Recv(0)
		if err != nil {
			return // connection closed (Stop/Kill or agent gone)
		}
		// Frames a manager accepts from its agent; the rest flow
		// upstream (manager->agent->forwarder) or are handshake-only.
		//funcx:exhaustive funcx/internal/transport.MsgType ignore=MsgRegister,MsgRegisterAck,MsgResult,MsgCapacity,MsgTaskRequest,MsgSuspend,MsgStatus,MsgAdvice,MsgRunning
		switch msg.Type {
		case transport.MsgTask:
			t, err := wire.DecodeTask(msg.Payload)
			if err != nil {
				transport.WarnUndecodable(m.log, "agent", m.conn, msg, err)
				continue
			}
			if m.accept(t) {
				m.advertise()
			}
		case transport.MsgTaskBatch:
			ts, err := wire.DecodeTasks(msg.Payload)
			if err != nil {
				transport.WarnUndecodable(m.log, "agent", m.conn, msg, err)
				continue
			}
			// One advertisement for the frame, not one per task of it:
			// each would report a capacity the next supersedes.
			started := false
			for _, t := range ts {
				if m.accept(t) {
					started = true
				}
			}
			if started {
				m.advertise()
			}
		case transport.MsgHeartbeat:
			// Agent liveness probe; connection-level receipt is enough.
		case transport.MsgShutdown:
			go m.Stop()
			return
		}
	}
}

// accept routes one task: to an idle worker with a matching container,
// else deploys a worker on demand (§4.5), else buffers in the backlog.
// It reports whether a worker took the task, which changes what the
// manager should advertise.
func (m *Manager) accept(t *types.Task) bool {
	spec := t.Container
	if spec.IsZero() {
		spec = m.cfg.DefaultContainer
	}
	m.mu.Lock()
	if t.Traced() {
		m.traceArrived[t.ID] = time.Now()
	}
	w := m.idleWorkerLocked(spec)
	if w == nil && len(m.workers) < m.cfg.MaxWorkers {
		m.mu.Unlock()
		// Deploy outside the lock: cold starts can take seconds.
		nw, err := m.deployWorker(spec)
		m.mu.Lock()
		if err == nil {
			w = nw
		}
	}
	if w == nil {
		// No matching idle worker and node full: evict an idle
		// worker of another container type if one exists.
		if victim := m.idleWorkerAnyLocked(); victim != nil {
			m.removeWorkerLocked(victim)
			m.mu.Unlock()
			m.cfg.Containers.Release(victim.Container)
			nw, err := m.deployWorker(spec)
			m.mu.Lock()
			if err == nil {
				w = nw
			}
		}
	}
	if w != nil && w.TrySubmit(t) {
		m.inflight++
		m.mu.Unlock()
		return true
	}
	m.backlog = append(m.backlog, t)
	m.mu.Unlock()
	return false
}

// idleWorkerLocked finds an idle worker whose container matches spec.
func (m *Manager) idleWorkerLocked(spec types.ContainerSpec) *worker.Worker {
	key := spec.Key()
	for _, w := range m.workers {
		if !w.Busy() && !w.Stopped() && w.Container.Spec.Key() == key {
			return w
		}
	}
	return nil
}

func (m *Manager) idleWorkerAnyLocked() *worker.Worker {
	for _, w := range m.workers {
		if !w.Busy() && !w.Stopped() {
			return w
		}
	}
	return nil
}

func (m *Manager) removeWorkerLocked(w *worker.Worker) {
	w.Stop()
	delete(m.workers, w.ID)
}

// deployWorker acquires a container (warm pool or cold start) and
// starts a worker in it.
func (m *Manager) deployWorker(spec types.ContainerSpec) (*worker.Worker, error) {
	inst := m.cfg.Containers.Acquire(spec)
	m.mu.Lock()
	if len(m.workers) >= m.cfg.MaxWorkers {
		m.mu.Unlock()
		m.cfg.Containers.Release(inst)
		return nil, fmt.Errorf("manager %s: node full", m.id)
	}
	m.nextWID++
	wid := types.WorkerID(fmt.Sprintf("%s-w%d", m.id, m.nextWID))
	w := worker.New(wid, inst, m.cfg.Runtime, m.results)
	w.OnStart = func(t *types.Task) { m.reportRunning(t, wid) }
	m.workers[wid] = w
	m.mu.Unlock()
	w.Start(m.ctx)
	return w, nil
}

// reportRunning relays a worker's execution-start signal to the agent
// (best effort: a dead connection is handled by recvLoop exit, and the
// dispatch lease simply runs on heartbeat config alone).
func (m *Manager) reportRunning(t *types.Task, wid types.WorkerID) {
	start := &wire.TaskStart{TaskID: t.ID, WorkerID: wid, ManagerID: m.id}
	m.conn.Send(transport.Message{Type: transport.MsgRunning, Payload: wire.EncodeTaskStart(start)}) //nolint:errcheck
}

// resultLoop forwards worker outcomes upstream and drains the backlog.
// A periodic tick also drains the backlog so tasks buffered while all
// workers raced container deployment cannot strand.
func (m *Manager) resultLoop() {
	defer m.wg.Done()
	drain := time.NewTicker(m.cfg.HeartbeatPeriod / 4)
	defer drain.Stop()
	for {
		select {
		case out := <-m.results:
			m.mu.Lock()
			m.inflight--
			m.completed++
			arrived, tracked := m.traceArrived[out.Task.ID]
			delete(m.traceArrived, out.Task.ID)
			m.mu.Unlock()
			if tracked && out.Result.Trace != nil {
				// Manager-queue delta: node-local time from acceptance
				// to execution start ((completed − arrived) − exec,
				// clamped: both ends on this machine's clock).
				//funcx:ignore clockdiscipline worker and manager share a process: Completed never crossed a wire here, so both ends of the Sub are on this clock.
				mq := out.Result.Completed.Sub(arrived) - out.Result.Trace.Exec
				if mq < 0 {
					mq = 0
				}
				out.Result.Trace.ManagerQueue = mq
			}
			payload := wire.EncodeResult(out.Result)
			if err := m.conn.Send(transport.Message{Type: transport.MsgResult, Payload: payload}); err != nil {
				return
			}
			m.drainBacklog()
			m.advertise()
		case <-drain.C:
			m.drainBacklog()
		case <-m.ctx.Done():
			return
		}
	}
}

// drainBacklog assigns buffered tasks to newly idle workers.
func (m *Manager) drainBacklog() {
	for {
		m.mu.Lock()
		if len(m.backlog) == 0 {
			m.mu.Unlock()
			return
		}
		t := m.backlog[0]
		spec := t.Container
		if spec.IsZero() {
			spec = m.cfg.DefaultContainer
		}
		w := m.idleWorkerLocked(spec)
		canDeploy := w == nil && len(m.workers) < m.cfg.MaxWorkers
		if w == nil && !canDeploy {
			m.mu.Unlock()
			return
		}
		m.backlog = m.backlog[1:]
		m.mu.Unlock()
		if w == nil {
			nw, err := m.deployWorker(spec)
			if err != nil {
				// Re-buffer and stop; a future completion retries.
				m.mu.Lock()
				m.backlog = append([]*types.Task{t}, m.backlog...)
				m.mu.Unlock()
				return
			}
			w = nw
		}
		if w.TrySubmit(t) {
			m.mu.Lock()
			m.inflight++
			m.mu.Unlock()
		} else {
			m.mu.Lock()
			m.backlog = append([]*types.Task{t}, m.backlog...)
			m.mu.Unlock()
			return
		}
	}
}

// heartbeatLoop sends liveness + capacity to the agent and prunes the
// warm container pool (container warming keeps idle containers for a
// bounded time, §4.7).
func (m *Manager) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := m.conn.Send(transport.Message{Type: transport.MsgHeartbeat, Payload: []byte(m.id)}); err != nil {
				return
			}
			m.cfg.Containers.PruneExpired(time.Now())
			m.advertise()
		case <-m.ctx.Done():
			return
		}
	}
}

// advertise sends the current capacity (idle workers per container key,
// free slots, and prefetch headroom) to the agent. With prefetching,
// managers continuously advertise anticipated capacity so that task
// delivery interleaves with computation (§4.7).
func (m *Manager) advertise() {
	cap := m.Capacity()
	payload := wire.EncodeCapacity(cap)
	// Ignore errors: a dead connection is handled by recvLoop exit.
	m.conn.Send(transport.Message{Type: transport.MsgCapacity, Payload: payload}) //nolint:errcheck
}

// Capacity snapshots the manager's advertised capacity.
func (m *Manager) Capacity() *types.Capacity {
	m.mu.Lock()
	defer m.mu.Unlock()
	free := make(map[string]int)
	for _, w := range m.workers {
		if !w.Busy() && !w.Stopped() {
			free[w.Container.Spec.Key()]++
		}
	}
	slots := m.cfg.MaxWorkers - len(m.workers)
	if slots < 0 {
		slots = 0
	}
	// Prefetch headroom beyond idle workers, less what is already
	// buffered.
	prefetch := m.cfg.Prefetch - len(m.backlog)
	if prefetch < 0 {
		prefetch = 0
	}
	return &types.Capacity{
		ManagerID: m.id,
		Free:      free,
		Slots:     slots,
		Prefetch:  prefetch,
		Total:     m.cfg.MaxWorkers,
	}
}
