// Package core assembles the complete funcX fabric — the cloud service
// with its REST API, per-endpoint forwarders, endpoint agents, node
// managers, containerized workers, and providers — into one bootable
// in-process federation. It is the programmatic equivalent of
// "deploy funcX": every experiment binary, example, and integration
// test builds its world through this package.
//
// The fabric exposes the seams the paper's evaluation needs: WAN
// latency injection (Table 1, Figure 4), manager and endpoint failure
// injection (Figures 7 and 8), elasticity via providers (Figure 6),
// container technology selection (Table 2), and the §4.7 optimization
// toggles (warming, batching, prefetching, memoization).
package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/container"
	"funcx/internal/endpoint"
	"funcx/internal/fx"
	"funcx/internal/manager"
	"funcx/internal/netlat"
	"funcx/internal/provider"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

// FabricConfig parameterizes the federation.
type FabricConfig struct {
	// Service configures the cloud service.
	Service service.Config
	// ClientLat optionally injects client↔service WAN latency into
	// every SDK built by Client (Table 1 setup).
	ClientLat *netlat.Link
}

// Fabric is a running in-process funcX federation.
type Fabric struct {
	Service *service.Service
	BaseURL string

	httpLn  net.Listener
	httpSrv *http.Server
	cfg     FabricConfig

	mu        sync.Mutex
	endpoints map[types.EndpointID]*Endpoint
}

// NewFabric boots the service and its REST listener.
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: listen: %w", err)
	}
	f, err := newFabricOn(ln, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return f, nil
}

// newFabricOn boots a service behind an already-bound listener — the
// seam the sharded fabric needs, since every shard's URL must be in
// the ring config before any shard's service exists. Boot can fail on
// a durable service (Config.DataDir) whose journal will not open or
// replay.
func newFabricOn(ln net.Listener, cfg FabricConfig) (*Fabric, error) {
	svc, err := service.Open(cfg.Service)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: svc}
	f := &Fabric{
		Service:   svc,
		BaseURL:   "http://" + ln.Addr().String(),
		httpLn:    ln,
		httpSrv:   srv,
		cfg:       cfg,
		endpoints: make(map[types.EndpointID]*Endpoint),
	}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	return f, nil
}

// Close tears the whole federation down.
func (f *Fabric) Close() {
	f.mu.Lock()
	eps := make([]*Endpoint, 0, len(f.endpoints))
	for _, ep := range f.endpoints {
		eps = append(eps, ep)
	}
	f.mu.Unlock()
	for _, ep := range eps {
		ep.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	f.httpSrv.Shutdown(ctx) //nolint:errcheck
	// Shutdown can leave connections attached that never returned to
	// idle within the grace period (SSE streams, lingering keep-alive
	// conns). Force-close them: after Close returns, NO request may
	// reach this dead instance — critical for sharded kill/restart,
	// where a client reusing a pooled connection must hit the NEW
	// instance bound to this address, not a zombie registry.
	f.httpSrv.Close() //nolint:errcheck
	f.Service.Close()
}

// Client builds an SDK client authenticated as uid with full scopes.
func (f *Fabric) Client(uid types.UserID) *sdk.Client {
	token := f.Service.MintUserToken(uid, auth.ScopeAll)
	c := sdk.New(f.BaseURL, token)
	c.Lat = f.cfg.ClientLat
	return c
}

// EndpointOptions shape one endpoint deployment.
type EndpointOptions struct {
	// Name is the registered endpoint name.
	Name string
	// Owner registers and owns the endpoint.
	Owner types.UserID
	// Public permits any authenticated user to dispatch.
	Public bool
	// Labels declare the endpoint's capabilities/locality for router
	// label matching (e.g. "gpu":"a100", "site":"anl").
	Labels map[string]string
	// Managers is the initial (static) manager count; elastic
	// endpoints may start at zero.
	Managers int
	// WorkersPerManager is the per-node worker slot count.
	WorkersPerManager int
	// Container is the default container spec deployed for tasks
	// that do not request one.
	Container types.ContainerSpec
	// System selects the container cold-start profile ("ec2",
	// "theta", "cori"; default "ec2").
	System string
	// ContainerTimeScale scales real cold-start sleeps (0 disables).
	ContainerTimeScale float64
	// SleepScale scales built-in sleep/stress durations (1 = real).
	SleepScale float64
	// PrewarmWorkers deploys this many workers per manager at start
	// (container warming, §4.7); the rest deploy on demand.
	PrewarmWorkers int
	// Prefetch is the per-manager prefetch depth (§4.7).
	Prefetch int
	// BatchDispatch enables executor-side batching (§4.7).
	BatchDispatch bool
	// Policy selects the agent scheduling policy.
	Policy endpoint.SchedulingPolicy
	// HeartbeatPeriod tunes failure detection granularity (default
	// 200 ms for experiments).
	HeartbeatPeriod time.Duration
	// HeartbeatMisses tunes loss detection (default 3).
	HeartbeatMisses int
	// MaxAttempts bounds re-execution after manager loss.
	MaxAttempts int
	// NoAdvice opts the endpoint out of service-pushed scaling advice
	// (the -no-advice endpoint flag): elasticity stays purely local.
	NoAdvice bool
	// Seed seeds endpoint-local randomness.
	Seed int64
}

func (o *EndpointOptions) setDefaults() {
	if o.Name == "" {
		o.Name = "endpoint"
	}
	if o.Owner == "" {
		o.Owner = "operator"
	}
	if o.Managers < 0 {
		o.Managers = 0
	}
	if o.WorkersPerManager <= 0 {
		o.WorkersPerManager = 4
	}
	if o.System == "" {
		o.System = "ec2"
	}
	if o.SleepScale == 0 {
		o.SleepScale = 1.0
	}
	if o.HeartbeatPeriod <= 0 {
		o.HeartbeatPeriod = 200 * time.Millisecond
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 3
	}
}

// Endpoint is one deployed endpoint: agent + managers + container
// runtime + function runtime, with failure-injection handles.
type Endpoint struct {
	ID    types.EndpointID
	Agent *endpoint.Agent
	// Runtime is the endpoint's function runtime; register function
	// implementations here (RegisterBuiltins is pre-applied).
	Runtime *fx.Runtime
	// Builtins maps builtin names to body hashes.
	Builtins map[string]string
	// Containers is the node container runtime shared by managers.
	Containers *container.Runtime

	fabric *Fabric
	opts   EndpointOptions
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	managers []*manager.Manager
	nextMgr  int

	// elasticity
	prov      provider.Provider
	scaler    *provider.Scaler
	elastDone chan struct{}
	blockMgrs map[string]*manager.Manager // "block/node" -> manager
}

// AddEndpoint registers and boots an endpoint with a static manager
// pool.
func (f *Fabric) AddEndpoint(opts EndpointOptions) (*Endpoint, error) {
	opts.setDefaults()
	ep, network, addr, token, err := f.Service.RegisterEndpoint(opts.Owner, opts.Name, "", opts.Public, opts.Labels)
	if err != nil {
		return nil, err
	}
	return f.bootEndpoint(ep.ID, network, addr, token, opts)
}

// AttachEndpoint boots an agent (plus managers, runtimes) for an
// endpoint whose *record* already exists on the service but whose
// runtime is gone — the re-attach after a crash recovery (the journal
// restored the registration; the agent process did not survive) or a
// shard handoff (the record moved to this shard; its agent must
// follow). Fresh credentials are minted via ReissueEndpointToken, so
// the caller must be the record's owner (or "" for trusted in-process
// harnesses).
func (f *Fabric) AttachEndpoint(id types.EndpointID, opts EndpointOptions) (*Endpoint, error) {
	opts.setDefaults()
	network, addr, token, err := f.Service.ReissueEndpointToken(opts.Owner, id)
	if err != nil {
		return nil, err
	}
	return f.bootEndpoint(id, network, addr, token, opts)
}

// bootEndpoint builds and starts the full endpoint stack — function
// runtime, container runtime, agent, managers — against an existing
// registration's forwarder attach point. Shared by AddEndpoint
// (fresh registration) and AttachEndpoint (re-attach).
func (f *Fabric) bootEndpoint(id types.EndpointID, network, addr, token string, opts EndpointOptions) (*Endpoint, error) {
	rt := fx.NewRuntime()
	rt.SleepScale = opts.SleepScale
	builtins := rt.RegisterBuiltins()

	ctrs := container.NewRuntime(container.Config{
		System:           opts.System,
		Seed:             opts.Seed + 101,
		TimeScale:        opts.ContainerTimeScale,
		ContentionFactor: contentionFor(opts.System),
	})

	agent := endpoint.New(endpoint.Config{
		ID:              id,
		ServiceNetwork:  network,
		ServiceAddr:     addr,
		Token:           token,
		ListenNetwork:   "inproc",
		HeartbeatPeriod: opts.HeartbeatPeriod,
		HeartbeatMisses: opts.HeartbeatMisses,
		Policy:          opts.Policy,
		BatchDispatch:   opts.BatchDispatch,
		MaxAttempts:     opts.MaxAttempts,
		DisableAdvice:   opts.NoAdvice,
		Seed:            opts.Seed,
	})

	ctx, cancel := context.WithCancel(context.Background())
	h := &Endpoint{
		ID:         id,
		Agent:      agent,
		Runtime:    rt,
		Builtins:   builtins,
		Containers: ctrs,
		fabric:     f,
		opts:       opts,
		ctx:        ctx,
		cancel:     cancel,
		blockMgrs:  make(map[string]*manager.Manager),
	}
	if err := agent.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < opts.Managers; i++ {
		if _, err := h.AddManager(); err != nil {
			h.Stop()
			return nil, err
		}
	}
	f.mu.Lock()
	f.endpoints[id] = h
	f.mu.Unlock()
	return h, nil
}

// contentionFor returns the shared-filesystem contention factor for a
// system profile (HPC centers see contention; clouds do not — §5.5.1).
func contentionFor(system string) float64 {
	switch system {
	case "theta", "cori":
		return 0.15
	default:
		return 0
	}
}

// GroupOptions shape one endpoint-group creation.
type GroupOptions struct {
	// Name is the registered group name.
	Name string
	// Owner creates and owns the group (must be able to dispatch to
	// every member).
	Owner types.UserID
	// Policy names the placement policy (see internal/router); empty
	// selects the default (least-outstanding).
	Policy string
	// Public permits any authenticated user to target the group.
	Public bool
	// Members are the candidate endpoints (ids of endpoints already
	// added to the fabric, with optional static weights).
	Members []types.GroupMember
	// RetryBudget is the group's default per-task redelivery budget
	// (0 = the service default) applied to tasks placed through the
	// group that carry no budget of their own.
	RetryBudget int
	// Elastic, when set, opts the group into the service's fleet
	// autoscaling controller (see internal/elastic): the service
	// periodically converts group backlog into per-member block
	// targets and pushes them to member endpoints as scaling advice.
	Elastic *types.ElasticSpec
}

// AddGroup registers an endpoint group over previously added
// endpoints, so experiments can boot multi-endpoint fleets and submit
// through the router instead of pinning each task to one endpoint.
func (f *Fabric) AddGroup(opts GroupOptions) (*types.EndpointGroup, error) {
	if opts.Name == "" {
		opts.Name = "group"
	}
	if opts.Owner == "" {
		opts.Owner = "operator"
	}
	return f.Service.CreateGroup(opts.Owner, api.CreateGroupRequest{
		Name: opts.Name, Policy: opts.Policy, Public: opts.Public, Members: opts.Members,
		RetryBudget: opts.RetryBudget, Elastic: opts.Elastic,
	})
}

// GroupOf is a convenience around AddGroup for the common case: group
// the given endpoint handles under one policy, owned by owner.
func (f *Fabric) GroupOf(owner types.UserID, name, policy string, eps ...*Endpoint) (*types.EndpointGroup, error) {
	members := make([]types.GroupMember, len(eps))
	for i, ep := range eps {
		members[i] = types.GroupMember{EndpointID: ep.ID}
	}
	return f.AddGroup(GroupOptions{Name: name, Owner: owner, Policy: policy, Members: members})
}

// Endpoint returns a previously added endpoint handle.
func (f *Fabric) Endpoint(id types.EndpointID) (*Endpoint, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.endpoints[id]
	return ep, ok
}

// takeEndpoints removes and returns every endpoint handle — the
// drain path claims them for re-homing on the importer shards.
func (f *Fabric) takeEndpoints() []*Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	eps := make([]*Endpoint, 0, len(f.endpoints))
	for id, ep := range f.endpoints {
		eps = append(eps, ep)
		delete(f.endpoints, id)
	}
	return eps
}

// AddManager boots one more manager (node) for the endpoint.
func (e *Endpoint) AddManager() (*manager.Manager, error) {
	network, addr := e.Agent.ManagerAddr()
	e.mu.Lock()
	e.nextMgr++
	id := types.ManagerID(fmt.Sprintf("%s-mgr-%d", e.opts.Name, e.nextMgr))
	e.mu.Unlock()
	m := manager.New(manager.Config{
		ID:               id,
		AgentNetwork:     network,
		AgentAddr:        addr,
		MaxWorkers:       e.opts.WorkersPerManager,
		DefaultContainer: e.opts.Container,
		PrewarmWorkers:   e.opts.PrewarmWorkers,
		Prefetch:         e.opts.Prefetch,
		HeartbeatPeriod:  e.opts.HeartbeatPeriod,
		Runtime:          e.Runtime,
		Containers:       e.Containers,
	})
	if err := m.Start(e.ctx); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.managers = append(e.managers, m)
	e.mu.Unlock()
	return m, nil
}

// Managers snapshots the manager handles.
func (e *Endpoint) Managers() []*manager.Manager {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*manager.Manager(nil), e.managers...)
}

// KillManager abruptly terminates manager index i (Figure 7 failure
// injection), returning it for later RestartManager.
func (e *Endpoint) KillManager(i int) (*manager.Manager, error) {
	e.mu.Lock()
	if i < 0 || i >= len(e.managers) {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: no manager %d", i)
	}
	m := e.managers[i]
	e.managers = append(e.managers[:i], e.managers[i+1:]...)
	e.mu.Unlock()
	m.Kill()
	return m, nil
}

// Disconnect severs the agent↔forwarder link (Figure 8 failure).
func (e *Endpoint) Disconnect() { e.Agent.Disconnect() }

// Reconnect restores the agent↔forwarder link.
func (e *Endpoint) Reconnect() error { return e.Agent.Reconnect() }

// Stop shuts the endpoint down: elastic loop, managers, agent.
func (e *Endpoint) Stop() {
	e.mu.Lock()
	done := e.elastDone
	prov := e.prov
	e.elastDone = nil
	e.prov = nil
	e.mu.Unlock()
	e.cancel()
	if done != nil {
		<-done
	}
	if prov != nil {
		prov.Close()
	}
	for _, m := range e.Managers() {
		m.Stop()
	}
	e.Agent.Stop()
}

// --- elasticity (Figure 6) ---

// ElasticOptions configure provider-driven scaling.
type ElasticOptions struct {
	// NewProvider builds the provider with the endpoint's hooks
	// installed (e.g. provider.NewK8sSim).
	NewProvider func(hooks provider.Hooks) provider.Provider
	// Policy is the scaling rule set.
	Policy provider.ScalingPolicy
	// Interval is the strategy evaluation period.
	Interval time.Duration
	// OnScale, when set, observes every evaluation (live nodes after
	// the decision) — the Figure 6 pod-count probe.
	OnScale func(live, pending, queued, running int)
}

// EnableElasticity attaches a provider and scaling strategy to the
// endpoint: node-up events launch managers, idle timeouts release
// them.
func (e *Endpoint) EnableElasticity(opts ElasticOptions) error {
	if opts.Interval <= 0 {
		opts.Interval = 250 * time.Millisecond
	}
	hooks := provider.Hooks{
		OnNodeUp: func(block types.BlockID, node int) {
			m, err := e.AddManager()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.blockMgrs[blockKey(block, node)] = m
			e.mu.Unlock()
		},
		OnNodeDown: func(block types.BlockID, node int) {
			key := blockKey(block, node)
			e.mu.Lock()
			m := e.blockMgrs[key]
			delete(e.blockMgrs, key)
			for i, mm := range e.managers {
				if mm == m {
					e.managers = append(e.managers[:i], e.managers[i+1:]...)
					break
				}
			}
			e.mu.Unlock()
			if m != nil {
				m.Stop()
			}
		},
	}
	prov := opts.NewProvider(hooks)
	scaler := provider.NewScaler(opts.Policy)
	done := make(chan struct{})
	e.mu.Lock()
	e.prov = prov
	e.scaler = scaler
	e.elastDone = done
	e.mu.Unlock()
	// Report provider block state in heartbeat statuses so the
	// service's cold-start-aware strategy can discount capacity that
	// is already booting.
	e.Agent.SetBlockStats(func() (live, pending int) {
		return prov.LiveBlocks(), prov.PendingBlocks()
	})

	go func() {
		defer close(done)
		ticker := time.NewTicker(opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				e.evaluateScaling(prov, scaler, opts.OnScale)
			case <-e.ctx.Done():
				return
			}
		}
	}()
	return nil
}

func blockKey(b types.BlockID, node int) string { return fmt.Sprintf("%s/%d", b, node) }

func (e *Endpoint) evaluateScaling(prov provider.Provider, scaler *provider.Scaler, probe func(live, pending, queued, running int)) {
	st := e.Agent.Status()
	queued := st.QueuedTasks
	running := st.OutstandingTasks - st.QueuedTasks
	if running < 0 {
		running = 0
	}
	// Apply the latest service scaling advice as a bounded override of
	// the local policy: the scaler clamps it to Min/MaxBlocks and lets
	// it decay once stale. Staleness is judged from the local receipt
	// time, so service clock skew cannot pin old advice.
	if adv, receivedAt, ok := e.Agent.Advice(); ok {
		scaler.SetAdvice(provider.Advice{
			TargetBlocks: adv.TargetBlocks,
			Issued:       receivedAt,
			TTL:          adv.TTL,
		})
	}
	load := provider.Load{
		QueuedTasks:   queued,
		RunningTasks:  running,
		LiveNodes:     prov.LiveNodes(),
		LiveBlocks:    prov.LiveBlocks(),
		PendingBlocks: prov.PendingBlocks(),
	}
	dec := scaler.Evaluate(load)
	for i := 0; i < dec.SubmitBlocks; i++ {
		if _, err := prov.Submit(); err != nil {
			break // block limit reached
		}
	}
	if dec.ReleaseBlocks > 0 {
		e.releaseIdleBlocks(prov, dec.ReleaseBlocks)
	}
	if probe != nil {
		probe(prov.LiveNodes(), prov.PendingBlocks(), queued, running)
	}
}

// releaseIdleBlocks cancels up to n blocks whose managers are idle.
func (e *Endpoint) releaseIdleBlocks(prov provider.Provider, n int) {
	e.mu.Lock()
	type cand struct {
		block types.BlockID
		mgr   *manager.Manager
	}
	var cands []cand
	for key, m := range e.blockMgrs {
		// Keys are "block/node"; recover the block id.
		slash := strings.LastIndexByte(key, '/')
		if slash < 0 || m == nil {
			continue
		}
		blk := types.BlockID(key[:slash])
		if e.Agent.OutstandingAt(m.ID()) == 0 {
			cands = append(cands, cand{block: blk, mgr: m})
		}
	}
	e.mu.Unlock()
	for i := 0; i < len(cands) && i < n; i++ {
		e.Agent.SuspendManager(cands[i].mgr.ID()) //nolint:errcheck // may already be gone
		prov.Cancel(cands[i].block)               //nolint:errcheck
	}
}

// WaitForWorkers blocks until the endpoint reports at least n managers
// connected or the timeout elapses.
func (e *Endpoint) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if e.Agent.ManagerCount() >= n {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("core: %d managers not ready within %v", n, timeout)
}
