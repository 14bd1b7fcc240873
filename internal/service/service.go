// Package service implements the cloud-hosted funcX service of paper
// §4.1: a REST API (secured by the Globus Auth substitute) over a
// Redis-style store, with a registry of users, functions, and
// endpoints, one forwarder per registered endpoint, hierarchical
// reliable task queues, result retrieval with purge-on-read, and the
// opt-in memoization cache of §4.7.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/dag"
	"funcx/internal/dataref"
	"funcx/internal/elastic"
	"funcx/internal/events"
	"funcx/internal/forwarder"
	"funcx/internal/memo"
	"funcx/internal/netlat"
	"funcx/internal/otlp"
	"funcx/internal/registry"
	"funcx/internal/router"
	"funcx/internal/shard"
	"funcx/internal/store"
	"funcx/internal/taskrec"
	"funcx/internal/trace"
	"funcx/internal/types"
	"funcx/internal/wal"
	"funcx/internal/wire"
)

// Config parameterizes the service.
type Config struct {
	// ForwarderNetwork is the transport for endpoint connections
	// ("inproc" for in-process federations, "tcp" for real ones).
	ForwarderNetwork string
	// HeartbeatPeriod/HeartbeatMisses configure agent-loss detection
	// in forwarders.
	HeartbeatPeriod time.Duration
	HeartbeatMisses int
	// ResultTTL bounds result retention after retrieval; the periodic
	// janitor purges retrieved results (§4.1). Zero keeps them until
	// read.
	ResultTTL time.Duration
	// MemoSize bounds the memoization cache.
	MemoSize int
	// MaxPayloadSize bounds serialized task inputs accepted through
	// the service (§4.6: "for performance and cost reasons we limit
	// the size of data that can be passed through the funcX service";
	// larger data moves out of band). Default 1 MiB; negative
	// disables the limit.
	MaxPayloadSize int
	// ForwarderLat optionally injects WAN latency on the
	// service→endpoint path (latency experiments).
	ForwarderLat *netlat.Link
	// AuthLat optionally models Globus Auth token introspection
	// latency: the first request bearing a token pays one sampled
	// delay; later requests hit the service's token cache (the
	// behaviour behind the paper's auth-dominated TS component).
	AuthLat *netlat.Link
	// TokenTTL is the lifetime of minted tokens (default 24 h).
	TokenTTL time.Duration
	// ElasticInterval is the fleet autoscaling controller's evaluation
	// period (default: the heartbeat period, so advice is at most one
	// heartbeat behind the statuses it reads).
	ElasticInterval time.Duration
	// EventRing bounds each user's task-event replay ring: how many
	// trailing lifecycle events a disconnected SSE subscriber can
	// still resume across via Last-Event-ID (default 1024).
	EventRing int
	// EventIdleTTL bounds how long a user's event replay ring may sit
	// idle with no attached subscribers before it is evicted (resume
	// past an eviction returns 410 Gone). Default 15 minutes;
	// negative disables eviction.
	EventIdleTTL time.Duration
	// DispatchLease is the base lease granted to every dispatched
	// task (plus the task's own Walltime): tasks producing neither a
	// running signal nor a result within the lease are reclaimed —
	// re-routed, requeued, or landed as TaskLost. Default
	// 4 × HeartbeatMisses × HeartbeatPeriod.
	DispatchLease time.Duration
	// DefaultMaxRetries is the per-task redelivery budget applied when
	// neither the submission nor its group sets one (default 5): a
	// task reclaimed more than its budget lands as TaskLost so its
	// caller's future resolves instead of hanging.
	DefaultMaxRetries int
	// ShardID and Ring opt the service into a sharded deployment: the
	// consistent-hash ring (identical config on every shard) assigns
	// ownership of groups, users, endpoints, and tasks, this instance
	// serves the keys it owns, and the cross-shard gateway proxies or
	// redirects everything else to the owner shard (gateway.go). Nil
	// Ring (the default) is a classic single-instance service.
	ShardID shard.ID
	Ring    *shard.Directory
	// AuthKey, when set, is the shared token-signing key — the
	// stand-in for one external Globus Auth federation. Every shard
	// must hold the same key so a token minted by any of them verifies
	// on all of them. Empty generates a fresh random key (single-shard
	// default).
	AuthKey []byte
	// SubmitConcurrency bounds how many public task submissions this
	// instance processes at once (0 = unlimited), modeling the fixed
	// web-worker pool a real single service instance runs behind —
	// the per-instance capacity that makes horizontal sharding pay
	// off. Excess submissions queue at the door; shard-to-shard
	// proxied submissions bypass the limiter (the internal lane must
	// never deadlock against the public one).
	SubmitConcurrency int
	// ReclaimHalfLife is the decay half-life of the per-endpoint
	// reclaim/lost rate fed to the router's lease-aware penalty:
	// members whose dispatches keep getting reclaimed score as if they
	// carried extra backlog until the rate decays back to zero.
	// Default 30 s.
	ReclaimHalfLife time.Duration
	// DataDir opts the service into durable state: a per-instance
	// write-ahead log plus periodic snapshots live here, every store
	// mutation is journaled, and a service opened over a non-empty
	// DataDir recovers its registry, queues, results, leases, and
	// event numbering before serving (see internal/wal and
	// recovery.go). Empty keeps the classic pure in-memory store.
	DataDir string
	// WALSyncInterval is the journal's group-commit flush window:
	// appends buffered within one window share a single fsync
	// (default 2 ms). Smaller narrows the post-crash loss window at a
	// throughput cost.
	WALSyncInterval time.Duration
	// SnapshotBytes/SnapshotOps bound how much journal tail may
	// accumulate before the background snapshotter checkpoints full
	// store state and truncates the log (defaults 8 MiB / 100k
	// records); SnapshotInterval is how often the thresholds are
	// checked (default 500 ms).
	SnapshotBytes    int
	SnapshotOps      int
	SnapshotInterval time.Duration
	// DisableTrace turns per-task lifecycle tracing off: no timelines
	// are recorded, no stage histograms accumulate, and tasks carry no
	// trace context to the endpoint stack. The default (tracing on) is
	// cheap — a few map operations per task — but the knob exists so
	// the tracing-overhead benchmark can measure exactly that cost.
	DisableTrace bool
	// TraceCapacity bounds how many completed task timelines the trace
	// collector retains for GET /v1/tasks/{id}/trace (default 4096;
	// older timelines are evicted, their histograms already folded).
	TraceCapacity int
	// TraceSampleRate samples which tasks record trace timelines:
	// 0 (unset) or >=1 traces everything (the historical behavior),
	// negative traces nothing, and a fraction in (0,1) traces that
	// share of tasks — chosen deterministically by task-id hash, so
	// retries of one task always agree, and keyed by graph id for DAG
	// nodes, so a workflow's tasks sample together and a sampled graph
	// yields a complete cross-node timeline.
	TraceSampleRate float64
	// DAGInlineLimit is the largest parent output (bytes) bound inline
	// into a dependent task's payload; larger outputs register in the
	// dataref fabric and travel as references (0 = 64 KiB default,
	// negative = always inline).
	DAGInlineLimit int
	// DAGRetention is how long a finished graph stays queryable via
	// GET /v1/dags/{id} after its terminal event. Past the window the
	// graph is evicted from the in-memory table and the journal, so a
	// long-lived shard's DAG table stays bounded by its active set
	// plus one retention window of history (0 = 15 minute default,
	// negative = retain forever, the historical behavior).
	DAGRetention time.Duration
	// Logger receives the service's structured logs (nil =
	// slog.Default()). Per-task records log at Debug with task_id /
	// endpoint_id attributes so one task greps across the service and
	// agent sides of a dispatch; delivery give-ups log at Warn.
	Logger *slog.Logger
	// OTLPEndpoint enables OTLP/HTTP-JSON span export: completed trace
	// timelines convert to OpenTelemetry spans POSTed in batches to
	// <endpoint>/v1/traces (see internal/otlp). Export rides a bounded
	// drop-oldest queue strictly off the task lifecycle — a wedged
	// collector costs spans, never task latency. Empty disables
	// export; requires tracing enabled.
	OTLPEndpoint string
	// OTLPQueue bounds the exporter's completed-timeline queue
	// (0 = 1024 default).
	OTLPQueue int
}

// ErrPayloadTooLarge is returned for inputs beyond MaxPayloadSize;
// clients should stage such data out of band (e.g. Globus) and pass a
// reference instead (§4.6).
var ErrPayloadTooLarge = errors.New("service: payload too large")

// ErrInvalidRequest marks malformed submissions (bad target
// combination, unknown placement policy); the HTTP layer maps it to
// 400 Bad Request.
var ErrInvalidRequest = errors.New("service: invalid request")

// Service is the funcX cloud service.
type Service struct {
	cfg       Config
	Authority *auth.Authority
	Registry  *registry.Registry
	Store     *store.Store
	Memo      *memo.Cache
	Router    *router.Router
	// Elastic is the fleet autoscaling controller: it converts elastic
	// groups' backlog into per-member scaling advice each interval and
	// hands it to the members' forwarders (see internal/elastic).
	Elastic *elastic.Controller
	// Events is the per-user task event bus: every lifecycle
	// transition is published here, and it is the single notification
	// seam behind blocking result retrieval, POST /v1/tasks/wait, and
	// the GET /v1/events SSE stream (see internal/events).
	Events *events.Bus
	// Trace records per-task lifecycle timelines and folds finished
	// ones into per-stage latency histograms (GET /v1/tasks/{id}/trace
	// and the funcx_task_stage_seconds metrics family). Nil when
	// DisableTrace is set; every method is nil-safe.
	Trace *trace.Collector
	// Exporter ships completed timelines to an OTLP collector on its
	// own goroutine (nil unless Config.OTLPEndpoint is set).
	Exporter *otlp.Exporter
	// fleetScrapeErrors counts peer shards that failed a
	// GET /v1/metrics/fleet scatter-gather.
	fleetScrapeErrors atomic.Int64
	log               *slog.Logger
	muxState

	ctx    context.Context
	cancel context.CancelFunc

	// proxyClient carries cross-shard gateway hops (nil when
	// unsharded); hopToken authenticates this shard's outgoing hops
	// (signed with the deployment's shared key, ScopeShardHop only);
	// submitSem is the public-submission admission semaphore (nil
	// when unlimited). All are set once in New.
	proxyClient *http.Client
	hopToken    string
	// replicateToken authenticates this shard's replication /
	// anti-entropy traffic (function replicas, registry pulls) —
	// minted like the hop token but carrying only ScopeShardReplicate,
	// so the two internal lanes cannot impersonate each other.
	replicateToken string
	submitSem      chan struct{}

	// Datarefs models the out-of-band data plane DAG parent outputs
	// larger than DAGInlineLimit travel through (see internal/dataref).
	Datarefs *dataref.Fabric

	// dagMu guards the dependency-graph tables. It may be taken alone
	// or over s.mu, and NEVER across a task-table transition (landing a
	// result re-enters the DAG path). dags holds every graph (finished
	// ones stay for GET /v1/dags/{id} until DAGRetention expires);
	// dagByTask routes a stored result to the graph nodes waiting on
	// that task id; dagDoneAt stamps when each graph finished so the
	// retention sweeper knows what to evict.
	dagMu     sync.Mutex
	dags      map[types.DAGID]*dag.Graph
	dagByTask map[types.TaskID][]dagRef
	dagDoneAt map[types.DAGID]time.Time

	// handoffMu guards the drain/handoff key overrides. movedKeys maps
	// ring keys this shard handed to their importer (the gateway
	// forwards their traffic there); importedKeys marks ring keys this
	// shard imported and serves despite what the ring says. Both are
	// journaled on a durable instance (drain.go) so the overrides
	// survive a crash of either side.
	handoffMu    sync.Mutex
	movedKeys    map[string]shard.ID
	importedKeys map[string]bool

	// tasks is the store's task table: one record per task, moved only
	// by taskrec.Transition through apply (see "task lifecycle" below).
	tasks *store.TaskTable

	mu         sync.Mutex
	forwarders map[types.EndpointID]*forwarder.Forwarder
	// reclaims tracks a decaying per-endpoint reclaim/lost rate — the
	// router's lease-aware penalty source.
	reclaims map[types.EndpointID]*decayCounter

	// seqMu orders event-seq boundary journal writes per owner;
	// seqJournaled caches each owner's journaled boundary so only
	// boundary crossings append (see seqJournalStride).
	seqMu        sync.Mutex
	seqJournaled map[types.UserID]uint64

	submitted  int64
	memoHits   int64
	rerouted   int64
	retried    int64
	lost       int64
	proxied    int64
	redirected int64

	// DAG counters. dagReleases counts dependent-node placements driven
	// by parent completions — the server-side internal-edge traversals
	// that would each have been a client round-trip under SDK
	// orchestration. dagMemoHits counts nodes short-circuited wholesale
	// from the memo cache at submit; dagDepFailures counts typed
	// dependency-failure propagations.
	dagsSubmitted  int64
	dagsCompleted  int64
	dagsEvicted    int64
	dagNodes       int64
	dagReleases    int64
	dagDepFailures int64
	dagMemoHits    int64
	// streamPurged counts results whose bytes were dropped early
	// because the terminal event carrying them was delivered on the
	// owner's SSE stream (ack-on-stream purge). Atomic, not under mu:
	// it moves once per delivered result.
	streamPurged atomic.Int64
}

// New creates a service ready to serve its Handler, panicking if the
// configuration cannot be opened. Only persistence can fail — an
// in-memory config (empty DataDir) never panics, preserving the
// historical constructor for the common case. Durable deployments
// should prefer Open and handle the error.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open creates a service ready to serve its Handler. With a DataDir
// it opens (or recovers) the write-ahead log underneath the store and
// rebuilds all control-plane state a crash destroyed — registry
// records, queued tasks, in-flight leases, stored results, and
// per-user event numbering — before the service accepts a single
// request (the recovery sequence lives in recovery.go).
func Open(cfg Config) (*Service, error) {
	if cfg.ForwarderNetwork == "" {
		cfg.ForwarderNetwork = "inproc"
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.TokenTTL <= 0 {
		cfg.TokenTTL = 24 * time.Hour
	}
	if cfg.MaxPayloadSize == 0 {
		cfg.MaxPayloadSize = 1 << 20
	}
	if cfg.ElasticInterval <= 0 {
		cfg.ElasticInterval = cfg.HeartbeatPeriod
	}
	if cfg.EventRing <= 0 {
		cfg.EventRing = 1024
	}
	if cfg.EventIdleTTL == 0 {
		cfg.EventIdleTTL = 15 * time.Minute
	}
	if cfg.DAGRetention == 0 {
		cfg.DAGRetention = 15 * time.Minute
	}
	if cfg.DispatchLease <= 0 {
		cfg.DispatchLease = 4 * time.Duration(cfg.HeartbeatMisses) * cfg.HeartbeatPeriod
	}
	if cfg.DefaultMaxRetries <= 0 {
		cfg.DefaultMaxRetries = 5
	}
	if cfg.ReclaimHalfLife <= 0 {
		cfg.ReclaimHalfLife = 30 * time.Second
	}
	authority := auth.NewAuthority()
	if len(cfg.AuthKey) > 0 {
		authority = auth.NewAuthorityWithKey(cfg.AuthKey)
	}
	st := store.New()
	if cfg.DataDir != "" {
		log, err := wal.Open(wal.Options{Dir: cfg.DataDir, SyncInterval: cfg.WALSyncInterval})
		if err != nil {
			return nil, fmt.Errorf("service: opening wal in %s: %w", cfg.DataDir, err)
		}
		st, err = store.NewPersistent(log, store.PersistOptions{
			SnapshotBytes:    uint64(cfg.SnapshotBytes),
			SnapshotOps:      uint64(cfg.SnapshotOps),
			SnapshotInterval: cfg.SnapshotInterval,
		})
		if err != nil {
			log.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("service: recovering store from %s: %w", cfg.DataDir, err)
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if cfg.Ring != nil {
		logger = logger.With("shard_id", string(cfg.ShardID))
	}
	s := &Service{
		cfg:          cfg,
		Authority:    authority,
		Registry:     registry.New(),
		Store:        st,
		Memo:         memo.NewCache(cfg.MemoSize),
		Events:       events.New(events.Config{Ring: cfg.EventRing, IdleTTL: cfg.EventIdleTTL}),
		log:          logger,
		tasks:        st.Tasks(),
		forwarders:   make(map[types.EndpointID]*forwarder.Forwarder),
		reclaims:     make(map[types.EndpointID]*decayCounter),
		seqJournaled: make(map[types.UserID]uint64),
		movedKeys:    make(map[string]shard.ID),
		importedKeys: make(map[string]bool),
		Datarefs:     dataref.NewFabric(),
		dags:         make(map[types.DAGID]*dag.Graph),
		dagByTask:    make(map[types.TaskID][]dagRef),
		dagDoneAt:    make(map[types.DAGID]time.Time),
	}
	if !cfg.DisableTrace {
		s.Trace = trace.NewCollector(cfg.TraceCapacity)
		if cfg.OTLPEndpoint != "" {
			s.Exporter = otlp.New(otlp.Config{
				Endpoint: cfg.OTLPEndpoint,
				Queue:    cfg.OTLPQueue,
				ShardID:  string(cfg.ShardID),
				Logger:   logger,
			})
			// Finish hands every completed timeline to the exporter's
			// never-blocking Enqueue; all batching and HTTP happen on
			// the exporter's goroutine.
			s.Trace.OnFinish = s.Exporter.Enqueue
		}
	}
	if cfg.Ring != nil {
		// Sharded: records this shard creates must hash back to it, so
		// any shard can compute any id's owner from the id alone.
		s.Registry.SetIDMinters(
			func() types.GroupID { return shard.MintAligned(cfg.Ring, types.NewGroupID, shard.GroupKey) },
			func() types.EndpointID { return shard.MintAligned(cfg.Ring, types.NewEndpointID, shard.EndpointKey) },
		)
		s.proxyClient = &http.Client{
			// Pass 307s through to the caller rather than chasing them:
			// redirects are a client-facing surface.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		}
		// The hop token proves to peers that a request marked as a
		// shard-to-shard hop really came from a shard: it is signed
		// with the deployment's shared key, names this shard, and
		// carries only the hop scope, so no user token qualifies.
		s.hopToken = authority.Mint(types.UserID("shard:"+string(cfg.ShardID)),
			10*365*24*time.Hour, auth.ScopeShardHop)
		// The replication lane gets its own credential: same shape as
		// the hop token, disjoint scope, so neither lane's token opens
		// the other's surfaces.
		s.replicateToken = authority.Mint(types.UserID("shard:"+string(cfg.ShardID)),
			10*365*24*time.Hour, auth.ScopeShardReplicate)
	}
	if cfg.SubmitConcurrency > 0 {
		s.submitSem = make(chan struct{}, cfg.SubmitConcurrency)
	}
	// Registry recovery must precede the change-hook install: the
	// recovered upserts would otherwise re-journal every record on
	// every boot. New mutations after this point persist through the
	// hook.
	if err := s.recoverRegistry(); err != nil {
		s.Store.Close()
		return nil, err
	}
	if s.Store.Persistent() {
		s.Registry.SetOnChange(s.persistRegistryRecord)
	}
	s.Router = router.New(s.routingStatus, s.endpointLabels)
	s.Router.Penalty = s.routingPenalty
	s.Elastic = elastic.NewController(elastic.Config{
		Interval: cfg.ElasticInterval,
		// Advice outliving three heartbeats with no refresh is stale:
		// the endpoint decays back to its local policy.
		DefaultTTL: 3 * cfg.HeartbeatPeriod,
		Groups:     s.Registry.ElasticGroups,
		Status:     s.routingStatus,
		Push:       s.pushAdvice,
	})
	//funcx:ignore ctxflow Open mints the service's root lifetime context; there is no caller context at process start.
	s.ctx, s.cancel = context.WithCancel(context.Background())
	// Runtime recovery: seed event numbering, reconcile queued/leased
	// tasks against their records, and restart a forwarder for every
	// journaled endpoint — all before the first background goroutine
	// or request can observe half-recovered state.
	if s.Store.Recovered() {
		if err := s.recoverRuntime(); err != nil {
			s.cancel()
			s.Store.Close()
			return nil, err
		}
	}
	go s.Elastic.Run(s.ctx)
	if cfg.EventIdleTTL > 0 {
		go s.evictIdleEventStreams()
	}
	if cfg.DAGRetention > 0 {
		go s.evictFinishedDAGs()
	}
	s.Store.StartJanitor(time.Second)
	// A recovered shard in a sharded deployment may have missed
	// function replications while it was down: converge by pulling
	// records from live peers (best effort, bounded per peer).
	if s.sharded() && s.Store.Recovered() {
		s.pullFunctions()
	}
	return s, nil
}

// evictIdleEventStreams periodically drops per-user event replay rings
// that have sat idle past EventIdleTTL with no attached subscribers,
// so the bus does not accumulate one ring per user for the process
// lifetime. A subscriber resuming past an eviction gets 410 Gone and
// reconciles via POST /v1/tasks/wait, exactly like a ring overrun.
func (s *Service) evictIdleEventStreams() {
	interval := max(s.cfg.EventIdleTTL/4, time.Second)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.Events.EvictIdle()
		case <-s.ctx.Done():
			return
		}
	}
}

// Close stops every forwarder and the store janitor.
func (s *Service) Close() {
	s.cancel()
	s.mu.Lock()
	fwds := make([]*forwarder.Forwarder, 0, len(s.forwarders))
	for _, f := range s.forwarders {
		fwds = append(fwds, f)
	}
	s.mu.Unlock()
	for _, f := range fwds {
		f.Stop()
	}
	if s.Exporter != nil {
		s.Exporter.Close()
	}
	s.Store.Close()
}

// MintUserToken issues a user token with the given scopes — the
// stand-in for a Globus Auth login flow. Experiments and the SDK use
// it to authenticate.
func (s *Service) MintUserToken(uid types.UserID, scopes ...auth.Scope) string {
	if len(scopes) == 0 {
		scopes = []auth.Scope{auth.ScopeAll}
	}
	s.Registry.AddUser(&types.User{ID: uid, Registered: time.Now()}) //nolint:errcheck // idempotent add
	return s.Authority.Mint(uid, s.cfg.TokenTTL, scopes...)
}

// --- endpoint / forwarder management ---

// RegisterEndpoint creates the endpoint record, its native client, and
// its forwarder, returning the forwarder address and agent token.
// Labels declare the endpoint's capabilities for router matching.
func (s *Service) RegisterEndpoint(owner types.UserID, name, description string, public bool, labels map[string]string) (*types.Endpoint, string, string, string, error) {
	ep, err := s.Registry.RegisterEndpoint(owner, name, description, public, labels)
	if err != nil {
		return nil, "", "", "", err
	}
	clientID := "endpoint:" + string(ep.ID)
	secret, err := s.Authority.RegisterClient(clientID)
	if err != nil {
		return nil, "", "", "", err
	}
	token, err := s.Authority.MintClient(clientID, secret, s.cfg.TokenTTL, auth.ScopeManageEndpoints)
	if err != nil {
		return nil, "", "", "", err
	}

	fwd, err := s.startForwarder(ep.ID)
	if err != nil {
		return nil, "", "", "", err
	}
	network, addr := fwd.Addr()
	s.log.Info("endpoint registered",
		"endpoint_id", string(ep.ID), "owner", string(owner), "name", name)
	return ep, network, addr, token, nil
}

// startForwarder creates, starts, and tracks the forwarder serving an
// endpoint. Registration and crash recovery share it: a forwarder is
// runtime state, so a durable shard rebuilds one per journaled
// endpoint record at boot.
func (s *Service) startForwarder(epID types.EndpointID) (*forwarder.Forwarder, error) {
	fwd := forwarder.New(forwarder.Config{
		EndpointID:      epID,
		Network:         s.cfg.ForwarderNetwork,
		TaskQueue:       s.Store.Queue(store.TaskQueueName(string(epID))),
		HeartbeatPeriod: s.cfg.HeartbeatPeriod,
		HeartbeatMisses: s.cfg.HeartbeatMisses,
		DispatchLease:   s.cfg.DispatchLease,
		Auth:            s.verifyEndpointToken,
		Lat:             s.cfg.ForwarderLat,
		OnResult:        s.onResult,
		OnDispatched:    s.onDispatched,
		OnRunning:       func(id types.TaskID) { s.onRunning(id, epID) },
		OnOrphaned:      s.failover,
		OnReclaim:       s.reclaim,
		Logger:          s.log,
	})
	if err := fwd.Start(s.ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.forwarders[epID] = fwd
	s.mu.Unlock()
	return fwd, nil
}

// verifyEndpointToken authenticates an agent registration.
func (s *Service) verifyEndpointToken(epID types.EndpointID, token string) error {
	claims, err := s.Authority.Authorize(token, auth.ScopeManageEndpoints)
	if err != nil {
		return err
	}
	want := "endpoint:" + string(epID)
	if claims.ClientID != want {
		return fmt.Errorf("auth: token client %q does not match endpoint %s", claims.ClientID, epID)
	}
	return nil
}

// ReissueEndpointToken rotates an endpoint's native client secret and
// mints a fresh agent token, returning the forwarder attach point. An
// agent re-attaching to a recovered shard uses this: the endpoint
// record survived in the journal, but client secrets are in-memory
// runtime state the crash destroyed. Owner-only (empty actor skips
// the check for trusted in-process callers).
func (s *Service) ReissueEndpointToken(actor types.UserID, id types.EndpointID) (network, addr, token string, err error) {
	ep, err := s.Registry.Endpoint(id)
	if err != nil {
		return "", "", "", err
	}
	if actor != "" && ep.Owner != actor {
		return "", "", "", fmt.Errorf("%w: only the owner may reissue endpoint credentials", registry.ErrForbidden)
	}
	clientID := "endpoint:" + string(id)
	secret, err := s.Authority.RotateClient(clientID)
	if err != nil {
		return "", "", "", err
	}
	token, err = s.Authority.MintClient(clientID, secret, s.cfg.TokenTTL, auth.ScopeManageEndpoints)
	if err != nil {
		return "", "", "", err
	}
	f, ok := s.Forwarder(id)
	if !ok {
		return "", "", "", fmt.Errorf("%w: endpoint %s has no forwarder", registry.ErrNotFound, id)
	}
	network, addr = f.Addr()
	return network, addr, token, nil
}

// Forwarder returns the forwarder serving an endpoint.
func (s *Service) Forwarder(id types.EndpointID) (*forwarder.Forwarder, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.forwarders[id]
	return f, ok
}

// --- router sources ---

// routingStatus feeds the router a live placement snapshot: the
// agent-reported status with the connection flag, queue depth, and
// outstanding count replaced by the forwarder's real-time view (the
// agent report lags by up to a heartbeat).
func (s *Service) routingStatus(id types.EndpointID) *types.EndpointStatus {
	f, ok := s.Forwarder(id)
	if !ok {
		return nil
	}
	st := f.Status()
	st.OutstandingTasks = f.Outstanding()
	return st
}

// endpointLabels feeds the router an endpoint's declared labels.
func (s *Service) endpointLabels(id types.EndpointID) map[string]string {
	ep, err := s.Registry.Endpoint(id)
	if err != nil {
		return nil
	}
	return ep.Labels
}

// --- endpoint groups ---

// CreateGroup registers an endpoint group after validating its
// placement policy. Members must exist and be dispatchable by owner.
// A non-nil Elastic spec (validated and normalized here) opts the
// group into the fleet autoscaling controller, which pushes scaling
// advice to member endpoints from the first evaluation after creation;
// RetryBudget bounds redeliveries of tasks placed through the group
// that set no MaxRetries of their own (0 = the service default).
func (s *Service) CreateGroup(owner types.UserID, req api.CreateGroupRequest) (*types.EndpointGroup, error) {
	p, err := router.ParsePolicy(req.Policy)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	if len(req.Members) == 0 {
		return nil, fmt.Errorf("%w: group needs at least one member endpoint", ErrInvalidRequest)
	}
	// Sharded: a group's routing, forwarders, and queues all live on
	// its owner shard, so every member endpoint must live here too.
	// (Cross-shard groups are a recorded follow-on; the gateway routes
	// group creation to the first member's owner shard.)
	if s.cfg.Ring != nil {
		for _, m := range req.Members {
			if !s.cfg.Ring.Owns(shard.EndpointKey(m.EndpointID)) {
				return nil, fmt.Errorf("%w: endpoint %s lives on shard %s, not %s; cross-shard group members are not supported",
					ErrInvalidRequest, m.EndpointID,
					s.cfg.Ring.Owner(shard.EndpointKey(m.EndpointID)).ID, s.cfg.Ring.SelfID())
			}
		}
	}
	if req.RetryBudget < 0 {
		return nil, fmt.Errorf("%w: negative retry budget", ErrInvalidRequest)
	}
	spec := req.Elastic
	if spec != nil {
		normalized, err := elastic.ParseSpec(*spec)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
		if normalized.AdviceTTL <= 0 {
			normalized.AdviceTTL = 3 * s.cfg.HeartbeatPeriod
		}
		spec = &normalized
	}
	return s.Registry.RegisterGroup(owner, req.Name, string(p), req.Public, req.Members, spec, req.RetryBudget)
}

// GroupElasticity reports a group's elasticity state: the group record
// (including its spec) plus, per member in member order, the live
// status and latest advice. Actor authorization matches GroupStatus.
func (s *Service) GroupElasticity(actor types.UserID, id types.GroupID) (*types.EndpointGroup, []api.MemberElasticity, error) {
	g, err := s.Registry.AuthorizeGroupDispatch(actor, id)
	if err != nil {
		return nil, nil, err
	}
	members := make([]api.MemberElasticity, len(g.Members))
	for i, m := range g.Members {
		if st := s.routingStatus(m.EndpointID); st != nil {
			members[i].Status = *st
		} else {
			members[i].Status = types.EndpointStatus{ID: m.EndpointID}
		}
		if adv, ok := s.Elastic.Latest(m.EndpointID); ok && adv.GroupID == g.ID {
			cp := adv
			members[i].Advice = &cp
		}
	}
	return g, members, nil
}

// pushAdvice hands controller advice to the endpoint's forwarder,
// which piggybacks it on its next heartbeat to the agent.
func (s *Service) pushAdvice(a types.ScalingAdvice) {
	if f, ok := s.Forwarder(a.EndpointID); ok {
		f.SetAdvice(a)
	}
}

// AddGroupMembers appends endpoints to a group (owner only).
func (s *Service) AddGroupMembers(actor types.UserID, id types.GroupID, members ...types.GroupMember) (*types.EndpointGroup, error) {
	return s.Registry.AddGroupMembers(actor, id, members...)
}

// GroupStatus returns the group record plus one live status snapshot
// per member, in member order. Actor must be allowed to target the
// group (owner, or anyone for public groups).
func (s *Service) GroupStatus(actor types.UserID, id types.GroupID) (*types.EndpointGroup, []types.EndpointStatus, error) {
	g, err := s.Registry.AuthorizeGroupDispatch(actor, id)
	if err != nil {
		return nil, nil, err
	}
	statuses := make([]types.EndpointStatus, len(g.Members))
	for i, m := range g.Members {
		if st := s.routingStatus(m.EndpointID); st != nil {
			statuses[i] = *st
		} else {
			statuses[i] = types.EndpointStatus{ID: m.EndpointID}
		}
	}
	return g, statuses, nil
}

// failover is the forwarder's OnOrphaned hook: while an endpoint's
// agent is away, every queued task is offered here. Group-placed
// tasks are re-routed to a *connected* group member (excluding the
// dead endpoint); direct submissions — and group tasks with no
// healthy alternative — stay queued for the agent's return, keeping
// the original at-least-once semantics.
func (s *Service) failover(task *types.Task) bool {
	if task.GroupID == "" || s.ctx.Err() != nil {
		return false
	}
	// A task that already finished (its result landed concurrently
	// with the disconnect) must not be re-queued: drop the stale
	// redelivery instead of re-running it.
	if rec, ok := s.tasks.Get(task.ID); !ok || rec.Status().Terminal() {
		return true
	}
	g, err := s.Registry.Group(task.GroupID)
	if err != nil {
		return false
	}
	target, err := s.Router.Route(router.Request{
		Group:    g,
		Selector: task.Selector,
		Exclude:  map[types.EndpointID]bool{task.EndpointID: true},
	})
	if err != nil {
		return false
	}
	// Only hand off to a live member: moving a task from one dead
	// queue to another would bounce it around the group forever. The
	// selector needs no re-check here — Route treats it as a hard
	// constraint, so an unsatisfiable one already returned an error.
	if st := s.routingStatus(target); st == nil || !st.Connected {
		return false
	}
	task.EndpointID = target
	data := wire.EncodeTask(task)
	// The record moves before the enqueue, so a fast completion on the
	// new endpoint finds it there, and the fresh "queued" event naming
	// the surviving member is on the stream before that endpoint's
	// dispatch can be. A result that landed since the check above (the
	// window spans routing and encoding) wins: drop the redelivery.
	if _, ok := s.apply(taskrec.Event{
		Kind: taskrec.Reroute, ID: task.ID, Endpoint: target, Attempt: task.Attempt, Frame: data, At: time.Now(),
	}); !ok {
		return true
	}
	s.Trace.SetEndpoint(task.ID, target)
	if err := s.Store.Queue(store.TaskQueueName(string(target))).Push(data); err != nil {
		return false
	}
	s.mu.Lock()
	s.rerouted++
	s.mu.Unlock()
	s.log.Info("task re-routed to surviving group member",
		"task_id", string(task.ID), "endpoint_id", string(target), "group_id", string(task.GroupID))
	return true
}

// --- task lifecycle ---

// The service's bookkeeping hashes. Tasks themselves live in the
// store's task table, one taskrec.Record each.
const (
	// eventSeqHash journals each user's newest event seq (decimal
	// string) so a recovered shard resumes numbering past every seq it
	// ever handed a client as a Last-Event-ID.
	eventSeqHash = "eventseq"
	// dagsHash journals dependency-graph records (wire.EncodeDAG);
	// dagOutputsHash retains each DAG parent's output bytes from the
	// moment its result lands until its graph finishes, so a recovered
	// service can re-bind pending edges (and re-register large outputs
	// in the in-memory dataref fabric).
	dagsHash       = "dags"
	dagOutputsHash = "dagout"
)

// seqJournalStride coarsens event-seq persistence: instead of one
// journal record per event, the journal holds the next stride
// boundary past anything handed out, rewritten only when a seq
// crosses it. Recovery then resumes numbering from the boundary —
// always past every seq a client ever saw, at 1/64th the append
// traffic. The stream may skip up to a stride across a restart, which
// Last-Event-ID resumption tolerates (seqs need only be monotonic).
const seqJournalStride = 64

// publish puts one lifecycle event on the bus and, on a durable
// instance, journals the owner's stream position. Every service-side
// event publication goes through here — the persisted boundary is
// what recovery seeds the bus with, so it must cover the newest
// event.
func (s *Service) publish(owner types.UserID, ev types.TaskEvent) {
	seq := s.Events.Publish(owner, ev)
	if !s.Store.Persistent() {
		return
	}
	s.seqMu.Lock()
	if seq <= s.seqJournaled[owner] {
		s.seqMu.Unlock()
		return
	}
	bound := (seq/seqJournalStride + 1) * seqJournalStride
	s.seqJournaled[owner] = bound
	// The Set happens under seqMu: journal writes for one owner must
	// land in boundary order, or replay could finish on a stale lower
	// boundary and recovery would re-issue seqs already handed out.
	s.Store.Hash(eventSeqHash).Set(string(owner), []byte(strconv.FormatUint(bound, 10)))
	s.seqMu.Unlock()
}

// apply runs one lifecycle event through the task table: the one way a
// task's record changes. The table journals an event that applies and
// publishes what it emits under the record's lock, so one task's
// events reach the stream in transition order.
func (s *Service) apply(ev taskrec.Event) (taskrec.Record, bool) {
	return s.tasks.Apply(ev, s.publish)
}

// Submission is one task submission: a function invocation bound for
// either a concrete endpoint (EndpointID) or an endpoint group
// (GroupID), in which case the router picks the member and Labels may
// constrain the choice.
type Submission struct {
	FunctionID types.FunctionID
	EndpointID types.EndpointID
	GroupID    types.GroupID
	Labels     map[string]string
	Payload    []byte
	Memoize    bool
	BatchN     int
	// Walltime is the expected execution duration; it extends the
	// dispatch lease so long tasks are not reclaimed mid-execution.
	Walltime time.Duration
	// MaxRetries bounds service-side redeliveries (0 = group budget,
	// else the service default); exhaustion lands the task as
	// TaskLost.
	MaxRetries int
	// AtMostOnce opts the task out of redelivery entirely: agent loss
	// or lease expiry fails it fast as TaskLost instead of re-running
	// a possibly non-idempotent function.
	AtMostOnce bool
}

// SubmitTaskAt places one submission, returning the task id, the
// endpoint it landed on, and whether it was served from the memo cache
// (paper Figure 3 steps 1–3). start is the TS clock origin: the HTTP
// layer passes the request arrival time so the TS component covers
// authentication (paper Figure 4: "most funcX overhead is captured in
// ts as a result of authentication"). For a group target it
// authorizes the group, routes the task with the group's placement
// policy over live endpoint health, and stamps the task with its group
// so failover can re-route it if the chosen endpoint dies before
// dispatch.
func (s *Service) SubmitTaskAt(owner types.UserID, sub Submission, start time.Time) (types.TaskID, types.EndpointID, bool, error) {
	p, err := s.prepare(owner, sub)
	if err != nil {
		return "", "", false, err
	}
	return s.place(owner, p, start)
}

// SubmitBatchAt places many submissions atomically with respect to
// validation: every task is validated and authorized *before* any is
// enqueued, so a bad task mid-batch can no longer leave earlier tasks
// running with no ids returned to the caller. Returned slices are in
// submission order.
func (s *Service) SubmitBatchAt(owner types.UserID, subs []Submission, start time.Time) ([]types.TaskID, []types.EndpointID, error) {
	prepared := make([]*preparedSubmission, len(subs))
	for i, sub := range subs {
		p, err := s.prepare(owner, sub)
		if err != nil {
			return nil, nil, fmt.Errorf("batch task %d: %w", i, err)
		}
		prepared[i] = p
	}
	// Fleet-aware placement: group-targeted tasks sharing a target are
	// split across members in one routing decision instead of N
	// sequential Route calls against snapshots blind to the batch's
	// own load.
	s.routeClusters(prepared)
	ids := make([]types.TaskID, len(prepared))
	eps := make([]types.EndpointID, len(prepared))
	for i, p := range prepared {
		// Validation cannot fail past this point; place errors are
		// store-level (service shutting down).
		id, epID, _, err := s.place(owner, p, start)
		if err != nil {
			return nil, nil, fmt.Errorf("batch task %d: %w", i, err)
		}
		ids[i], eps[i] = id, epID
	}
	return ids, eps, nil
}

// routeClusters batch-routes every cluster of two or more prepared
// submissions sharing a group and selector: one Router.RouteBatch call
// apportions the cluster across members proportionally to live free
// capacity (largest remainder). Memoizing submissions stay on the
// per-task path (a cache hit must not consume a placement), and any
// batch-routing error simply leaves the cluster to the per-task Route
// in place (prepare already proved the selector satisfiable).
func (s *Service) routeClusters(prepared []*preparedSubmission) {
	clusters := make(map[string][]int)
	for i, p := range prepared {
		if p.group == nil || p.sub.Memoize {
			continue
		}
		key := string(p.group.ID) + "\x00" + selectorKey(p.sub.Labels)
		clusters[key] = append(clusters[key], i)
	}
	for _, idxs := range clusters {
		if len(idxs) < 2 {
			continue
		}
		first := prepared[idxs[0]]
		targets, err := s.Router.RouteBatch(router.Request{
			Group: first.group, Selector: first.sub.Labels,
		}, len(idxs))
		if err != nil || len(targets) != len(idxs) {
			continue
		}
		for j, i := range idxs {
			prepared[i].routed = targets[j]
		}
	}
}

// selectorKey canonicalizes a label selector for cluster grouping.
// Keys and values are quoted so separator characters inside labels
// cannot make two distinct selectors collide into one cluster (a
// collision would batch-route a task against the wrong selector,
// silently dropping what is otherwise a hard constraint).
func selectorKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(strconv.Quote(k))
		b.WriteByte('=')
		b.WriteString(strconv.Quote(labels[k]))
		b.WriteByte(';')
	}
	return b.String()
}

// preparedSubmission is a submission that passed every validation and
// authorization check and is safe to place.
type preparedSubmission struct {
	sub   Submission
	fn    *types.Function
	group *types.EndpointGroup
	// routed pins a placement decided by a batch routing pass; place
	// skips its per-task Route when set.
	routed types.EndpointID
	// id, when set, pre-assigns the task id (DAG nodes mint ids at
	// graph submission so futures can register before release).
	id types.TaskID
	// dagID marks a DAG node placement: trace sampling keys on it so a
	// graph's nodes sample as a unit.
	dagID types.DAGID
	// prefer asks group routing to favor this member when live —
	// DAG children lean toward the endpoint holding their inputs.
	prefer types.EndpointID
	// body, when set, is the request body sub.Payload is the tail of,
	// with spare room in front, handed over by the handler of a
	// single-frame POST /v1/tasks: place writes the task frame into it
	// instead of copying the payload into a new one.
	body []byte
}

// prepare performs all fallible validation of one submission — payload
// limit, function invocation rights, target shape, target access, and
// selector satisfiability — without touching the store, so batches can
// validate everything before enqueueing anything.
func (s *Service) prepare(owner types.UserID, sub Submission) (*preparedSubmission, error) {
	if s.cfg.MaxPayloadSize > 0 && len(sub.Payload) > s.cfg.MaxPayloadSize {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds the %d-byte service limit; stage large data out of band (§4.6)",
			ErrPayloadTooLarge, len(sub.Payload), s.cfg.MaxPayloadSize)
	}
	if sub.Walltime < 0 {
		return nil, fmt.Errorf("%w: negative walltime", ErrInvalidRequest)
	}
	if sub.MaxRetries < 0 {
		return nil, fmt.Errorf("%w: negative retry budget", ErrInvalidRequest)
	}
	fn, err := s.Registry.AuthorizeInvocation(owner, sub.FunctionID)
	if err != nil {
		return nil, err
	}
	p := &preparedSubmission{sub: sub, fn: fn}
	switch {
	case sub.GroupID != "" && sub.EndpointID != "":
		return nil, fmt.Errorf("%w: submission names both an endpoint and a group", ErrInvalidRequest)
	case sub.GroupID != "":
		g, err := s.Registry.AuthorizeGroupDispatch(owner, sub.GroupID)
		if err != nil {
			return nil, err
		}
		// Surface unsatisfiable selectors now (Route would reject them
		// anyway): prepare-time rejection keeps batches atomic.
		if len(sub.Labels) > 0 {
			if policy, err := router.ParsePolicy(g.Policy); err == nil &&
				policy != router.LabelAffinity && !s.selectorSatisfiable(g, sub.Labels) {
				return nil, fmt.Errorf("%w: %w: group %s, selector %v",
					ErrInvalidRequest, router.ErrNoSelectorMatch, g.ID, sub.Labels)
			}
		}
		p.group = g
	case sub.EndpointID != "":
		if _, err := s.Registry.AuthorizeDispatch(owner, sub.EndpointID); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: submission names neither an endpoint nor a group", ErrInvalidRequest)
	}
	return p, nil
}

// selectorSatisfiable reports whether any group member's declared
// labels satisfy every selector pair (same matcher the router places
// with, so validation and placement cannot diverge).
func (s *Service) selectorSatisfiable(g *types.EndpointGroup, selector map[string]string) bool {
	for _, m := range g.Members {
		if router.MatchesSelector(s.endpointLabels(m.EndpointID), selector) {
			return true
		}
	}
	return false
}

// place commits one prepared submission: memoization lookup, routing,
// and the store/enqueue writes.
func (s *Service) place(owner types.UserID, p *preparedSubmission, start time.Time) (types.TaskID, types.EndpointID, bool, error) {
	sub, fn := p.sub, p.fn
	epID := sub.EndpointID

	// Memoization (§4.7): only when explicitly requested. Checked
	// before placement so a cache hit neither consumes a routing
	// decision (round-robin cursor, load skew) nor reports an
	// endpoint that never saw the task.
	id := p.id
	if id == "" {
		id = s.mintTaskID()
	}

	if sub.Memoize {
		if cached, ok := s.Memo.Lookup(fn.BodyHash, sub.Payload); ok {
			cached.TaskID = id
			cached.Completed = time.Now()
			cached.Timing = types.Timing{TS: time.Since(start)}
			s.mu.Lock()
			s.memoHits++
			s.submitted++
			s.mu.Unlock()
			// Never enqueued: the record is born (or, for a held DAG
			// node, leaves pending) already retired with the cached result.
			s.land(taskrec.Event{
				Kind: taskrec.Result, ID: id, Owner: owner, Endpoint: epID, TS: cached.Timing.TS,
				Status: types.TaskSuccess, Frame: wire.EncodeResult(&cached), At: cached.Completed,
			})
			return id, epID, true, nil
		}
	}

	if p.group != nil {
		if p.routed != "" {
			// A batch routing pass already apportioned this cluster.
			epID = p.routed
		} else {
			var err error
			epID, err = s.Router.Route(router.Request{Group: p.group, Selector: sub.Labels, Prefer: p.prefer})
			if errors.Is(err, router.ErrNoSelectorMatch) {
				return "", "", false, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
			}
			if err != nil {
				return "", "", false, err
			}
		}
	}

	task := &types.Task{
		ID:         id,
		FunctionID: sub.FunctionID,
		EndpointID: epID,
		GroupID:    sub.GroupID,
		Selector:   sub.Labels,
		Owner:      owner,
		Container:  fn.Container,
		Payload:    sub.Payload,
		BodyHash:   fn.BodyHash,
		Memoize:    sub.Memoize,
		BatchN:     sub.BatchN,
		Walltime:   sub.Walltime,
		MaxRetries: sub.MaxRetries,
		AtMostOnce: sub.AtMostOnce,
		Attempt:    1,
		Submitted:  start,
	}
	if s.Trace != nil && s.traceSampled(p, task.ID) {
		// The trace context travels inside the encoded task, so it must
		// be set before EncodeTask below; the timeline anchors at the
		// submit arrival time so the submit stage covers auth/validation.
		// The propagated trace id is the exact id the OTLP exporter
		// derives, so agent-side logs correlate with exported spans.
		task.Trace = &types.TraceContext{Sampled: true, TraceID: trace.TraceID(task.ID, p.dagID)}
		s.Trace.BeginLinked(task.ID, epID, sub.GroupID, sub.FunctionID, p.dagID, start)
		s.Trace.Stamp(task.ID, trace.StageRouted)
	}

	// Create the task's record and enqueue it for the endpoint, encoding
	// once and sharing the bytes between record and queue (the encode
	// dominated the submit hot path when paid twice) — and, from there,
	// with every hop down to the worker, none of which writes to them.
	// A submission that arrived as one frame is encoded in the body it
	// arrived in, its payload left where it is. The record exists, and
	// its "queued" event is on the stream, *before* the enqueue: the
	// instant the task is poppable its dispatched and terminal events
	// can land, and they must find the owner and never show ahead of
	// "queued".
	data := wire.EncodeTaskInto(p.body, task)
	kind := taskrec.Place
	if p.id != "" {
		kind = taskrec.Release // a DAG node: its record was held at graph submission
	}
	if _, ok := s.apply(taskrec.Event{
		Kind: kind, ID: id, Owner: owner, Endpoint: epID, Attempt: task.Attempt,
		TS: time.Since(start), Memoize: sub.Memoize, Frame: data, At: time.Now(),
	}); !ok {
		s.Trace.Drop(id)
		return "", "", false, fmt.Errorf("service: task %s is not waiting to be placed", id)
	}
	s.Trace.Stamp(id, trace.StageQueued)
	if err := s.Store.Queue(store.TaskQueueName(string(epID))).Push(data); err != nil {
		// The caller is told the task failed, so no record may stand
		// for it (its one "queued" event already went out).
		s.tasks.Delete(id)
		s.Trace.Drop(id)
		return "", "", false, fmt.Errorf("service: enqueue: %w", err)
	}
	s.mu.Lock()
	s.submitted++
	s.mu.Unlock()
	if s.log.Enabled(s.ctx, slog.LevelDebug) {
		s.log.Debug("task placed",
			"task_id", string(task.ID), "endpoint_id", string(epID),
			"group_id", string(sub.GroupID), "function_id", string(sub.FunctionID),
			"trace_id", trace.TraceID(task.ID, p.dagID))
	}
	return task.ID, epID, false, nil
}

// onResult is the forwarder's result sink: it stamps the TS component,
// feeds the memo cache, and lands the result in the task's record as
// the frame it arrived in, the service-side stamps written into it
// before the record makes it visible. A redelivery's duplicate, or a
// result for a task this shard no longer holds, is dropped.
func (s *Service) onResult(res *types.Result, frame []byte) {
	rec, ok := s.tasks.Get(res.TaskID)
	if !ok || rec.Status().Terminal() {
		return
	}
	res.Timing.TS = rec.TS()
	s.Trace.Stamp(res.TaskID, trace.StageResult)
	s.Trace.Remote(res.TaskID, res.Trace)
	if rec.Memoize() {
		if task, err := wire.DecodeTask(rec.Task()); err == nil {
			s.Memo.Store(task.BodyHash, task.Payload, *res)
		}
	}
	s.land(taskrec.Event{
		Kind: taskrec.Result, ID: res.TaskID, Status: terminalStatusOf(res),
		Frame: wire.RestampResult(frame, res), At: time.Now(),
	})
}

// land retires a task with a result frame (ev is a Result or a Lose)
// and reports whether this call did: the first terminal wins, and a
// later one — a late result from a past attempt, a give-up racing the
// real result — changes nothing. The terminal event, carrying the
// frame, wakes every waiter blocked on the task through the bus; any
// dependency graph waiting on the task then takes its step.
func (s *Service) land(ev taskrec.Event) bool {
	ev.DAGID = s.dagWaitingOn(ev.ID)
	rec, ok := s.apply(ev)
	if !ok {
		return false
	}
	// Finish after the terminal publish so the publish stage covers the
	// event fan-out; folding the timeline into the stage histograms is
	// what makes the task visible to GET /v1/tasks/{id}/trace.
	s.Trace.Finish(ev.ID)
	if s.log.Enabled(s.ctx, slog.LevelDebug) {
		s.log.Debug("task retired",
			"task_id", string(ev.ID), "endpoint_id", string(rec.Endpoint()), "status", string(rec.Status()),
			"trace_id", trace.TraceID(ev.ID, ev.DAGID))
	}
	// After the publish, and with no lock held: each release or
	// dependency failure the step unlocks lands a record of its own.
	s.applyDAGResult(ev.ID, rec.Status(), rec.Endpoint(), ev.Frame)
	return true
}

// onDispatched runs in the forwarder after a task ships to the agent:
// it advances the lifecycle status and publishes the "dispatched"
// event, unless the task is already running or retired, or left this
// endpoint or attempt (redeliveries race fast completions).
func (s *Service) onDispatched(task *types.Task) {
	if _, ok := s.apply(taskrec.Event{
		Kind: taskrec.Dispatched, ID: task.ID, Endpoint: task.EndpointID, Attempt: task.Attempt, At: time.Now(),
	}); ok {
		s.Trace.Stamp(task.ID, trace.StageDispatched)
	}
}

// terminalStatusOf maps a stored result to the terminal status it
// retires its task with.
func terminalStatusOf(res *types.Result) types.TaskStatus {
	switch {
	case res.Lost:
		return types.TaskLost
	case res.Failed():
		return types.TaskFailed
	default:
		return types.TaskSuccess
	}
}

// onRunning runs in the forwarder when the agent relays a worker's
// execution-start signal: it advances the lifecycle status to running
// and publishes the TaskRunning event. The signal races the dispatch
// notification (it travels a different path); one that arrives while
// the record still says queued publishes the dispatched transition it
// proves happened first. Signals from an endpoint the task has left
// (reclaim/failover re-homed it while the old worker spun up) are
// dropped.
func (s *Service) onRunning(id types.TaskID, epID types.EndpointID) {
	if _, ok := s.apply(taskrec.Event{Kind: taskrec.Running, ID: id, Endpoint: epID, At: time.Now()}); ok {
		// Stamps are first-wins: the dispatch stamp lands here only when
		// the signal outran the notification, which then cannot rewind it.
		s.Trace.Stamp(id, trace.StageDispatched)
		s.Trace.Stamp(id, trace.StageRunning)
	}
}

// reclaim is the forwarder's OnReclaim hook: a dispatched task's
// delivery is presumed failed (lease expired, or the agent vanished
// with it in flight). At-most-once tasks are never redelivered — they
// land as TaskLost immediately. Otherwise the attempt counter bumps
// against the task's retry budget (its own MaxRetries, else its
// group's RetryBudget, else the service default); exhaustion lands
// the task as TaskLost, group tasks re-route through the failover
// path, and direct tasks requeue on their own endpoint with the
// bumped attempt. Returning true tells the forwarder the service owns
// the task now; false falls back to the forwarder's local requeue.
func (s *Service) reclaim(task *types.Task, reason string) bool {
	if s.ctx.Err() != nil {
		return false
	}
	// Already retired (the result landed concurrently with the
	// reclaim): nothing to recover, drop the stale receipt.
	if rec, ok := s.tasks.Get(task.ID); !ok || rec.Status().Terminal() {
		return true
	}
	// Every genuine reclaim — including the ones that land as lost
	// below — counts against the endpoint's delivery-health rate, so
	// load-aware routing steers new work away from a member that keeps
	// dropping dispatches (the penalty decays back to zero on its own).
	s.noteReclaim(task.EndpointID)
	s.log.Warn("task reclaimed",
		"task_id", string(task.ID), "endpoint_id", string(task.EndpointID),
		"reason", reason, "attempt", task.Attempt)
	if task.AtMostOnce {
		s.lose(task, fmt.Sprintf("at-most-once task not redelivered after %s (attempt %d)", reason, task.Attempt))
		return true
	}
	if task.Attempt > s.retryBudget(task) {
		s.lose(task, fmt.Sprintf("retry budget exhausted after %s (attempt %d of %d redeliveries allowed)",
			reason, task.Attempt, s.retryBudget(task)))
		return true
	}
	task.Attempt++
	s.mu.Lock()
	s.retried++
	s.mu.Unlock()
	if task.GroupID != "" && s.failover(task) {
		return true
	}
	// Direct task — or a group task with no healthy alternative right
	// now: requeue on its own endpoint with the bumped attempt, to be
	// redelivered when the agent is (back) up. As in failover, the
	// record moves before the enqueue and a result that slipped in wins.
	data := wire.EncodeTask(task)
	if _, ok := s.apply(taskrec.Event{
		Kind: taskrec.Requeue, ID: task.ID, Endpoint: task.EndpointID, Attempt: task.Attempt, Frame: data, At: time.Now(),
	}); !ok {
		return true
	}
	return s.Store.Queue(store.TaskQueueName(string(task.EndpointID))).Push(data) == nil
}

// --- lease-aware routing penalty ---

// decayCounter is an exponentially decaying event counter: bump adds
// one, and the value halves every ReclaimHalfLife with no events.
type decayCounter struct {
	v    float64
	last time.Time
}

// decayTo folds elapsed time into the value.
func (d *decayCounter) decayTo(now time.Time, halfLife time.Duration) {
	if dt := now.Sub(d.last); dt > 0 {
		d.v *= math.Exp2(-float64(dt) / float64(halfLife))
		d.last = now
	}
}

// noteReclaim records one reclaimed or lost dispatch against an
// endpoint.
func (s *Service) noteReclaim(id types.EndpointID) {
	now := time.Now()
	s.mu.Lock()
	c := s.reclaims[id]
	if c == nil {
		c = &decayCounter{last: now}
		s.reclaims[id] = c
	}
	c.decayTo(now, s.cfg.ReclaimHalfLife)
	c.v++
	s.mu.Unlock()
}

// ReclaimRate reports an endpoint's decayed reclaim/lost rate:
// roughly, recent reclaims weighted by age (each halves every
// ReclaimHalfLife). Zero for healthy endpoints.
func (s *Service) ReclaimRate(id types.EndpointID) float64 {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.reclaims[id]
	if c == nil {
		return 0
	}
	c.decayTo(now, s.cfg.ReclaimHalfLife)
	if c.v < 1e-3 {
		// Fully decayed: drop the entry so the map tracks only
		// endpoints with recent trouble.
		delete(s.reclaims, id)
		return 0
	}
	return c.v
}

// reclaimPenaltyWeight converts the reclaim rate into the router's
// equivalent-backlog penalty: one recent reclaim scores like this many
// queued tasks, so a flapping member must be meaningfully less loaded
// than a healthy one before it wins placement again.
const reclaimPenaltyWeight = 8.0

// routingPenalty is the router's Penalty source.
func (s *Service) routingPenalty(id types.EndpointID) float64 {
	return reclaimPenaltyWeight * s.ReclaimRate(id)
}

// retryBudget resolves a task's effective redelivery budget.
func (s *Service) retryBudget(task *types.Task) int {
	if task.MaxRetries > 0 {
		return task.MaxRetries
	}
	if task.GroupID != "" {
		if g, err := s.Registry.Group(task.GroupID); err == nil && g.RetryBudget > 0 {
			return g.RetryBudget
		}
	}
	return s.cfg.DefaultMaxRetries
}

// lose retires a task as TaskLost: the delivery layer gave up on it.
// A synthetic Lost result lands like any other, so the terminal event
// publishes, waiters wake, and the caller's future resolves with a
// typed error instead of hanging forever. A real result that raced
// the give-up and landed first stands.
func (s *Service) lose(task *types.Task, why string) {
	res := &types.Result{
		TaskID:    task.ID,
		Err:       fmt.Sprintf(`{"message":%q,"task_id":%q}`, "task lost: "+why, task.ID),
		Lost:      true,
		Completed: time.Now(),
	}
	if !s.land(taskrec.Event{Kind: taskrec.Lose, ID: task.ID, Frame: wire.EncodeResult(res), At: res.Completed}) {
		return
	}
	s.log.Warn("task lost",
		"task_id", string(task.ID), "endpoint_id", string(task.EndpointID), "reason", why)
	s.mu.Lock()
	s.lost++
	s.mu.Unlock()
}

// Status returns a task's lifecycle state. A retired record still
// answers with its terminal status.
func (s *Service) Status(id types.TaskID) (types.TaskStatus, error) {
	if rec, ok := s.tasks.Get(id); ok {
		return rec.Status(), nil
	}
	return "", fmt.Errorf("%w: task %s", registry.ErrNotFound, id)
}

// TaskTrace returns a task's recorded lifecycle timeline, access-checked
// like every other retrieval surface (a task owned by another user is
// reported as not found). Unknown ids — never submitted, traced out of
// the retention ring, or submitted while tracing was disabled — are not
// found either.
func (s *Service) TaskTrace(actor types.UserID, id types.TaskID) (*trace.Timeline, error) {
	if rec, _ := s.tasks.Get(id); foreign(rec, actor) {
		return nil, fmt.Errorf("%w: task %s", registry.ErrNotFound, id)
	}
	tl, ok := s.Trace.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: no trace for task %s", registry.ErrNotFound, id)
	}
	return tl, nil
}

// foreign reports whether rec is recorded as owned by someone other
// than actor (an empty actor is a trusted in-process caller). Ids with
// no owner on record — never submitted, or already retrieved and
// retired — pass: they behave exactly like unknown tasks on every
// surface, so rejecting them would leak existence and break
// retry-after-retrieval flows.
func foreign(rec taskrec.Record, actor types.UserID) bool {
	return actor != "" && rec.Owner() != "" && rec.Owner() != actor
}

// Result fetches a task result, optionally blocking up to wait for it.
// Retrieved results are scheduled for purge from the store (§4.1).
// Blocking is unified on the task event bus (WaitTasks): no
// per-connection waiter state survives the call. The caller's context
// bounds the block, so an abandoned HTTP retrieval releases its waiter
// immediately.
func (s *Service) Result(ctx context.Context, id types.TaskID, wait time.Duration) (*types.Result, error) {
	return s.ResultFor(ctx, "", id, wait)
}

// ResultFor is Result with per-user access control: when actor is
// non-empty, a task owned by a different user is reported as not
// found — holding a task's capability UUID no longer grants access to
// its output, matching the event stream's strict per-user model. The
// HTTP retrieval surfaces call this; trusted in-process callers use
// Result directly.
func (s *Service) ResultFor(ctx context.Context, actor types.UserID, id types.TaskID, wait time.Duration) (*types.Result, error) {
	done, _, err := s.WaitTasksFor(ctx, actor, []types.TaskID{id}, wait)
	if err != nil || len(done) == 0 {
		return nil, err // nil, nil: not ready
	}
	return done[0], nil
}

// WaitTasks blocks up to wait for any of ids to complete, returning
// the results that arrived in time (ordered by first appearance in
// ids, duplicates collapsed) and the ids still pending at the
// deadline. Retrieved results are scheduled for purge exactly like
// single-task retrieval — deferred to return, and skipped entirely
// when ctx was canceled, so a dropped connection loses nothing. One
// bus registration and one channel serve the whole batch, regardless
// of N — this is the engine behind POST /v1/tasks/wait and the SDK's
// GetResults.
func (s *Service) WaitTasks(ctx context.Context, ids []types.TaskID, wait time.Duration) ([]*types.Result, []types.TaskID) {
	done, pending, _ := s.WaitTasksFor(ctx, "", ids, wait)
	return done, pending
}

// WaitTasksFor is WaitTasks with per-user access control: when actor
// is non-empty and any requested id belongs to a different user, the
// whole request is rejected as not found before anything is waited on
// or purged. The same read of the record serves the check and the
// result.
func (s *Service) WaitTasksFor(ctx context.Context, actor types.UserID, ids []types.TaskID, wait time.Duration) ([]*types.Result, []types.TaskID, error) {
	uniq := make([]types.TaskID, 0, len(ids))
	remaining := make(map[types.TaskID]bool, len(ids))
	for _, id := range ids {
		if !remaining[id] {
			remaining[id] = true
			uniq = append(uniq, id)
		}
	}
	results := make(map[types.TaskID]*types.Result, len(uniq))
	// take collects id's result if it has landed, and reports whether
	// the caller may ask for it at all.
	take := func(id types.TaskID) bool {
		rec, _ := s.tasks.Get(id)
		if foreign(rec, actor) {
			return false
		}
		if frame := rec.Result(); frame != nil {
			// A corrupt stored result (unreachable via EncodeResult)
			// stays pending rather than failing the batch.
			if res, err := wire.DecodeResult(frame); err == nil {
				results[id] = res
				delete(remaining, id)
			}
		}
		return true
	}

	// For blocking calls, register for completion pings *before* the
	// first sweep so an arrival between sweep and block cannot be
	// missed. Non-blocking sweeps skip the registration (and its
	// global bus-lock churn) entirely.
	var notify chan types.TaskID
	if wait > 0 {
		notify = make(chan types.TaskID, len(uniq))
		cancel := s.Events.NotifyDone(uniq, notify)
		defer cancel()
	}

	for _, id := range uniq {
		if !take(id) {
			return nil, nil, fmt.Errorf("%w: task %s", registry.ErrNotFound, id)
		}
	}
	// Purge-on-read is deferred until the call returns: purging each
	// result the moment it completes mid-wait would turn a client
	// disconnect during a minutes-long hold into permanent loss of
	// everything gathered so far. On a canceled request nothing is
	// purged at all — the results stay retrievable for the retry.
	defer func() {
		if ctx.Err() != nil {
			return
		}
		for id := range results {
			s.retire(id, s.cfg.ResultTTL)
		}
	}()
	if wait > 0 && len(remaining) > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
	loop:
		for len(remaining) > 0 {
			select {
			case id := <-notify:
				if remaining[id] {
					take(id)
				}
			case <-timer.C:
				break loop
			case <-ctx.Done():
				break loop
			case <-s.ctx.Done():
				break loop
			}
		}
	}

	done := make([]*types.Result, 0, len(results))
	pending := make([]types.TaskID, 0, len(remaining))
	for _, id := range uniq {
		if res, ok := results[id]; ok {
			done = append(done, res)
		} else {
			pending = append(pending, id)
		}
	}
	return done, pending, nil
}

// streamPurgeGrace is the retention window applied to results purged
// on stream delivery when no ResultTTL is configured. Stream delivery
// is passive — the event reached *a* stream held by the owning user,
// but another client of the same user may still be polling for the
// result — so stream-triggered purges always leave a grace window
// instead of deleting immediately.
const streamPurgeGrace = 30 * time.Second

// retire schedules cleanup of a result that has been delivered: the
// record drops its frames and owner, keeping its terminal status, after
// ttl — shortly, by the store's janitor — or at once when ttl is zero.
// It reports whether this call scheduled the cleanup: false for a
// result some earlier delivery already scheduled, or that is gone.
func (s *Service) retire(id types.TaskID, ttl time.Duration) bool {
	ev := taskrec.Event{Kind: taskrec.Retire, ID: id}
	if ttl > 0 {
		ev.At = time.Now().Add(ttl)
	}
	_, ok := s.apply(ev)
	return ok
}

// mintTaskID generates a task id. A sharded service mints ids its own
// shard owns on the ring, so any front door can route a result, wait,
// or status request for a bare task id to the owner without a lookup.
func (s *Service) mintTaskID() types.TaskID {
	if s.cfg.Ring == nil {
		return types.NewTaskID()
	}
	return shard.MintAligned(s.cfg.Ring, types.NewTaskID, shard.TaskKey)
}

// Stats returns cumulative counters: submitted tasks and memo hits.
func (s *Service) Stats() (submitted, memoHits int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitted, s.memoHits
}

// StatsSnapshot assembles the GET /v1/stats document: this instance's
// cumulative task totals, delivery outcomes, gateway activity, and one
// per-endpoint counter block. In a sharded deployment the snapshot
// covers only this shard (shared nothing — poll every shard for the
// fleet view).
func (s *Service) StatsSnapshot() api.StatsResponse {
	s.mu.Lock()
	resp := api.StatsResponse{
		Submitted: s.submitted, MemoHits: s.memoHits, Rerouted: s.rerouted,
		Retried: s.retried, Lost: s.lost,
		Proxied: s.proxied, Redirected: s.redirected,
		DAGsSubmitted: s.dagsSubmitted, DAGsCompleted: s.dagsCompleted,
		DAGsEvicted: s.dagsEvicted,
		DAGNodes:    s.dagNodes, DAGReleases: s.dagReleases,
		DAGDepFailures: s.dagDepFailures, DAGMemoShortcut: s.dagMemoHits,
		StreamPurged: s.streamPurged.Load(),
	}
	s.mu.Unlock()
	resp.DAGsActive = s.DAGsActive()
	if s.cfg.Ring != nil {
		resp.ShardID = string(s.cfg.Ring.SelfID())
		resp.Shards = s.cfg.Ring.N()
	}
	resp.ElasticEvaluations = s.Elastic.Evaluations()
	es := s.Events.Stats()
	resp.EventUsers = es.Users
	resp.EventSubscribers = es.Subscribers
	resp.EventBufferedEvents = es.BufferedEvents
	resp.EventPendingDone = es.PendingDone
	resp.EventSeqTombstones = es.SeqTombstones
	resp.TraceActive, resp.TraceCompleted, resp.TraceEvicted = s.Trace.Stats()
	if s.Exporter != nil {
		est := s.Exporter.Stats()
		resp.OTLPExported = est.Exported
		resp.OTLPDropped = est.Dropped
		resp.OTLPExportErrors = est.ExportErrors
		resp.OTLPQueueDepth = est.QueueDepth
	}
	resp.FleetScrapeErrors = s.fleetScrapeErrors.Load()
	eps := s.Registry.Endpoints()
	sort.Slice(eps, func(i, j int) bool { return eps[i].ID < eps[j].ID })
	resp.Endpoints = make([]api.EndpointStats, 0, len(eps))
	for _, ep := range eps {
		st := api.EndpointStats{EndpointID: ep.ID}
		if f, ok := s.Forwarder(ep.ID); ok {
			fst := f.Status()
			st.Connected = fst.Connected
			st.Queued = fst.QueuedTasks
			st.Outstanding = f.Outstanding()
			st.Dispatched, st.Completed, st.Requeued = f.Stats()
			st.Reclaimed = f.Reclaimed()
		}
		st.ReclaimRate = s.ReclaimRate(ep.ID)
		resp.Endpoints = append(resp.Endpoints, st)
	}
	if ws, ok := s.Store.WALStats(); ok {
		resp.WAL = &api.WALStats{
			Appends: ws.Appends, AppendedBytes: ws.AppendedBytes,
			Fsyncs: ws.Fsyncs, FsyncNanos: ws.FsyncNanos,
			Rotations: ws.Rotations, Snapshots: ws.Snapshots,
			Recovered: ws.Recovered, RecoveredRecords: ws.RecoveredRecords,
			RecoveredSnapshot: ws.RecoveredSnapshot, TornRecords: ws.TornRecords,
		}
	}
	return resp
}

// Ready reports whether this instance should receive traffic — the
// debug server's /readyz probe. Not ready while shutting down, when a
// durable instance's WAL is not open (recovery runs synchronously in
// Open, so an open WAL means replay completed) or has failed (its
// I/O error is sticky: nothing accepted since is durable), or when a
// sharded instance's own id is missing from the ring it loaded.
func (s *Service) Ready() (bool, string) {
	if s.ctx.Err() != nil {
		return false, "shutting down"
	}
	if s.cfg.DataDir != "" {
		if _, ok := s.Store.WALStats(); !ok {
			return false, "wal not open"
		}
		if err := s.Store.WALErr(); err != nil {
			return false, "wal: " + err.Error()
		}
	}
	if s.sharded() {
		self := s.cfg.Ring.SelfID()
		if _, ok := s.cfg.Ring.Lookup(self); !ok {
			return false, fmt.Sprintf("shard %s not in ring", self)
		}
	}
	return true, "ready"
}

// Rerouted returns how many queued tasks the failover path has moved
// to surviving group members.
func (s *Service) Rerouted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rerouted
}

// DeliveryStats returns cumulative delivery-layer counters: how many
// dispatched tasks were redelivered after a reclaim, and how many
// were retired as TaskLost.
func (s *Service) DeliveryStats() (retried, lost int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retried, s.lost
}

// EndpointStatus reports the forwarder's view of an endpoint.
func (s *Service) EndpointStatus(id types.EndpointID) (*types.EndpointStatus, error) {
	if _, err := s.Registry.Endpoint(id); err != nil {
		return nil, err
	}
	f, ok := s.Forwarder(id)
	if !ok {
		return &types.EndpointStatus{ID: id}, nil
	}
	return f.Status(), nil
}

var _ http.Handler = (*Service)(nil) // Service serves its REST API (handlers.go)
