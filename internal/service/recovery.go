// Crash recovery for a durable service instance (Config.DataDir).
//
// What the journal holds is the control plane's full word: registry
// records (one JSON blob per record in "reg:<kind>" hashes), the task
// table (every transition of every task's record, replayed through
// taskrec.Transition by the store before the service sees it),
// per-endpoint task queues with their in-flight leases, and each
// user's newest event seq. What it deliberately does not hold is
// runtime state — forwarders, agent connections, client secrets,
// leases' wall-clock deadlines — which recovery rebuilds or resolves
// below. The sequence in recoverRegistry/recoverRuntime runs inside
// Open, strictly before the service accepts a request.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"funcx/internal/api"
	"funcx/internal/registry"
	"funcx/internal/store"
	"funcx/internal/taskrec"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// registryHashPrefix namespaces the journaled registry hashes: one
// hash per record kind ("reg:users", "reg:functions", ...), field =
// record id, value = the record as JSON.
const registryHashPrefix = "reg:"

// persistRegistryRecord is the registry's change hook on a durable
// instance: every successful mutation journals the complete record.
// It runs while the registry lock is held; the store write does not
// re-enter the registry, so the nesting is safe.
func (s *Service) persistRegistryRecord(kind, id string, record any) {
	data, err := json.Marshal(record)
	if err != nil {
		return // registry records are plain structs; cannot fail
	}
	s.Store.Hash(registryHashPrefix+kind).Set(id, data)
}

// recoverRegistry rebuilds the registry from its journaled records.
// The Put upserts perform no cross-record validation — every record
// was validated when first registered — and the change hook is not
// installed yet, so nothing is re-journaled.
func (s *Service) recoverRegistry() error {
	if !s.Store.Recovered() {
		return nil
	}
	if err := recoverKind(s, registry.KindUser, s.Registry.PutUser); err != nil {
		return err
	}
	if err := recoverKind(s, registry.KindFunction, s.Registry.PutFunction); err != nil {
		return err
	}
	if err := recoverKind(s, registry.KindEndpoint, s.Registry.PutEndpoint); err != nil {
		return err
	}
	return recoverKind(s, registry.KindGroup, s.Registry.PutGroup)
}

// recoverKind replays one journaled record kind through its upsert.
func recoverKind[T any](s *Service, kind string, put func(*T) error) error {
	h := s.Store.Hash(registryHashPrefix + kind)
	for _, id := range h.Keys() {
		data, ok := h.Get(id)
		if !ok {
			continue
		}
		var rec T
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("service: corrupt journaled %s record %s: %w", kind, id, err)
		}
		if err := put(&rec); err != nil {
			return fmt.Errorf("service: recovering %s record %s: %w", kind, id, err)
		}
	}
	return nil
}

// legacyTaskHashes are the four hashes a task's state was spread over
// before the task table. This build reads none of them.
var legacyTaskHashes = []string{"owners", "tasks", "status", "results"}

// recoverRuntime rebuilds everything the live request path needs that
// is not a plain store read: event-stream numbering, the delivery
// state of every queue, and one forwarder per endpoint. Task records
// need nothing: the store replayed them. Runs after the registry is
// recovered and before any background goroutine starts.
func (s *Service) recoverRuntime() error {
	// A data dir written before the task table holds its tasks in
	// hashes nothing reads any more: every one of them would be
	// silently forgotten. Refuse to start instead.
	for _, name := range legacyTaskHashes {
		if n := s.Store.Hash(name).Len(); n > 0 {
			return fmt.Errorf("service: data dir %s is not readable by this build: hash %q holds %d task records from before the task table",
				s.cfg.DataDir, name, n)
		}
	}

	// Likewise a result landed by a build whose result frames had
	// another layout: every reader of it would fail one task at a time.
	var legacy error
	s.tasks.Range(func(id types.TaskID, rec taskrec.Record) {
		if legacy != nil || len(rec.Result()) == 0 {
			return
		}
		if _, err := wire.DecodeResult(rec.Result()); errors.Is(err, wire.ErrLegacyResult) {
			legacy = fmt.Errorf("service: data dir %s is not readable by this build: the result of task %s: %w", s.cfg.DataDir, id, err)
		}
	})
	if legacy != nil {
		return legacy
	}

	// Dependency graphs first: recoverDAGs rebuilds the graph tables
	// from the journal and reports the graph nodes' task ids, whose
	// pending records the sweep below must leave to resumeDAGs.
	dagNodes := s.recoverDAGs()

	// Event numbering: seed each user's stream past the newest seq the
	// dead process published, so recovery-side events cannot reuse a
	// seq some client already consumed as a Last-Event-ID.
	seqs := s.Store.Hash(eventSeqHash)
	for _, user := range seqs.Keys() {
		if b, ok := seqs.Get(user); ok {
			if seq, err := strconv.ParseUint(string(b), 10, 64); err == nil {
				s.Events.SeedSeq(types.UserID(user), seq)
			}
		}
	}

	// Gateway overrides from any pre-crash drain or handoff import.
	s.recoverHandoffState()

	// Delivery state, then forwarders: reconciliation must finish
	// before a forwarder can pop (and lease) anything.
	eps := s.Registry.Endpoints()
	for _, ep := range eps {
		s.reconcileQueue(ep.ID)
	}
	s.sweepInflight(eps, dagNodes)
	for _, ep := range eps {
		if _, err := s.startForwarder(ep.ID); err != nil {
			return fmt.Errorf("service: restarting forwarder for endpoint %s: %w", ep.ID, err)
		}
	}
	// Re-drive recovered graphs last: re-releases need live forwarders
	// to place into, and transitions that landed pre-crash re-apply
	// through the ordinary completion path.
	s.resumeDAGs()
	return nil
}

// reconcileQueue resolves the recovered delivery state of one
// endpoint's queue. A recovered lease means the task was dispatched
// to an agent that died with the shard: if its result already landed
// the lease is just a stale receipt (acked away); an at-most-once
// task may have executed, so it lands as lost rather than redeliver;
// everything else requeues for redelivery when an agent re-attaches —
// the same at-least-once contract a live reclaim applies.
func (s *Service) reconcileQueue(epID types.EndpointID) {
	q := s.Store.Queue(store.TaskQueueName(string(epID)))
	for receipt, item := range q.Pending() {
		task, err := wire.DecodeTask(item)
		if err != nil {
			q.Ack(receipt) //nolint:errcheck // dropping an undecodable lease
			continue
		}
		if rec, ok := s.tasks.Get(task.ID); !ok || rec.Status().Terminal() {
			q.Ack(receipt) //nolint:errcheck // result already landed
			continue
		}
		if task.AtMostOnce {
			q.Ack(receipt) //nolint:errcheck // consumed below as lost
			s.lose(task, "shard restarted with the task in flight")
			continue
		}
		q.RequeueReceipts(receipt)
	}
}

// sweepInflight catches tasks the journal shows as accepted but
// neither queued, leased, nor finished — the narrow window of a crash
// between a dispatch ack and its result landing, or between a record's
// creation and its enqueue. They re-enter through the reclaim path
// (budget checks, at-most-once handling, failover) so their callers'
// futures resolve instead of hanging forever. A pending record is a
// held DAG node, resumeDAGs' to drive, unless no recovered graph
// claims it (the crash fell between the hold and the graph record).
func (s *Service) sweepInflight(eps []*types.Endpoint, dagNodes map[types.TaskID]bool) {
	// reconcileQueue has emptied every pending set back into its queue.
	present := make(map[types.TaskID]bool)
	for _, ep := range eps {
		for _, item := range s.Store.Queue(store.TaskQueueName(string(ep.ID))).Items() {
			if task, err := wire.DecodeTask(item); err == nil {
				present[task.ID] = true
			}
		}
	}
	s.tasks.Range(func(id types.TaskID, rec taskrec.Record) {
		if rec.Status().Terminal() || present[id] {
			return
		}
		if rec.Status() == types.TaskPending {
			if !dagNodes[id] {
				s.lose(&types.Task{ID: id}, "held for a graph that was lost in the crash")
			}
			return
		}
		task, err := wire.DecodeTask(rec.Task())
		if err != nil {
			s.lose(&types.Task{ID: id}, "task record corrupt after crash")
			return
		}
		s.reclaim(task, "shard restart")
	})
}

// antiEntropyTimeout bounds each peer's share of the recovered-boot
// function pull: a down peer must not stall recovery.
const antiEntropyTimeout = 2 * time.Second

// pullFunctions converges function records after a recovered boot.
// Function registration replicates to peers at write time (best
// effort), so registrations broadcast while this shard was down were
// simply lost to it; the shard pulls every peer's records over the
// hop-authenticated export and merges the ones it is missing or holds
// an older version of. Best effort per peer — an unreachable peer is
// skipped, exactly as it would have been at write time.
func (s *Service) pullFunctions() {
	for _, peer := range s.cfg.Ring.Peers() {
		func() {
			ctx, cancel := context.WithTimeout(s.ctx, antiEntropyTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer.BaseURL+"/v1/shard/functions", nil)
			if err != nil {
				return
			}
			req.Header.Set(ShardHopHeader, string(s.cfg.Ring.SelfID()))
			req.Header.Set(ShardHopTokenHeader, s.replicateToken)
			resp, err := s.proxyClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var out api.FunctionExportResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				return
			}
			for _, fn := range out.Functions {
				if cur, err := s.Registry.Function(fn.ID); err == nil && cur.Version >= fn.Version {
					continue
				}
				s.Registry.PutFunction(fn) //nolint:errcheck // best-effort merge
			}
		}()
	}
}
