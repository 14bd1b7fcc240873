// Crash recovery for a durable service instance (Config.DataDir).
//
// What the journal holds is the control plane's full word: registry
// records (one JSON blob per record in "reg:<kind>" hashes), task
// records/statuses/owners/results (the same hashes the live path
// writes), per-endpoint task queues with their in-flight leases, and
// each user's newest event seq. What it deliberately does not hold is
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

// recoverRuntime rebuilds everything the live request path needs that
// is not a plain store read: the in-flight task map, event-stream
// numbering, the delivery state of every queue, and one forwarder per
// endpoint. Runs after the registry is recovered and before any
// background goroutine starts.
func (s *Service) recoverRuntime() error {
	// A data dir written before the binary frame codec holds JSON task
	// and result records that no longer decode. Every sweep below would
	// treat them as corrupt and drop or lose the tasks one by one;
	// refuse to start instead.
	for _, rec := range []struct {
		hash   string
		decode func([]byte) error
	}{
		{tasksHash, func(b []byte) error { _, err := wire.DecodeTask(b); return err }},
		{resultsHash, func(b []byte) error { _, err := wire.DecodeResult(b); return err }},
	} {
		h := s.Store.Hash(rec.hash)
		for _, id := range h.Keys() {
			if b, ok := h.Get(id); ok && errors.Is(rec.decode(b), wire.ErrLegacyJSON) {
				return fmt.Errorf("service: data dir %s is not readable by this build: %s record %s: %w",
					s.cfg.DataDir, rec.hash, id, wire.ErrLegacyJSON)
			}
		}
	}

	// Dependency graphs first: recoverDAGs rebuilds the graph tables
	// from the journal and reports the node ids the generic sweeps
	// below must leave alone — held nodes have owner/status records but
	// no task record (by design, they were never placed), and the
	// inflight sweep would otherwise retire them as lost.
	dagHeld := s.recoverDAGs()

	// In-flight map: every owner-recorded task without a stored result
	// is still live from its caller's perspective — the terminal event
	// never published, so whatever happens to the task next (delivery,
	// redelivery, loss) must find the owner and wake waiters.
	owners := s.Store.Hash(ownersHash)
	results := s.Store.Hash(resultsHash)
	tasksH := s.Store.Hash(tasksHash)
	s.mu.Lock()
	for _, id := range owners.Keys() {
		if dagHeld[types.TaskID(id)] {
			continue
		}
		if _, done := results.Get(id); done {
			continue
		}
		owner, ok := owners.Get(id)
		if !ok {
			continue
		}
		var epID types.EndpointID
		if data, ok := tasksH.Get(id); ok {
			if task, err := wire.DecodeTask(data); err == nil {
				epID = task.EndpointID
			}
		}
		s.inflight[types.TaskID(id)] = inflightTask{owner: types.UserID(owner), endpoint: epID}
	}
	s.mu.Unlock()

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
	s.sweepInflight(eps)
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
		if st, ok := s.Store.Hash(statusHash).Get(string(task.ID)); ok && types.TaskStatus(st).Terminal() {
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
// between a dispatch ack and its result write. They re-enter through
// the reclaim path (budget checks, at-most-once handling, failover)
// so their callers' futures resolve instead of hanging forever.
func (s *Service) sweepInflight(eps []*types.Endpoint) {
	present := make(map[types.TaskID]bool)
	for _, ep := range eps {
		q := s.Store.Queue(store.TaskQueueName(string(ep.ID)))
		for _, item := range q.Items() {
			if task, err := wire.DecodeTask(item); err == nil {
				present[task.ID] = true
			}
		}
		for _, item := range q.Pending() {
			if task, err := wire.DecodeTask(item); err == nil {
				present[task.ID] = true
			}
		}
	}
	s.mu.Lock()
	live := make(map[types.TaskID]inflightTask, len(s.inflight))
	for id, info := range s.inflight {
		live[id] = info
	}
	s.mu.Unlock()
	for id, info := range live {
		if present[id] {
			continue
		}
		if st, ok := s.Store.Hash(statusHash).Get(string(id)); ok && types.TaskStatus(st).Terminal() {
			continue
		}
		data, ok := s.Store.Hash(tasksHash).Get(string(id))
		if !ok {
			s.lose(&types.Task{ID: id, Owner: info.owner}, "task record lost in crash")
			continue
		}
		task, err := wire.DecodeTask(data)
		if err != nil {
			s.lose(&types.Task{ID: id, Owner: info.owner}, "task record corrupt after crash")
			continue
		}
		s.reclaim(task, "shard restart")
	}
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
