// Shard drain and handoff: gracefully removing one shard from a
// sharded deployment without losing its queued work.
//
// Drain computes, for every group and endpoint this shard serves, the
// ring's next owner (Ring.OwnerExcluding — exactly where the key's
// ownership lands once this shard leaves), ships the records plus all
// queued tasks there over the hop-authenticated handoff surface, and
// flips the gateway so traffic for the moved keys forwards to the
// importer. The importer marks the keys as locally served — its own
// ring still assigns them to the drained shard, so without the
// override the loop guard would bounce them back. Both sides journal
// their overrides on durable instances, so a crash on either side of
// a completed handoff recovers the same routing.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"funcx/internal/api"
	"funcx/internal/shard"
	"funcx/internal/store"
	"funcx/internal/taskrec"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// movedHash/importedHash journal the gateway overrides on a durable
// instance (field = ring key; value = destination shard id / "1").
const (
	movedHash    = "handoff:moved"
	importedHash = "handoff:imported"
)

// DrainReport summarizes a completed drain.
type DrainReport struct {
	Endpoints int
	Groups    int
	Tasks     int
	// Destinations counts handed-off endpoints per receiving shard.
	Destinations map[shard.ID]int
}

// servesKey reports whether this shard serves a ring key once the
// drain/handoff overrides are applied.
func (s *Service) servesKey(key string) bool {
	return s.keyOwner(key).ID == s.cfg.Ring.SelfID()
}

// keyOwner resolves the shard serving a key: imported keys are served
// here regardless of the ring, moved keys by their importer, and
// everything else by the ring's owner.
func (s *Service) keyOwner(key string) shard.Info {
	s.handoffMu.Lock()
	imported := s.importedKeys[key]
	dst, moved := s.movedKeys[key]
	s.handoffMu.Unlock()
	if imported {
		return s.cfg.Ring.Self()
	}
	if moved {
		if info, ok := s.cfg.Ring.Lookup(dst); ok {
			return info
		}
	}
	return s.cfg.Ring.Owner(key)
}

// KeyOwnerID reports which shard serves a ring key once drain and
// handoff overrides are applied — the id the gateway would route to.
// Harness helper for planned-departure orchestration (core.DrainShard
// uses it to find where each drained endpoint landed).
func (s *Service) KeyOwnerID(key string) shard.ID {
	if !s.sharded() {
		return ""
	}
	return s.keyOwner(key).ID
}

// movedAway reports whether a key was handed off by this shard. The
// gateway uses it to allow one extra hop for hop-marked requests: the
// importer serves the key locally, so the chain terminates.
func (s *Service) movedAway(key string) bool {
	s.handoffMu.Lock()
	defer s.handoffMu.Unlock()
	_, ok := s.movedKeys[key]
	return ok
}

// markMoved records (and journals) handed-off keys.
func (s *Service) markMoved(dst shard.ID, keys ...string) {
	s.handoffMu.Lock()
	for _, k := range keys {
		s.movedKeys[k] = dst
	}
	s.handoffMu.Unlock()
	h := s.Store.Hash(movedHash)
	for _, k := range keys {
		h.Set(k, []byte(dst))
	}
}

// markImported records (and journals) imported keys.
func (s *Service) markImported(keys ...string) {
	s.handoffMu.Lock()
	for _, k := range keys {
		s.importedKeys[k] = true
	}
	s.handoffMu.Unlock()
	h := s.Store.Hash(importedHash)
	for _, k := range keys {
		h.Set(k, []byte("1"))
	}
}

// recoverHandoffState reloads the journaled gateway overrides; called
// from recoverRuntime.
func (s *Service) recoverHandoffState() {
	moved := s.Store.Hash(movedHash)
	imported := s.Store.Hash(importedHash)
	s.handoffMu.Lock()
	defer s.handoffMu.Unlock()
	for _, k := range moved.Keys() {
		if v, ok := moved.Get(k); ok {
			s.movedKeys[k] = shard.ID(v)
		}
	}
	for _, k := range imported.Keys() {
		s.importedKeys[k] = true
	}
}

// Drain hands every endpoint, group, and queued task this shard
// serves to the ring's next owners and flips the gateway to forward
// their future traffic there. The shard keeps running — it remains a
// valid front door, it just owns nothing — so clients holding its
// address lose nothing. Handoffs cluster by group (a group and all
// its members move together, preserving the members-are-local
// invariant on the importer); an endpoint in several groups follows
// the first by group-id order. Agents must re-attach to the importer
// (ReissueEndpointToken) exactly as after a crash recovery.
func (s *Service) Drain() (*DrainReport, error) {
	if !s.sharded() {
		return nil, fmt.Errorf("service: drain requires a sharded deployment")
	}
	self := s.cfg.Ring.SelfID()
	report := &DrainReport{Destinations: make(map[shard.ID]int)}

	// Cluster records by destination.
	type batch struct {
		endpoints []*types.Endpoint
		groups    []*types.EndpointGroup
	}
	batches := make(map[shard.ID]*batch)
	at := func(dst shard.ID) *batch {
		b := batches[dst]
		if b == nil {
			b = &batch{}
			batches[dst] = b
		}
		return b
	}
	assigned := make(map[types.EndpointID]bool)
	groups := s.Registry.Groups()
	sort.Slice(groups, func(i, j int) bool { return groups[i].ID < groups[j].ID })
	for _, g := range groups {
		key := shard.GroupKey(g.ID)
		if !s.servesKey(key) {
			continue // already handed off, or never ours
		}
		dst := s.cfg.Ring.Ring().OwnerExcluding(key, self)
		b := at(dst)
		b.groups = append(b.groups, g)
		for _, m := range g.Members {
			if assigned[m.EndpointID] {
				continue
			}
			if ep, err := s.Registry.Endpoint(m.EndpointID); err == nil {
				assigned[m.EndpointID] = true
				b.endpoints = append(b.endpoints, ep)
			}
		}
	}
	eps := s.Registry.Endpoints()
	sort.Slice(eps, func(i, j int) bool { return eps[i].ID < eps[j].ID })
	for _, ep := range eps {
		key := shard.EndpointKey(ep.ID)
		if assigned[ep.ID] || !s.servesKey(key) {
			continue
		}
		assigned[ep.ID] = true
		b := at(s.cfg.Ring.Ring().OwnerExcluding(key, self))
		b.endpoints = append(b.endpoints, ep)
	}

	dsts := make([]shard.ID, 0, len(batches))
	for dst := range batches {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		b := batches[dst]
		if err := s.handoffBatch(dst, b.endpoints, b.groups, report); err != nil {
			return report, err
		}
	}
	return report, nil
}

// handoffBatch ships one destination's endpoints, groups, and queued
// tasks, and on success flips the local gateway overrides. On failure
// the drained queues and forwarders are restored so the shard keeps
// serving exactly as before.
func (s *Service) handoffBatch(dst shard.ID, eps []*types.Endpoint, groups []*types.EndpointGroup, report *DrainReport) error {
	target, ok := s.cfg.Ring.Lookup(dst)
	if !ok {
		return fmt.Errorf("service: handoff destination %s not in ring", dst)
	}

	// Freeze delivery, reclaim in-flight leases (their agents leave
	// with this shard), and drain every queue.
	req := api.ShardHandoffRequest{From: string(s.cfg.Ring.SelfID()), Endpoints: eps, Groups: groups}
	drained := make(map[types.EndpointID][][]byte)
	for _, ep := range eps {
		if f, ok := s.Forwarder(ep.ID); ok {
			f.Stop()
		}
		q := s.Store.Queue(store.TaskQueueName(string(ep.ID)))
		q.RequeuePending()
		for {
			data, ok := q.TryPop()
			if !ok {
				break
			}
			drained[ep.ID] = append(drained[ep.ID], data)
			task, err := wire.DecodeTask(data)
			if err != nil {
				continue
			}
			rec, _ := s.tasks.Get(task.ID)
			req.Tasks = append(req.Tasks, api.HandoffTask{
				ID: string(task.ID), Data: data, Status: string(rec.Status()), Owner: string(rec.Owner()),
			})
		}
	}

	restore := func() {
		for _, ep := range eps {
			q := s.Store.Queue(store.TaskQueueName(string(ep.ID)))
			for _, data := range drained[ep.ID] {
				q.Push(data) //nolint:errcheck // restoring drained work
			}
			s.startForwarder(ep.ID) //nolint:errcheck // best-effort restore
		}
	}

	body, err := json.Marshal(req)
	if err != nil {
		restore()
		return fmt.Errorf("service: encoding handoff: %w", err)
	}
	hreq, err := http.NewRequestWithContext(s.ctx, http.MethodPost, target.BaseURL+"/v1/shard/handoff", bytes.NewReader(body))
	if err != nil {
		restore()
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ShardHopHeader, string(s.cfg.Ring.SelfID()))
	hreq.Header.Set(ShardHopTokenHeader, s.hopToken)
	resp, err := s.proxyClient.Do(hreq)
	if err != nil {
		restore()
		return fmt.Errorf("service: handoff to %s: %w", dst, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		restore()
		var e api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck // best-effort detail
		return fmt.Errorf("service: handoff to %s: %s (%s)", dst, resp.Status, e.Error)
	}

	// Committed: the importer owns the keys now. Flip the gateway,
	// retire local delivery state, and let the registry records stand
	// (they are harmless — the overrides route around them). The
	// moved tasks' records go: the tasks live on the importer now.
	keys := make([]string, 0, len(eps)+len(groups)+len(req.Tasks))
	for _, ep := range eps {
		keys = append(keys, shard.EndpointKey(ep.ID))
		s.mu.Lock()
		delete(s.forwarders, ep.ID)
		s.mu.Unlock()
	}
	for _, g := range groups {
		keys = append(keys, shard.GroupKey(g.ID))
	}
	for _, t := range req.Tasks {
		id := types.TaskID(t.ID)
		keys = append(keys, shard.TaskKey(id))
		s.tasks.Delete(id)
	}
	s.markMoved(dst, keys...)
	report.Endpoints += len(eps)
	report.Groups += len(groups)
	report.Tasks += len(req.Tasks)
	report.Destinations[dst] += len(eps)
	return nil
}

// handleShardHandoff serves POST /v1/shard/handoff: a draining peer
// re-homing its endpoints here. Hop-authenticated only.
func (s *Service) handleShardHandoff(w http.ResponseWriter, r *http.Request) {
	if !s.sharded() || s.hopFrom(r) == "" {
		writeJSON(w, http.StatusForbidden, api.ErrorResponse{Error: "service: shard-to-shard surface"})
		return
	}
	var req api.ShardHandoffRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "service: bad handoff body: " + err.Error()})
		return
	}
	resp, err := s.importHandoff(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, *resp)
}

// importHandoff adopts a draining peer's endpoints: records first
// (journaled through the registry change hook on a durable instance),
// then the gateway overrides, forwarders, and finally the tasks —
// each placed like a fresh submission that keeps its id, owner and
// attempt count, so waits, events, and access control work here
// exactly as they did on the origin shard.
func (s *Service) importHandoff(req *api.ShardHandoffRequest) (*api.ShardHandoffResponse, error) {
	for _, ep := range req.Endpoints {
		if err := s.Registry.PutEndpoint(ep); err != nil {
			return nil, err
		}
	}
	for _, g := range req.Groups {
		if err := s.Registry.PutGroup(g); err != nil {
			return nil, err
		}
	}
	keys := make([]string, 0, len(req.Endpoints)+len(req.Groups)+len(req.Tasks))
	for _, ep := range req.Endpoints {
		keys = append(keys, shard.EndpointKey(ep.ID))
	}
	for _, g := range req.Groups {
		keys = append(keys, shard.GroupKey(g.ID))
	}
	for _, t := range req.Tasks {
		keys = append(keys, shard.TaskKey(types.TaskID(t.ID)))
	}
	s.markImported(keys...)
	for _, ep := range req.Endpoints {
		if _, ok := s.Forwarder(ep.ID); ok {
			continue
		}
		if _, err := s.startForwarder(ep.ID); err != nil {
			return nil, fmt.Errorf("service: starting forwarder for imported endpoint %s: %w", ep.ID, err)
		}
	}
	imported := 0
	for _, t := range req.Tasks {
		task, err := wire.DecodeTask(t.Data)
		if err != nil {
			continue // undecodable task: the origin already counted it gone
		}
		id := types.TaskID(t.ID)
		if _, ok := s.apply(taskrec.Event{
			Kind: taskrec.Place, ID: id, Owner: types.UserID(t.Owner), Endpoint: task.EndpointID,
			Attempt: task.Attempt, Memoize: task.Memoize, Frame: t.Data, At: time.Now(),
		}); !ok {
			continue // a retried handoff: an earlier attempt already placed it here
		}
		if err := s.Store.Queue(store.TaskQueueName(string(task.EndpointID))).Push(t.Data); err != nil {
			return nil, fmt.Errorf("service: enqueueing imported task %s: %w", id, err)
		}
		imported++
	}
	return &api.ShardHandoffResponse{Endpoints: len(req.Endpoints), Groups: len(req.Groups), Tasks: imported}, nil
}
