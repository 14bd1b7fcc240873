// Server-side task composition: the service face of internal/dag.
//
// A client submits a whole dependency graph in one call (or chains a
// single task onto earlier ones via SubmitSpec.DependsOn); from then
// on every edge is traversed inside the fabric. The service holds the
// graph, releases a child the instant its last parent lands a terminal
// event, binds the parents' outputs into the child's payload without
// the bytes ever leaving the service (large outputs become
// dataref.Refs), routes the child with affinity toward where its
// parents ran, and propagates a failed or lost parent to every
// descendant as a typed dag_dependency_failed result — so no future
// ever hangs. Graph state is journaled through the WAL (dagsHash for
// the graph record, dagOutputsHash for parent outputs awaiting
// binding), and recovery.go replays pending edges after a crash.
//
// Lock order: dagMu is taken alone or over s.mu (and over a task
// record's lock, for reads), never under either and never across a
// task-table transition — landing a result (land) re-enters
// applyDAGResult, so landing one while holding dagMu would
// self-deadlock. Every completion therefore *collects* the releases and
// synthetic failures it unlocked under dagMu and executes them after
// the unlock; each executed action lands its own result, recursing
// through land one graph level at a time.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/dag"
	"funcx/internal/dataref"
	"funcx/internal/registry"
	"funcx/internal/shard"
	"funcx/internal/taskrec"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// dagRef locates one graph node waiting on a task id. A slice of these
// hangs off every pending task in dagByTask: one external parent may
// feed several graphs, and the completion hook fires once per stored
// result, so a single firing must transition all of them.
type dagRef struct {
	id  types.DAGID
	key string
}

// dagRelease carries everything needed to place one claimed node
// outside the graph lock: the payload is already bound (parent outputs
// inlined or ref'd), the task id pre-minted, and the preferred endpoint
// chosen from where the parents ran.
type dagRelease struct {
	dagID   types.DAGID
	key     string
	taskID  types.TaskID
	owner   types.UserID
	spec    dag.TaskSpec
	payload []byte
	prefer  types.EndpointID
	// dependent marks a release driven by parent completions (an
	// internal edge traversed server-side), as opposed to a root.
	dependent bool
}

// dagFail carries one claimed child's synthetic terminal failure.
type dagFail struct {
	taskID  types.TaskID
	owner   types.UserID
	errJSON string
	// dep marks a typed dependency propagation (counted separately
	// from binding/validation failures).
	dep bool
}

// dagDone captures a newly finished graph for its lifecycle event.
type dagDone struct {
	id     types.DAGID
	owner  types.UserID
	status types.TaskStatus
}

// defaultDAGInlineLimit is the largest parent output bound inline into
// a child payload; larger outputs register in the dataref fabric and
// travel as references (§4.6: large data moves out of band).
const defaultDAGInlineLimit = 64 << 10

// dagInlineLimit resolves Config.DAGInlineLimit (0 = default, negative
// = always inline).
func (s *Service) dagInlineLimit() int {
	if s.cfg.DAGInlineLimit != 0 {
		return s.cfg.DAGInlineLimit
	}
	return defaultDAGInlineLimit
}

// mintDAGID mints a graph id this shard owns on the ring, so any front
// door can route GET /v1/dags/{id} to the owner from the id alone.
func (s *Service) mintDAGID() types.DAGID {
	if s.cfg.Ring == nil {
		return types.NewDAGID()
	}
	return shard.MintAligned(s.cfg.Ring, types.NewDAGID, shard.DAGKey)
}

// SubmitDAG validates, registers, journals, and starts one dependency
// graph, returning its id, the pre-minted task id of every node, and
// the keys served wholesale from the memo cache at submit time. Every
// node is validated (payload limit, invocation rights, target shape)
// before anything is stored, so a bad node rejects the whole graph.
func (s *Service) SubmitDAG(owner types.UserID, specs []dag.NodeSpec) (types.DAGID, map[string]types.TaskID, []string, error) {
	for _, ns := range specs {
		if _, err := s.prepare(owner, submissionOfSpec(ns.Spec, nil)); err != nil {
			return "", nil, nil, fmt.Errorf("dag node %q: %w", ns.Key, err)
		}
	}
	id := s.mintDAGID()
	now := time.Now()
	g, err := dag.New(id, owner, specs, now)
	if err != nil {
		return "", nil, nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	tasks := make(map[string]types.TaskID, len(specs))
	for _, key := range g.Order {
		if n := g.Node(key); !n.External {
			n.TaskID = s.mintTaskID()
			tasks[key] = n.TaskID
		}
	}

	// Every node's record is held (and its "pending" event published)
	// before the graph goes live: status and wait surfaces must
	// recognize every node id the moment the response returns, and
	// recovery rebuilds held nodes from these records plus the
	// journaled graph.
	for _, key := range g.Order {
		if n := g.Node(key); !n.External {
			s.apply(taskrec.Event{Kind: taskrec.Hold, ID: n.TaskID, Owner: owner, DAGID: id, At: now})
		}
	}
	var externals []dagRef
	s.dagMu.Lock()
	s.dags[id] = g
	for _, key := range g.Order {
		n := g.Node(key)
		if !n.State.Terminal() {
			s.dagByTask[n.TaskID] = append(s.dagByTask[n.TaskID], dagRef{id: id, key: key})
		}
		if n.External {
			externals = append(externals, dagRef{id: id, key: key})
		}
	}
	s.persistDAGLocked(g)
	s.dagMu.Unlock()
	s.mu.Lock()
	s.dagsSubmitted++
	s.dagNodes += int64(len(tasks))
	s.mu.Unlock()

	s.publish(owner, types.TaskEvent{
		TaskID: types.TaskID(id), Status: types.DAGRunning, DAGID: id, Time: now,
	})

	// External parents first (their results may already be stored, in
	// which case the children release below), then the roots. Both may
	// cascade synchronously through the memo cache: a fully memoized
	// graph completes before this call returns.
	for _, ext := range externals {
		s.resolveExternalParent(ext.id, ext.key)
	}
	s.releaseDAGReady(id)

	var memoized []string
	s.dagMu.Lock()
	for _, key := range g.Order {
		if n := g.Node(key); !n.External && n.Memoized {
			memoized = append(memoized, key)
		}
	}
	s.dagMu.Unlock()
	if len(memoized) > 0 {
		s.mu.Lock()
		s.dagMemoHits += int64(len(memoized))
		s.mu.Unlock()
	}
	s.log.Info("dag submitted",
		"dag_id", string(id), "owner", string(owner),
		"nodes", len(tasks), "memoized", len(memoized))
	return id, tasks, memoized, nil
}

// SubmitChained is the SubmitSpec.DependsOn surface: one task whose
// inputs are earlier task ids, modeled as a single-node graph with
// external parents. Returns the node's task id and whether it was
// served from the memo cache at submit time.
func (s *Service) SubmitChained(owner types.UserID, sub Submission, deps []types.TaskID) (types.TaskID, types.DAGID, bool, error) {
	spec := dag.NodeSpec{
		Key: "task",
		Spec: dag.TaskSpec{
			Function: sub.FunctionID, Endpoint: sub.EndpointID, Group: sub.GroupID,
			Labels: sub.Labels, Payload: sub.Payload, Memoize: sub.Memoize,
			Walltime: sub.Walltime, MaxRetries: sub.MaxRetries, AtMostOnce: sub.AtMostOnce,
		},
		Requires: deps,
	}
	id, tasks, memoized, err := s.SubmitDAG(owner, []dag.NodeSpec{spec})
	if err != nil {
		return "", "", false, err
	}
	return tasks["task"], id, len(memoized) > 0, nil
}

// submissionOfSpec builds the service submission for a node, with the
// bound payload substituted for the template's own.
func submissionOfSpec(spec dag.TaskSpec, payload []byte) Submission {
	if payload == nil {
		payload = spec.Payload
	}
	return Submission{
		FunctionID: spec.Function, EndpointID: spec.Endpoint, GroupID: spec.Group,
		Labels: spec.Labels, Payload: payload, Memoize: spec.Memoize,
		Walltime: spec.Walltime, MaxRetries: spec.MaxRetries, AtMostOnce: spec.AtMostOnce,
	}
}

// DAGStatus reports a graph's live per-node state in topological
// order. Owner-only (empty actor skips the check for trusted
// in-process callers).
func (s *Service) DAGStatus(actor types.UserID, id types.DAGID) (*api.DAGStatusResponse, error) {
	s.dagMu.Lock()
	defer s.dagMu.Unlock()
	g := s.dags[id]
	if g == nil || (actor != "" && g.Owner != actor) {
		return nil, fmt.Errorf("%w: dag %s", registry.ErrNotFound, id)
	}
	resp := &api.DAGStatusResponse{DAGID: id, Status: g.Status(), Nodes: make([]api.DAGNodeStatus, 0, len(g.Order))}
	for _, key := range g.Order {
		n := g.Node(key)
		ns := api.DAGNodeStatus{
			Key: key, TaskID: n.TaskID, State: string(n.State), External: n.External,
			EndpointID: n.Endpoint, Error: n.Error, Memoized: n.Memoized,
		}
		if n.Ref != nil {
			ns.Ref = n.Ref.String()
		}
		resp.Nodes = append(resp.Nodes, ns)
	}
	return resp, nil
}

// DAGsActive counts graphs still holding or running nodes.
func (s *Service) DAGsActive() int {
	s.dagMu.Lock()
	defer s.dagMu.Unlock()
	active := 0
	for _, g := range s.dags {
		if !g.Done() {
			active++
		}
	}
	return active
}

// persistDAGLocked journals the graph record (caller holds dagMu).
func (s *Service) persistDAGLocked(g *dag.Graph) {
	s.Store.Hash(dagsHash).Set(string(g.ID), wire.EncodeDAG(g))
}

// dagWaitingOn names the first graph waiting on a task, for the DAGID
// of the task's terminal event ("" when none is).
func (s *Service) dagWaitingOn(id types.TaskID) types.DAGID {
	s.dagMu.Lock()
	defer s.dagMu.Unlock()
	if refs := s.dagByTask[id]; len(refs) > 0 {
		return refs[0].id
	}
	return ""
}

// applyDAGResult is the DAG step of a task's retirement: when the
// finished task feeds any registered graph, it journals the output for
// child binding, applies the transition to every waiting graph, and
// then — outside dagMu, as each lands a result and re-enters here —
// executes the releases, dependency failures and graph completions the
// transition unlocked. A no-op for tasks no graph is waiting on.
func (s *Service) applyDAGResult(id types.TaskID, status types.TaskStatus, endpoint types.EndpointID, value []byte) {
	s.dagMu.Lock()
	refs := s.dagByTask[id]
	if len(refs) == 0 {
		s.dagMu.Unlock()
		return
	}
	delete(s.dagByTask, id)

	outcome := dag.Outcome{Status: status, Endpoint: endpoint, At: time.Now()}
	if res, err := wire.DecodeResult(value); err == nil {
		outcome.Err = res.Err
		outcome.Memoized = res.Memoized
		if status == types.TaskSuccess {
			outcome.Output = res.Output
		}
	}
	if status == types.TaskSuccess {
		// The output bytes are journaled under the task's own key before
		// any graph transition that depends on them is persisted: a
		// recovered Released child must always find the bytes it binds.
		// The full bytes are retained even past the inline limit — the
		// dataref fabric is in-memory and recovery re-registers from here.
		s.Store.Hash(dagOutputsHash).Set(string(id), outcome.Output)
		if limit := s.dagInlineLimit(); limit > 0 && len(outcome.Output) > limit {
			if ref, ok := s.putDataref(endpoint, id, outcome.Output); ok {
				outcome.Ref = &ref
				outcome.Output = nil
			}
		}
	}

	var rels []dagRelease
	var fails []dagFail
	var dones []dagDone
	for _, ref := range refs {
		g := s.dags[ref.id]
		if g == nil {
			continue
		}
		r, f, done := s.completeLocked(g, ref.key, outcome)
		rels = append(rels, r...)
		fails = append(fails, f...)
		if done != nil {
			dones = append(dones, *done)
		}
		s.persistDAGLocked(g)
	}
	s.dagMu.Unlock()
	s.executeDAGActions(rels, fails, dones)
}

// putDataref registers a large output in the dataref fabric, placed at
// the endpoint that produced it (data gravity).
func (s *Service) putDataref(endpoint types.EndpointID, id types.TaskID, output []byte) (dataref.Ref, bool) {
	host := string(endpoint)
	if host == "" {
		host = "service"
	}
	s.Datarefs.AddEndpoint(host)
	ref, err := s.Datarefs.Put(host, "dag/"+string(id), output)
	if err != nil {
		return dataref.Ref{}, false
	}
	return ref, true
}

// completeLocked applies one node outcome to its graph and converts
// the transition into executable actions (caller holds dagMu; caller
// persists the graph). The returned dagDone is non-nil when this
// completion newly finished the graph.
func (s *Service) completeLocked(g *dag.Graph, key string, o dag.Outcome) ([]dagRelease, []dagFail, *dagDone) {
	wasDone := g.Done()
	tr := g.Complete(key, o)
	var rels []dagRelease
	var fails []dagFail
	for _, child := range tr.Release {
		rel, err := s.buildReleaseLocked(g, child)
		if err != nil {
			fails = append(fails, dagFail{
				taskID: g.Node(child).TaskID, owner: g.Owner,
				errJSON: fmt.Sprintf(`{"message":%q,"dag_id":%q}`, "dag binding failed: "+err.Error(), g.ID),
			})
			continue
		}
		rels = append(rels, rel)
	}
	for _, cf := range tr.Fail {
		fails = append(fails, dagFail{
			taskID: cf.TaskID, owner: g.Owner,
			errJSON: dag.NewDependencyError(g.ID, cf).JSON(), dep: true,
		})
	}
	if tr.Done && !wasDone {
		return rels, fails, &dagDone{id: g.ID, owner: g.Owner, status: g.Status()}
	}
	return rels, fails, nil
}

// buildReleaseLocked assembles the placement of one claimed node:
// bound payload, pre-minted id, and the affinity preference — the
// parent endpoint holding the largest output, so the child lands where
// the most input bytes already are (preference, not constraint; the
// router ignores it for down members). Caller holds dagMu.
func (s *Service) buildReleaseLocked(g *dag.Graph, key string) (dagRelease, error) {
	n := g.Node(key)
	payload, err := g.BindPayload(key)
	if err != nil {
		return dagRelease{}, err
	}
	var prefer types.EndpointID
	var preferSize int64 = -1
	for _, dep := range n.DependsOn {
		p := g.Node(dep)
		if p == nil || p.Endpoint == "" {
			continue
		}
		size := int64(len(p.Output))
		if p.Ref != nil {
			size = p.Ref.Size
		}
		if size > preferSize {
			preferSize, prefer = size, p.Endpoint
		}
	}
	return dagRelease{
		dagID: g.ID, key: key, taskID: n.TaskID, owner: g.Owner,
		spec: n.Spec, payload: payload, prefer: prefer,
		dependent: len(n.DependsOn) > 0,
	}, nil
}

// executeDAGActions runs the releases, synthetic failures, and graph
// finalizations one completion unlocked. Must be called with no
// service locks held: every action lands a record, which re-enters
// the DAG path synchronously.
func (s *Service) executeDAGActions(rels []dagRelease, fails []dagFail, dones []dagDone) {
	for _, rel := range rels {
		s.executeRelease(rel)
	}
	for _, f := range fails {
		s.failDAGTask(f)
	}
	for _, d := range dones {
		s.finishDAG(d)
	}
}

// executeRelease places one released node through the ordinary
// submission path (validation, memoization, routing, journaling). A
// placement failure retires the node as a synthetic failure so its
// graph keeps moving and its future resolves.
func (s *Service) executeRelease(rel dagRelease) {
	if rel.dependent {
		s.mu.Lock()
		s.dagReleases++
		s.mu.Unlock()
	}
	sub := submissionOfSpec(rel.spec, rel.payload)
	p, err := s.prepare(rel.owner, sub)
	if err == nil {
		p.id = rel.taskID
		p.dagID = rel.dagID
		p.prefer = rel.prefer
		_, _, _, err = s.place(rel.owner, p, time.Now())
	}
	if err != nil {
		s.failDAGTask(dagFail{
			taskID: rel.taskID, owner: rel.owner,
			errJSON: fmt.Sprintf(`{"message":%q,"dag_id":%q}`, "dag release failed: "+err.Error(), rel.dagID),
		})
	}
}

// failDAGTask retires a claimed node with a synthetic failed result,
// landed like any other terminal: the event reaches the owner, the
// graph takes its step, waiters wake.
func (s *Service) failDAGTask(f dagFail) {
	if f.dep {
		s.mu.Lock()
		s.dagDepFailures++
		s.mu.Unlock()
	}
	res := &types.Result{TaskID: f.taskID, Err: f.errJSON, Completed: time.Now()}
	s.land(taskrec.Event{
		Kind: taskrec.Result, ID: f.taskID, Owner: f.owner, Status: types.TaskFailed,
		Frame: wire.EncodeResult(res), At: res.Completed,
	})
}

// finishDAG publishes a graph's lifecycle event and prunes the output
// journal: once every node is terminal, no pending edge can need the
// retained parent outputs.
func (s *Service) finishDAG(d dagDone) {
	s.mu.Lock()
	s.dagsCompleted++
	s.mu.Unlock()
	status := types.DAGSuccess
	if d.status != types.TaskSuccess {
		status = types.DAGFailed
	}
	s.publish(d.owner, types.TaskEvent{
		TaskID: types.TaskID(d.id), Status: status, DAGID: d.id, Time: time.Now(),
	})
	s.dagMu.Lock()
	s.dagDoneAt[d.id] = time.Now()
	if g := s.dags[d.id]; g != nil {
		for _, key := range g.Order {
			n := g.Node(key)
			s.Store.Hash(dagOutputsHash).Del(string(n.TaskID))
			if n.Ref != nil {
				s.Datarefs.Delete(*n.Ref)
			}
			if n.External && !n.State.Terminal() {
				// An unresolved external parent no longer matters: drop
				// this graph's routing ref so the entry cannot leak.
				s.dropTaskRefLocked(n.TaskID, d.id)
			}
		}
	}
	s.dagMu.Unlock()
	s.log.Info("dag finished", "dag_id", string(d.id), "status", string(status))
}

// evictFinishedDAGs periodically drops finished graphs that have been
// queryable past cfg.DAGRetention, so a long-lived shard's DAG table
// (and its journaled dag records) stays bounded by the active set plus
// one retention window of history. An evicted id thereafter answers
// GET /v1/dags/{id} with 404, exactly like an id that never existed.
func (s *Service) evictFinishedDAGs() {
	interval := max(s.cfg.DAGRetention/4, time.Second)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.sweepFinishedDAGs(time.Now().Add(-s.cfg.DAGRetention))
		case <-s.ctx.Done():
			return
		}
	}
}

// sweepFinishedDAGs evicts every graph that finished before cutoff:
// the in-memory record, any residual routing refs, and the journaled
// dag record (so a later recovery does not resurrect it). Returns how
// many graphs were evicted.
func (s *Service) sweepFinishedDAGs(cutoff time.Time) int {
	dagsH := s.Store.Hash(dagsHash)
	s.dagMu.Lock()
	evicted := 0
	for id, done := range s.dagDoneAt {
		if !done.Before(cutoff) {
			continue
		}
		if g := s.dags[id]; g != nil {
			for _, key := range g.Order {
				s.dropTaskRefLocked(g.Node(key).TaskID, id)
			}
		}
		delete(s.dags, id)
		delete(s.dagDoneAt, id)
		dagsH.Del(string(id))
		evicted++
	}
	s.dagMu.Unlock()
	if evicted > 0 {
		s.mu.Lock()
		s.dagsEvicted += int64(evicted)
		s.mu.Unlock()
		if s.log.Enabled(s.ctx, slog.LevelDebug) {
			s.log.Debug("evicted finished dags", "count", evicted)
		}
	}
	return evicted
}

// dropTaskRefLocked removes one graph's ref from a task's waiter list
// (caller holds dagMu).
func (s *Service) dropTaskRefLocked(id types.TaskID, dagID types.DAGID) {
	refs := s.dagByTask[id]
	kept := refs[:0]
	for _, ref := range refs {
		if ref.id != dagID {
			kept = append(kept, ref)
		}
	}
	if len(kept) == 0 {
		delete(s.dagByTask, id)
	} else {
		s.dagByTask[id] = kept
	}
}

// releaseDAGReady claims and places every currently ready node of one
// graph (used at submission for the roots, and by recovery).
func (s *Service) releaseDAGReady(id types.DAGID) {
	now := time.Now()
	var rels []dagRelease
	var fails []dagFail
	s.dagMu.Lock()
	g := s.dags[id]
	if g == nil {
		s.dagMu.Unlock()
		return
	}
	for _, key := range g.Order {
		if n := g.Node(key); n.External || !g.Ready(key) {
			continue
		}
		g.MarkReleased(key, now)
		rel, err := s.buildReleaseLocked(g, key)
		if err != nil {
			fails = append(fails, dagFail{
				taskID: g.Node(key).TaskID, owner: g.Owner,
				errJSON: fmt.Sprintf(`{"message":%q,"dag_id":%q}`, "dag binding failed: "+err.Error(), g.ID),
			})
			continue
		}
		rels = append(rels, rel)
	}
	if len(rels)+len(fails) > 0 {
		s.persistDAGLocked(g)
	}
	s.dagMu.Unlock()
	s.executeDAGActions(rels, fails, nil)
}

// --- external parents ---

// externalResolveTTL bounds a cross-shard parent resolver's patience;
// externalWaitChunk is each long-poll's hold.
const (
	externalResolveTTL = time.Hour
	externalWaitChunk  = 30 * time.Second
)

// resolveExternalParent resolves one graph's dependency on a task
// submitted outside the graph. Locally owned parents are read straight
// from the store (or, when still running, left to the completion hook,
// which the submit path already registered for). Parents owned by
// another shard get a resolver goroutine long-polling the owner over
// the gateway.
func (s *Service) resolveExternalParent(dagID types.DAGID, key string) {
	s.dagMu.Lock()
	g := s.dags[dagID]
	if g == nil {
		s.dagMu.Unlock()
		return
	}
	n := g.Node(key)
	if n == nil || n.State.Terminal() {
		s.dagMu.Unlock()
		return
	}
	taskID, owner := n.TaskID, g.Owner
	s.dagMu.Unlock()

	if s.sharded() && !s.servesKey(shard.TaskKey(taskID)) {
		go s.pollExternalParent(dagID, key, taskID, owner)
		return
	}
	rec, ok := s.tasks.Get(taskID)
	switch {
	case !ok:
		s.failExternalParent(dagID, key, taskID, "unknown parent task")
	case foreign(rec, owner):
		// A graph may only consume its own user's tasks.
		s.failExternalParent(dagID, key, taskID, "parent task not found")
	case rec.Result() != nil:
		s.applyDAGResult(taskID, rec.Status(), "", rec.Result())
	case rec.Status().Terminal():
		// Terminal but the result is gone: it was already retrieved and
		// purged, so there is nothing left to bind.
		s.failExternalParent(dagID, key, taskID, "parent output already retrieved and purged")
	default:
		// Still running here: its retirement takes the graph's step
		// (the graph registered in dagByTask at submission).
	}
}

// failExternalParent marks an external parent lost for one graph,
// propagating the typed failure to its held children through the
// ordinary completion machinery.
func (s *Service) failExternalParent(dagID types.DAGID, key string, taskID types.TaskID, why string) {
	s.dagMu.Lock()
	g := s.dags[dagID]
	if g == nil {
		s.dagMu.Unlock()
		return
	}
	rels, fails, done := s.completeLocked(g, key, dag.Outcome{
		Status: types.TaskLost, Err: fmt.Sprintf(`{"message":%q,"task_id":%q}`, why, taskID), At: time.Now(),
	})
	s.persistDAGLocked(g)
	s.dropTaskRefLocked(taskID, dagID)
	s.dagMu.Unlock()
	var dones []dagDone
	if done != nil {
		dones = append(dones, *done)
	}
	s.executeDAGActions(rels, fails, dones)
}

// pollExternalParent long-polls a cross-shard parent's owner over the
// gateway until the result lands, then feeds it to every waiting graph
// exactly as a local completion would. The service self-mints an
// owner-scoped token (valid fleet-wide via the shared signing key), so
// the resolver survives service restarts without any client
// credential. The owner's wait purges the parent result there —
// first-reader-wins, like any retrieval.
func (s *Service) pollExternalParent(dagID types.DAGID, key string, taskID types.TaskID, owner types.UserID) {
	token := s.Authority.Mint(owner, externalResolveTTL, auth.ScopeRun)
	target := s.keyOwner(shard.TaskKey(taskID))
	deadline := time.Now().Add(externalResolveTTL)
	for s.ctx.Err() == nil && time.Now().Before(deadline) {
		res, retry := s.waitRemoteTask(target, token, taskID)
		if res != nil {
			s.applyDAGResult(taskID, terminalStatusOf(res), "", wire.EncodeResult(res))
			return
		}
		if !retry {
			s.failExternalParent(dagID, key, taskID, "parent task not found on owner shard")
			return
		}
		select {
		case <-time.After(time.Second):
		case <-s.ctx.Done():
			return
		}
	}
	if s.ctx.Err() == nil {
		s.failExternalParent(dagID, key, taskID, "cross-shard parent unresolved before deadline")
	}
}

// waitRemoteTask issues one blocking wait against the parent's owner
// shard, returning the result when it landed, or retry=true when the
// task is still pending (or the shard was unreachable, e.g.
// mid-restart).
func (s *Service) waitRemoteTask(target shard.Info, token string, id types.TaskID) (res *types.Result, retry bool) {
	body, err := json.Marshal(api.WaitTasksRequest{
		TaskIDs: []types.TaskID{id}, Wait: externalWaitChunk.String(),
	})
	if err != nil {
		return nil, false
	}
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPost,
		target.BaseURL+"/v1/tasks/wait", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := s.proxyClient.Do(req)
	if err != nil {
		return nil, true
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		return nil, true
	}
	var out api.WaitTasksResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, true
	}
	for _, rr := range out.Results {
		if rr.TaskID == id {
			return &types.Result{
				TaskID: rr.TaskID, Output: rr.Output, Err: rr.Error,
				Memoized: rr.Memoized, Lost: rr.Lost, Completed: time.Now(),
			}, false
		}
	}
	return nil, true
}

// --- crash recovery (called from recovery.go) ---

// recoverDAGs rebuilds the in-memory graph table from the journal:
// graph records from dagsHash, pending-edge routing in dagByTask, and
// parent outputs (re-registering large ones in the dataref fabric,
// which is runtime state the crash destroyed). It returns the task id
// of every graph node: a node whose record is still pending was held,
// or claimed but never placed (a crash inside the release window), and
// is resumeDAGs' to re-drive — the inflight sweep must not retire it
// as lost.
func (s *Service) recoverDAGs() map[types.TaskID]bool {
	dagsH := s.Store.Hash(dagsHash)
	outs := s.Store.Hash(dagOutputsHash)
	nodes := make(map[types.TaskID]bool)
	s.dagMu.Lock()
	defer s.dagMu.Unlock()
	for _, id := range dagsH.Keys() {
		data, ok := dagsH.Get(id)
		if !ok {
			continue
		}
		g, err := wire.DecodeDAG(data)
		if err != nil {
			s.log.Warn("corrupt journaled dag record dropped", "dag_id", id, "err", err)
			continue
		}
		for _, key := range g.Order {
			n := g.Node(key)
			if b, ok := outs.Get(string(n.TaskID)); ok {
				if n.Ref != nil {
					// Rebuild the dataref object from the journaled bytes;
					// the inline output stays nil so re-bound envelopes are
					// byte-identical to pre-crash ones (memo composition).
					if ref, ok := s.putDataref(types.EndpointID(n.Ref.Endpoint), n.TaskID, b); ok {
						*n.Ref = ref
					} else {
						n.Ref = nil
						n.Output = b
					}
				} else {
					n.Output = b
				}
			}
			if !n.State.Terminal() {
				s.dagByTask[n.TaskID] = append(s.dagByTask[n.TaskID], dagRef{id: g.ID, key: key})
			}
			if !n.External {
				nodes[n.TaskID] = true
			}
		}
		s.dags[g.ID] = g
		if g.Done() {
			// A graph recovered already-terminal has no finishDAG ahead
			// of it: stamp it now so the retention sweeper still evicts
			// it one window after the restart.
			s.dagDoneAt[g.ID] = time.Now()
		}
	}
	return nodes
}

// resumeDAGs re-drives every recovered graph after forwarders are up:
// transitions whose results landed before the crash are re-applied,
// claimed-but-unplaced nodes are re-released (or failed, typed, when a
// parent had already failed), newly ready held nodes release, and
// cross-shard parent resolvers respawn. In-flight released nodes are
// left to the ordinary delivery path.
func (s *Service) resumeDAGs() {
	outs := s.Store.Hash(dagOutputsHash)
	now := time.Now()

	type stale struct {
		id  types.TaskID
		rec taskrec.Record
	}
	var stales []stale
	var rels []dagRelease
	var fails []dagFail
	var dones []dagDone
	var externals []dagRef

	s.dagMu.Lock()
	for _, g := range s.dags {
		if g.Done() {
			continue
		}
		changed := false
		for _, key := range g.Order {
			n := g.Node(key)
			if n.External {
				if !n.State.Terminal() {
					externals = append(externals, dagRef{id: g.ID, key: key})
				}
				continue
			}
			rec, _ := s.tasks.Get(n.TaskID)
			// Resume decisions for live nodes; terminal states were
			// skipped above.
			//funcx:exhaustive funcx/internal/dag.State ignore=StateSuccess,StateFailed,StateLost
			switch n.State {
			case dag.StateReleased:
				if rec.Result() != nil {
					// The result landed pre-crash but the graph record
					// missed the transition: re-apply it outside the lock
					// through the ordinary completion path.
					if refs := s.dagByTask[n.TaskID]; len(refs) > 0 {
						stales = append(stales, stale{id: n.TaskID, rec: rec})
					}
					continue
				}
				if rec.Task() != nil {
					continue // in flight; normal delivery finishes it
				}
				if b, ok := outs.Get(string(n.TaskID)); ok {
					// Output journaled but neither result nor transition
					// survived: the node did succeed.
					r, f, done := s.completeLocked(g, key, dag.Outcome{Status: types.TaskSuccess, Output: b, At: now})
					rels, fails = append(rels, r...), append(fails, f...)
					if done != nil {
						dones = append(dones, *done)
					}
					changed = true
					continue
				}
				if rec.Status().Terminal() {
					r, f, done := s.completeLocked(g, key, dag.Outcome{
						Status: rec.Status(),
						Err:    fmt.Sprintf(`{"message":%q,"task_id":%q}`, "output unavailable after crash", n.TaskID),
						At:     now,
					})
					rels, fails = append(rels, r...), append(fails, f...)
					if done != nil {
						dones = append(dones, *done)
					}
					changed = true
					continue
				}
				// Claimed but never placed: re-drive from parent states.
				if parent := failedDAGParent(g, n); parent != nil {
					fails = append(fails, dagFail{
						taskID: n.TaskID, owner: g.Owner, dep: true,
						errJSON: dag.NewDependencyError(g.ID, dag.ChildFailure{
							Key: key, TaskID: n.TaskID, Parent: parent.Key, ParentStatus: taskStatusOfState(parent.State),
						}).JSON(),
					})
					changed = true
				} else if rel, err := s.buildReleaseLocked(g, key); err == nil {
					rels = append(rels, rel)
				} else {
					// Parents not all terminal yet (external still
					// resolving): fall back to Held so the completion
					// hook re-claims it when they land.
					n.State = dag.StateHeld
					n.ReleasedAt = time.Time{}
					changed = true
				}
			case dag.StateHeld:
				if g.Ready(key) {
					g.MarkReleased(key, now)
					if rel, err := s.buildReleaseLocked(g, key); err == nil {
						rels = append(rels, rel)
					} else {
						fails = append(fails, dagFail{
							taskID: n.TaskID, owner: g.Owner,
							errJSON: fmt.Sprintf(`{"message":%q,"dag_id":%q}`, "dag binding failed: "+err.Error(), g.ID),
						})
					}
					changed = true
				} else if parent := failedDAGParent(g, n); parent != nil {
					g.MarkReleased(key, now)
					fails = append(fails, dagFail{
						taskID: n.TaskID, owner: g.Owner, dep: true,
						errJSON: dag.NewDependencyError(g.ID, dag.ChildFailure{
							Key: key, TaskID: n.TaskID, Parent: parent.Key, ParentStatus: taskStatusOfState(parent.State),
						}).JSON(),
					})
					changed = true
				}
			}
		}
		if changed {
			s.persistDAGLocked(g)
		}
	}
	s.dagMu.Unlock()

	for _, st := range stales {
		s.applyDAGResult(st.id, st.rec.Status(), "", st.rec.Result())
	}
	s.executeDAGActions(rels, fails, dones)
	for _, ext := range externals {
		s.resolveExternalParent(ext.id, ext.key)
	}
}

// failedDAGParent returns a non-successful terminal parent of n, if any.
func failedDAGParent(g *dag.Graph, n *dag.Node) *dag.Node {
	for _, dep := range n.DependsOn {
		if p := g.Node(dep); p != nil && p.State.Terminal() && p.State != dag.StateSuccess {
			return p
		}
	}
	return nil
}

// taskStatusOfState maps a terminal node state back to a task status.
func taskStatusOfState(st dag.State) types.TaskStatus {
	switch st {
	case dag.StateLost:
		return types.TaskLost
	case dag.StateFailed:
		return types.TaskFailed
	default:
		return types.TaskSuccess
	}
}

// traceSampled decides whether a placement records a trace timeline
// under Config.TraceSampleRate. Deterministic by id hash — a DAG's
// nodes key on the graph id, so a workflow's tasks sample as a unit
// and a sampled graph yields a complete cross-node timeline.
func (s *Service) traceSampled(p *preparedSubmission, id types.TaskID) bool {
	rate := s.cfg.TraceSampleRate
	switch {
	case rate == 0 || rate >= 1:
		return true // unset or full: the historical sample-everything
	case rate < 0:
		return false
	}
	key := string(id)
	if p.dagID != "" {
		key = string(p.dagID)
	}
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // hash.Write never fails
	// Top 53 bits → uniform [0,1).
	return float64(h.Sum64()>>11)/float64(uint64(1)<<53) < rate
}
