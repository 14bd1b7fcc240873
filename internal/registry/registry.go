// Package registry is the persistent-registry substitute for the AWS
// RDS database of paper §4.1: the funcX service's tables of users,
// registered functions (with sharing lists and container bindings), and
// registered endpoints.
//
// The store is an in-memory, mutex-guarded set of tables with the same
// semantics the service needs: versioned function updates by owners,
// sharing with users or everyone, endpoint ownership and public access
// checks.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"funcx/internal/types"
)

// Errors returned by registry lookups and mutations.
var (
	// ErrNotFound is returned when a record does not exist.
	ErrNotFound = errors.New("registry: not found")
	// ErrForbidden is returned when the acting user lacks rights.
	ErrForbidden = errors.New("registry: forbidden")
	// ErrConflict is returned when a mutation contradicts existing
	// state (e.g. adding an endpoint to a second elastic group).
	ErrConflict = errors.New("registry: conflict")
)

// Record kinds passed to the change hook (SetOnChange), naming the
// table a mutated record belongs to.
const (
	KindUser     = "users"
	KindFunction = "functions"
	KindEndpoint = "endpoints"
	KindGroup    = "groups"
)

// Registry is the in-memory substitute for the service database.
type Registry struct {
	mu        sync.RWMutex
	users     map[types.UserID]*types.User
	functions map[types.FunctionID]*types.Function
	endpoints map[types.EndpointID]*types.Endpoint
	groups    map[types.GroupID]*types.EndpointGroup
	now       func() time.Time

	mintGroupID    func() types.GroupID
	mintEndpointID func() types.EndpointID

	onChange func(kind, id string, record any)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		users:          make(map[types.UserID]*types.User),
		functions:      make(map[types.FunctionID]*types.Function),
		endpoints:      make(map[types.EndpointID]*types.Endpoint),
		groups:         make(map[types.GroupID]*types.EndpointGroup),
		now:            time.Now,
		mintGroupID:    types.NewGroupID,
		mintEndpointID: types.NewEndpointID,
	}
}

// SetIDMinters overrides how group and endpoint ids are generated. A
// sharded service installs ring-aligned minters so the consistent-hash
// ring assigns every record it creates back to itself, making
// ownership computable from the id alone. Call before first use.
func (r *Registry) SetIDMinters(group func() types.GroupID, endpoint func() types.EndpointID) {
	if group != nil {
		r.mintGroupID = group
	}
	if endpoint != nil {
		r.mintEndpointID = endpoint
	}
}

// SetOnChange installs a single observer invoked synchronously after
// every successful record mutation with the table kind, the record id,
// and a copy of the new record — the seam a durable service uses to
// journal registry state alongside its store. The hook runs while the
// registry lock is held, so it must not re-enter the Registry. Install
// it before the registry sees traffic; mutations applied earlier (e.g.
// recovery-time upserts) are deliberately not replayed into it.
func (r *Registry) SetOnChange(fn func(kind, id string, record any)) {
	r.mu.Lock()
	r.onChange = fn
	r.mu.Unlock()
}

// notifyLocked invokes the change hook. Caller holds r.mu.
func (r *Registry) notifyLocked(kind, id string, record any) {
	if r.onChange != nil {
		r.onChange(kind, id, record)
	}
}

// BodyHash computes the canonical function-body hash used for
// memoization keys and worker-side lookup.
func BodyHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// --- users ---

// AddUser records a user, returning an error on duplicates.
func (r *Registry) AddUser(u *types.User) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.users[u.ID]; ok {
		return fmt.Errorf("registry: user %s already exists", u.ID)
	}
	cp := *u
	r.users[u.ID] = &cp
	r.notifyLocked(KindUser, string(u.ID), cp)
	return nil
}

// PutUser upserts a complete user record, preserving its id — the
// recovery path replaying journaled registry state.
func (r *Registry) PutUser(u *types.User) error {
	if u.ID == "" {
		return errors.New("registry: user record has no id")
	}
	cp := *u
	r.mu.Lock()
	defer r.mu.Unlock()
	r.users[u.ID] = &cp
	r.notifyLocked(KindUser, string(u.ID), cp)
	return nil
}

// User returns the user record.
func (r *Registry) User(id types.UserID) (*types.User, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.users[id]
	if !ok {
		return nil, fmt.Errorf("%w: user %s", ErrNotFound, id)
	}
	cp := *u
	return &cp, nil
}

// --- functions ---

// RegisterFunction stores a new function owned by owner, assigning its
// id, body hash, version, and registration time.
func (r *Registry) RegisterFunction(owner types.UserID, name string, body []byte, container types.ContainerSpec, sharedWith []types.UserID) (*types.Function, error) {
	if len(body) == 0 {
		return nil, errors.New("registry: empty function body")
	}
	fn := &types.Function{
		ID:         types.NewFunctionID(),
		Name:       name,
		Owner:      owner,
		Body:       body,
		BodyHash:   BodyHash(body),
		Container:  container,
		SharedWith: sharedWith,
		Version:    1,
		Registered: r.now(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.functions[fn.ID] = fn
	cp := *fn
	r.notifyLocked(KindFunction, string(fn.ID), cp)
	return &cp, nil
}

// UpdateFunction replaces the body of a function; only the owner may
// update (paper §3: "users may update functions they own"). The version
// increments and the body hash is recomputed.
func (r *Registry) UpdateFunction(actor types.UserID, id types.FunctionID, body []byte) (*types.Function, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn, ok := r.functions[id]
	if !ok {
		return nil, fmt.Errorf("%w: function %s", ErrNotFound, id)
	}
	if fn.Owner != actor {
		return nil, fmt.Errorf("%w: only owner may update function", ErrForbidden)
	}
	fn.Body = body
	fn.BodyHash = BodyHash(body)
	fn.Version++
	cp := *fn
	r.notifyLocked(KindFunction, string(fn.ID), cp)
	return &cp, nil
}

// ShareFunction appends users to the function's sharing list.
func (r *Registry) ShareFunction(actor types.UserID, id types.FunctionID, with ...types.UserID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn, ok := r.functions[id]
	if !ok {
		return fmt.Errorf("%w: function %s", ErrNotFound, id)
	}
	if fn.Owner != actor {
		return fmt.Errorf("%w: only owner may share function", ErrForbidden)
	}
	fn.SharedWith = append(fn.SharedWith, with...)
	r.notifyLocked(KindFunction, string(fn.ID), *fn)
	return nil
}

// PutFunction upserts a complete function record, preserving its id —
// the cross-shard replication path. A function registered at any shard
// is broadcast to every peer so submissions can validate and resolve
// it wherever the target group or endpoint lives; replays (e.g. after
// a shard restart re-registers) simply overwrite.
func (r *Registry) PutFunction(fn *types.Function) error {
	if fn.ID == "" {
		return errors.New("registry: function replica has no id")
	}
	if len(fn.Body) == 0 {
		return errors.New("registry: empty function body")
	}
	cp := *fn
	cp.SharedWith = append([]types.UserID(nil), fn.SharedWith...)
	if cp.BodyHash == "" {
		cp.BodyHash = BodyHash(cp.Body)
	}
	if cp.Version == 0 {
		cp.Version = 1
	}
	if cp.Registered.IsZero() {
		cp.Registered = r.now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.functions[cp.ID] = &cp
	r.notifyLocked(KindFunction, string(cp.ID), cp)
	return nil
}

// Function returns a copy of the function record.
func (r *Registry) Function(id types.FunctionID) (*types.Function, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.functions[id]
	if !ok {
		return nil, fmt.Errorf("%w: function %s", ErrNotFound, id)
	}
	cp := *fn
	cp.SharedWith = append([]types.UserID(nil), fn.SharedWith...)
	return &cp, nil
}

// AuthorizeInvocation checks that uid may invoke the function,
// returning the record when allowed.
func (r *Registry) AuthorizeInvocation(uid types.UserID, id types.FunctionID) (*types.Function, error) {
	fn, err := r.Function(id)
	if err != nil {
		return nil, err
	}
	if !fn.InvocableBy(uid) {
		return nil, fmt.Errorf("%w: function %s not shared with %s", ErrForbidden, id, uid)
	}
	return fn, nil
}

// FunctionCount returns the number of registered functions.
func (r *Registry) FunctionCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.functions)
}

// --- endpoints ---

// RegisterEndpoint stores a new endpoint, assigning id and time.
// Labels are the endpoint's declared capability/locality tags (may be
// nil); the router matches per-task selectors against them.
func (r *Registry) RegisterEndpoint(owner types.UserID, name, description string, public bool, labels map[string]string) (*types.Endpoint, error) {
	ep := &types.Endpoint{
		ID:          r.mintEndpointID(),
		Name:        name,
		Description: description,
		Owner:       owner,
		Public:      public,
		Labels:      copyLabels(labels),
		Registered:  r.now(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endpoints[ep.ID] = ep
	cp := *ep
	r.notifyLocked(KindEndpoint, string(ep.ID), cp)
	return &cp, nil
}

// PutEndpoint upserts a complete endpoint record, preserving its id.
// Recovery replays journaled endpoints through here, and a shard
// importing a drained peer's endpoints does the same.
func (r *Registry) PutEndpoint(ep *types.Endpoint) error {
	if ep.ID == "" {
		return errors.New("registry: endpoint record has no id")
	}
	cp := *ep
	cp.Labels = copyLabels(ep.Labels)
	if cp.Registered.IsZero() {
		cp.Registered = r.now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endpoints[cp.ID] = &cp
	r.notifyLocked(KindEndpoint, string(cp.ID), cp)
	return nil
}

func copyLabels(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	return cp
}

// Endpoint returns a copy of the endpoint record.
func (r *Registry) Endpoint(id types.EndpointID) (*types.Endpoint, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ep, ok := r.endpoints[id]
	if !ok {
		return nil, fmt.Errorf("%w: endpoint %s", ErrNotFound, id)
	}
	cp := *ep
	cp.Labels = copyLabels(ep.Labels)
	return &cp, nil
}

// AuthorizeDispatch checks that uid may send tasks to the endpoint:
// the endpoint must be public or owned by uid.
func (r *Registry) AuthorizeDispatch(uid types.UserID, id types.EndpointID) (*types.Endpoint, error) {
	ep, err := r.Endpoint(id)
	if err != nil {
		return nil, err
	}
	if !ep.Public && ep.Owner != uid {
		return nil, fmt.Errorf("%w: endpoint %s not accessible to %s", ErrForbidden, id, uid)
	}
	return ep, nil
}

// Endpoints lists all registered endpoints.
func (r *Registry) Endpoints() []*types.Endpoint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*types.Endpoint, 0, len(r.endpoints))
	for _, ep := range r.endpoints {
		cp := *ep
		out = append(out, &cp)
	}
	return out
}

// Functions snapshots every function record — the anti-entropy
// export a recovered peer pulls to converge on registrations it
// missed while down.
func (r *Registry) Functions() []*types.Function {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*types.Function, 0, len(r.functions))
	for _, fn := range r.functions {
		cp := *fn
		cp.SharedWith = append([]types.UserID(nil), fn.SharedWith...)
		out = append(out, &cp)
	}
	return out
}

// Groups snapshots every group record.
func (r *Registry) Groups() []*types.EndpointGroup {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*types.EndpointGroup, 0, len(r.groups))
	for _, g := range r.groups {
		out = append(out, copyGroup(g))
	}
	return out
}

// EndpointCount returns the number of registered endpoints.
func (r *Registry) EndpointCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.endpoints)
}

// --- endpoint groups ---

// RegisterGroup stores a new endpoint group owned by owner. Every
// member endpoint must exist and be dispatchable by the owner (owned
// or public) — a group cannot grant access its creator lacks.
// Duplicate members are collapsed (first occurrence wins) so a
// repeated endpoint cannot skew placement. A non-nil elastic spec
// (already validated/normalized by the service) opts the group into
// the fleet autoscaling controller; retryBudget (0 = service default)
// applies to tasks placed through the group that carry no budget of
// their own.
func (r *Registry) RegisterGroup(owner types.UserID, name, policy string, public bool, members []types.GroupMember, elastic *types.ElasticSpec, retryBudget int) (*types.EndpointGroup, error) {
	if len(members) == 0 {
		return nil, errors.New("registry: group needs at least one member endpoint")
	}
	deduped := make([]types.GroupMember, 0, len(members))
	seen := make(map[types.EndpointID]bool, len(members))
	for _, m := range members {
		if _, err := r.AuthorizeDispatch(owner, m.EndpointID); err != nil {
			return nil, err
		}
		if !seen[m.EndpointID] {
			seen[m.EndpointID] = true
			deduped = append(deduped, m)
		}
	}
	g := &types.EndpointGroup{
		ID:          r.mintGroupID(),
		Name:        name,
		Owner:       owner,
		Policy:      policy,
		Public:      public,
		Members:     deduped,
		RetryBudget: retryBudget,
		Elastic:     copyElastic(elastic),
		Registered:  r.now(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g.Elastic != nil {
		for _, m := range deduped {
			if other := r.elasticGroupOfLocked(m.EndpointID); other != nil {
				return nil, fmt.Errorf("%w: endpoint %s already belongs to elastic group %s; an endpoint takes scaling advice from at most one group",
					ErrConflict, m.EndpointID, other.ID)
			}
		}
	}
	r.groups[g.ID] = g
	r.notifyLocked(KindGroup, string(g.ID), *copyGroup(g))
	return copyGroup(g), nil
}

// PutGroup upserts a complete group record, preserving its id — the
// recovery and handoff-import path. No membership authorization or
// elastic-exclusivity validation is re-run: the record was validated
// when first registered.
func (r *Registry) PutGroup(g *types.EndpointGroup) error {
	if g.ID == "" {
		return errors.New("registry: group record has no id")
	}
	cp := copyGroup(g)
	if cp.Registered.IsZero() {
		cp.Registered = r.now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups[cp.ID] = cp
	r.notifyLocked(KindGroup, string(cp.ID), *copyGroup(cp))
	return nil
}

// elasticGroupOfLocked returns the elastic group the endpoint belongs
// to, if any. Two controllers advising one endpoint would flap its
// capacity target every evaluation, so membership in elastic groups is
// exclusive. Caller holds r.mu.
func (r *Registry) elasticGroupOfLocked(id types.EndpointID) *types.EndpointGroup {
	for _, g := range r.groups {
		if g.Elastic != nil && g.HasMember(id) {
			return g
		}
	}
	return nil
}

func copyGroup(g *types.EndpointGroup) *types.EndpointGroup {
	cp := *g
	cp.Members = append([]types.GroupMember(nil), g.Members...)
	cp.Elastic = copyElastic(g.Elastic)
	return &cp
}

func copyElastic(e *types.ElasticSpec) *types.ElasticSpec {
	if e == nil {
		return nil
	}
	cp := *e
	return &cp
}

// ElasticGroups lists the groups carrying an elasticity spec — the
// fleet autoscaling controller's work list.
func (r *Registry) ElasticGroups() []*types.EndpointGroup {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*types.EndpointGroup
	for _, g := range r.groups {
		if g.Elastic != nil {
			out = append(out, copyGroup(g))
		}
	}
	return out
}

// Group returns a copy of the group record.
func (r *Registry) Group(id types.GroupID) (*types.EndpointGroup, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.groups[id]
	if !ok {
		return nil, fmt.Errorf("%w: group %s", ErrNotFound, id)
	}
	return copyGroup(g), nil
}

// AddGroupMembers appends endpoints to a group (owner only). Members
// already present are skipped.
func (r *Registry) AddGroupMembers(actor types.UserID, id types.GroupID, members ...types.GroupMember) (*types.EndpointGroup, error) {
	for _, m := range members {
		if _, err := r.AuthorizeDispatch(actor, m.EndpointID); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.groups[id]
	if !ok {
		return nil, fmt.Errorf("%w: group %s", ErrNotFound, id)
	}
	if g.Owner != actor {
		return nil, fmt.Errorf("%w: only owner may modify group", ErrForbidden)
	}
	// Validate every addition before mutating, so a conflict mid-list
	// cannot leave the group partially extended.
	if g.Elastic != nil {
		for _, m := range members {
			if g.HasMember(m.EndpointID) {
				continue
			}
			if other := r.elasticGroupOfLocked(m.EndpointID); other != nil {
				return nil, fmt.Errorf("%w: endpoint %s already belongs to elastic group %s; an endpoint takes scaling advice from at most one group",
					ErrConflict, m.EndpointID, other.ID)
			}
		}
	}
	for _, m := range members {
		if !g.HasMember(m.EndpointID) {
			g.Members = append(g.Members, m)
		}
	}
	r.notifyLocked(KindGroup, string(g.ID), *copyGroup(g))
	return copyGroup(g), nil
}

// AuthorizeGroupDispatch checks that uid may target the group: the
// group must be public or owned by uid.
func (r *Registry) AuthorizeGroupDispatch(uid types.UserID, id types.GroupID) (*types.EndpointGroup, error) {
	g, err := r.Group(id)
	if err != nil {
		return nil, err
	}
	if !g.Public && g.Owner != uid {
		return nil, fmt.Errorf("%w: group %s not accessible to %s", ErrForbidden, id, uid)
	}
	return g, nil
}

// GroupCount returns the number of registered groups.
func (r *Registry) GroupCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.groups)
}
