package registry

import (
	"errors"
	"testing"

	"funcx/internal/types"
)

func groupFixture(t *testing.T) (*Registry, types.EndpointID, types.EndpointID) {
	t.Helper()
	r := New()
	ep1, err := r.RegisterEndpoint("alice", "ep1", "", false, map[string]string{"site": "anl"})
	if err != nil {
		t.Fatalf("RegisterEndpoint: %v", err)
	}
	ep2, err := r.RegisterEndpoint("alice", "ep2", "", true, nil)
	if err != nil {
		t.Fatalf("RegisterEndpoint: %v", err)
	}
	return r, ep1.ID, ep2.ID
}

func TestRegisterGroupRoundTrip(t *testing.T) {
	r, ep1, ep2 := groupFixture(t)
	g, err := r.RegisterGroup("alice", "fleet", "round-robin", false,
		[]types.GroupMember{{EndpointID: ep1}, {EndpointID: ep2, Weight: 3}}, nil, 0)
	if err != nil {
		t.Fatalf("RegisterGroup: %v", err)
	}
	got, err := r.Group(g.ID)
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	if got.Name != "fleet" || got.Policy != "round-robin" || len(got.Members) != 2 {
		t.Fatalf("group = %+v", got)
	}
	if got.Members[1].Weight != 3 {
		t.Fatalf("member weight = %d, want 3", got.Members[1].Weight)
	}
	if !got.HasMember(ep1) || got.HasMember("nope") {
		t.Fatal("HasMember wrong")
	}
	if r.GroupCount() != 1 {
		t.Fatalf("GroupCount = %d", r.GroupCount())
	}
}

func TestRegisterGroupValidatesMembers(t *testing.T) {
	r, ep1, _ := groupFixture(t)
	if _, err := r.RegisterGroup("alice", "empty", "", false, nil, nil, 0); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := r.RegisterGroup("alice", "ghost", "", false,
		[]types.GroupMember{{EndpointID: "no-such-ep"}}, nil, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown member: err = %v, want ErrNotFound", err)
	}
	// bob cannot group alice's private endpoint.
	if _, err := r.RegisterGroup("bob", "steal", "", false,
		[]types.GroupMember{{EndpointID: ep1}}, nil, 0); !errors.Is(err, ErrForbidden) {
		t.Fatalf("private member: err = %v, want ErrForbidden", err)
	}
}

func TestAuthorizeGroupDispatch(t *testing.T) {
	r, _, ep2 := groupFixture(t)
	private, err := r.RegisterGroup("alice", "private", "", false,
		[]types.GroupMember{{EndpointID: ep2}}, nil, 0)
	if err != nil {
		t.Fatalf("RegisterGroup: %v", err)
	}
	public, err := r.RegisterGroup("alice", "public", "", true,
		[]types.GroupMember{{EndpointID: ep2}}, nil, 0)
	if err != nil {
		t.Fatalf("RegisterGroup: %v", err)
	}
	if _, err := r.AuthorizeGroupDispatch("alice", private.ID); err != nil {
		t.Fatalf("owner dispatch: %v", err)
	}
	if _, err := r.AuthorizeGroupDispatch("bob", private.ID); !errors.Is(err, ErrForbidden) {
		t.Fatalf("stranger on private group: err = %v, want ErrForbidden", err)
	}
	if _, err := r.AuthorizeGroupDispatch("bob", public.ID); err != nil {
		t.Fatalf("stranger on public group: %v", err)
	}
}

func TestAddGroupMembersOwnerOnly(t *testing.T) {
	r, ep1, ep2 := groupFixture(t)
	g, err := r.RegisterGroup("alice", "fleet", "", false,
		[]types.GroupMember{{EndpointID: ep1}}, nil, 0)
	if err != nil {
		t.Fatalf("RegisterGroup: %v", err)
	}
	if _, err := r.AddGroupMembers("bob", g.ID, types.GroupMember{EndpointID: ep2}); !errors.Is(err, ErrForbidden) {
		t.Fatalf("non-owner add: err = %v, want ErrForbidden", err)
	}
	got, err := r.AddGroupMembers("alice", g.ID,
		types.GroupMember{EndpointID: ep2}, types.GroupMember{EndpointID: ep1})
	if err != nil {
		t.Fatalf("AddGroupMembers: %v", err)
	}
	if len(got.Members) != 2 {
		t.Fatalf("members = %d, want 2 (duplicate skipped)", len(got.Members))
	}
}

func TestRegisterGroupDeduplicatesMembers(t *testing.T) {
	r, ep1, ep2 := groupFixture(t)
	g, err := r.RegisterGroup("alice", "dup", "", false, []types.GroupMember{
		{EndpointID: ep1, Weight: 2}, {EndpointID: ep1}, {EndpointID: ep2},
	}, nil, 0)
	if err != nil {
		t.Fatalf("RegisterGroup: %v", err)
	}
	if len(g.Members) != 2 {
		t.Fatalf("members = %d, want 2 (duplicate collapsed)", len(g.Members))
	}
	if g.Members[0].EndpointID != ep1 || g.Members[0].Weight != 2 {
		t.Fatalf("first occurrence should win: %+v", g.Members[0])
	}
}

func TestEndpointLabelsStoredAndCopied(t *testing.T) {
	r, ep1, _ := groupFixture(t)
	ep, err := r.Endpoint(ep1)
	if err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	if ep.Labels["site"] != "anl" {
		t.Fatalf("labels = %v", ep.Labels)
	}
	// Mutating the returned copy must not leak into the registry.
	ep.Labels["site"] = "ornl"
	again, _ := r.Endpoint(ep1)
	if again.Labels["site"] != "anl" {
		t.Fatal("label mutation leaked into registry")
	}
}
