package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/taskrec"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// TestReattachAfterRecovery drives the operator story the reattach
// surface exists for: a durable service restarts, recovery rebuilds
// the endpoint record and a fresh forwarder on a new ephemeral port,
// and the agent rejoins via POST /v1/endpoints/{id}/reattach instead
// of registering a new endpoint (which would mint a new id and strand
// the old queue).
func TestReattachAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dir}

	svc1, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv1 := httptest.NewServer(svc1)
	alice := svc1.MintUserToken("alice", auth.ScopeAll)

	var reg api.RegisterEndpointResponse
	if code := doJSON(t, srv1, alice, http.MethodPost, "/v1/endpoints",
		api.RegisterEndpointRequest{Name: "ep1"}, &reg); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	srv1.Close()
	svc1.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	srv2 := httptest.NewServer(svc2)
	defer srv2.Close()
	if st := svc2.StatsSnapshot(); st.WAL == nil || !st.WAL.Recovered {
		t.Fatal("second boot did not recover from the journal")
	}

	// The recovered instance has a fresh signing key; the owner
	// re-authenticates by subject, as with any token expiry.
	alice2 := svc2.MintUserToken("alice", auth.ScopeAll)
	var att api.RegisterEndpointResponse
	code := doJSON(t, srv2, alice2, http.MethodPost,
		"/v1/endpoints/"+string(reg.EndpointID)+"/reattach", struct{}{}, &att)
	if code != http.StatusOK {
		t.Fatalf("reattach = %d", code)
	}
	if att.EndpointID != reg.EndpointID {
		t.Fatalf("reattach id = %s, want %s", att.EndpointID, reg.EndpointID)
	}
	// The re-bound listener may land on any ephemeral port (including,
	// rarely, the old one) — only liveness is asserted.
	if att.ForwarderAddr == "" {
		t.Fatal("reattach returned no forwarder address")
	}
	if err := svc2.verifyEndpointToken(att.EndpointID, att.EndpointToken); err != nil {
		t.Fatalf("reissued endpoint token rejected: %v", err)
	}

	// Only the owner may reissue credentials, and the endpoint must
	// exist.
	mallory := svc2.MintUserToken("mallory", auth.ScopeAll)
	if code := doJSON(t, srv2, mallory, http.MethodPost,
		"/v1/endpoints/"+string(reg.EndpointID)+"/reattach", struct{}{}, nil); code < 400 {
		t.Fatalf("non-owner reattach = %d, want an error", code)
	}
	if code := doJSON(t, srv2, alice2, http.MethodPost,
		"/v1/endpoints/nope/reattach", struct{}{}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown endpoint reattach = %d, want 404", code)
	}
}

// A data dir from before the task table holds its tasks in the four
// hashes nothing reads any more: the boot must stop and name the hash,
// not come up having forgotten every task in it.
func TestRecoveryRefusesPreTableHashes(t *testing.T) {
	for _, name := range legacyTaskHashes {
		cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: t.TempDir()}
		svc, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		svc.Store.Hash(name).Set("t1", []byte("alice"))
		svc.Close()

		svc, err = Open(cfg)
		if err == nil {
			svc.Close()
			t.Fatalf("reopen over a non-empty %q hash succeeded", name)
		}
		if !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Fatalf("reopen error = %v, want one naming hash %q", err, name)
		}
	}
}

// A result landed by a build whose result frames had varint stamps is
// in a layout no decoder here reads: the boot must stop and say so,
// not come up with results that fail one reader at a time.
func TestRecoveryRefusesLegacyResultLayout(t *testing.T) {
	cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: t.TempDir()}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	current := wire.EncodeResult(&types.Result{TaskID: "t1", Output: []byte("out")})
	legacy := append([]byte{0x03}, current[1:]...) // the result format byte of those builds
	svc.apply(taskrec.Event{Kind: taskrec.Place, ID: "t1", Owner: "alice", Endpoint: "ep", Attempt: 1, Frame: wire.EncodeTask(&types.Task{ID: "t1"})})
	if _, ok := svc.apply(taskrec.Event{Kind: taskrec.Result, ID: "t1", Status: types.TaskSuccess, Frame: legacy}); !ok {
		t.Fatal("landing the result did not apply")
	}
	svc.Close()

	svc, err = Open(cfg)
	if err == nil {
		svc.Close()
		t.Fatal("reopen over a result in the previous layout succeeded")
	}
	if !errors.Is(err, wire.ErrLegacyResult) || !strings.Contains(err.Error(), "t1") {
		t.Fatalf("reopen error = %v, want wire.ErrLegacyResult naming task t1", err)
	}
}
