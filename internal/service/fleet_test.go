package service

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/promtext"
	"funcx/internal/shard"
	"funcx/internal/trace"
	"funcx/internal/types"
)

// scrapePath fetches any metrics path and returns the parsed families
// plus the response Content-Type.
func scrapePath(t *testing.T, base, token, path string) ([]promtext.Family, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+path, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d\n%s", path, resp.StatusCode, body)
	}
	fams, err := promtext.Parse(string(body))
	if err != nil {
		t.Fatalf("exposition rejected by strict parser: %v\n%s", err, body)
	}
	return fams, resp.Header.Get("Content-Type")
}

// completeTimeline drives one full lifecycle through the collector, as
// the task hooks would, so the stage histograms gain an observation
// linked to (id, dag).
func completeTimeline(svc *Service, id types.TaskID, dag types.DAGID) {
	svc.Trace.BeginLinked(id, "ep-1", "", "fn-1", dag, time.Now().Add(-time.Second))
	for _, st := range []trace.Stage{
		trace.StageRouted, trace.StageQueued, trace.StageDispatched,
		trace.StageRunning, trace.StageResult, trace.StagePublished,
	} {
		svc.Trace.Stamp(id, st)
	}
	svc.Trace.Remote(id, &types.TraceDeltas{Exec: time.Millisecond})
	svc.Trace.Finish(id)
}

// Exemplars appear only on the OpenMetrics variant, link back to the
// task and its derived trace id, and stay off the default exposition.
func TestMetricsExemplars(t *testing.T) {
	svc, srv, token := testService(t)
	completeTimeline(svc, "t-ex", "dag-ex")

	fams, ct := scrapePath(t, srv.URL, token, "/v1/metrics?exemplars=1")
	if !strings.Contains(ct, "openmetrics") {
		t.Fatalf("exemplar scrape Content-Type %q", ct)
	}
	h := promtext.Get(fams, "funcx_task_stage_seconds")
	if h == nil {
		t.Fatal("stage histogram missing")
	}
	wantTrace := trace.TraceID("t-ex", "dag-ex")
	found := 0
	for _, s := range h.Samples {
		if s.Exemplar == nil {
			continue
		}
		found++
		if got := s.Exemplar.Labels["task_id"]; got != "t-ex" {
			t.Errorf("exemplar task_id %q, want t-ex", got)
		}
		if got := s.Exemplar.Labels["trace_id"]; got != wantTrace {
			t.Errorf("exemplar trace_id %q, want %q", got, wantTrace)
		}
	}
	if found == 0 {
		t.Fatal("no exemplars on the stage histogram after a completed task")
	}

	// The default scrape must stay 0.0.4 and exemplar-free (old
	// scrapers choke on the OpenMetrics extension).
	plain, plainCT := scrapePath(t, srv.URL, token, "/v1/metrics")
	if !strings.Contains(plainCT, "0.0.4") {
		t.Fatalf("plain scrape Content-Type %q", plainCT)
	}
	for _, s := range promtext.Get(plain, "funcx_task_stage_seconds").Samples {
		if s.Exemplar != nil {
			t.Fatal("exemplar leaked into the default exposition")
		}
	}

	// Accept-header negotiation selects the OpenMetrics variant too.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/metrics", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), " # {") {
		t.Fatal("Accept: application/openmetrics-text did not enable exemplars")
	}
}

// An unsharded service serves /v1/metrics/fleet as a merged view of
// itself: parse-clean, exemplars on.
func TestFleetMetricsUnsharded(t *testing.T) {
	svc, srv, token := testService(t)
	completeTimeline(svc, "t-solo", "")

	fams, ct := scrapePath(t, srv.URL, token, "/v1/metrics/fleet")
	if !strings.Contains(ct, "openmetrics") {
		t.Fatalf("fleet Content-Type %q", ct)
	}
	h := promtext.Get(fams, "funcx_task_stage_seconds")
	if h == nil || h.Sample(map[string]string{"stage": "total", "endpoint": "ep-1", "le": "+Inf"}).Value != 1 {
		t.Fatalf("fleet view lost the local histogram: %+v", h)
	}
}

// newFleet boots n real sharded services on live listeners sharing one
// ring and auth key, returning the services and shard-0's base URL and
// operator token. extra ring members beyond n get dead base URLs.
func newFleet(t *testing.T, n, dead int) ([]*Service, string, string) {
	t.Helper()
	return newFleetBehind(t, n, dead, func(_ int, svc *Service) http.Handler { return svc })
}

// newFleetBehind is newFleet with each shard served through front(i,
// shard), so a test can watch what arrives at one.
func newFleetBehind(t *testing.T, n, dead int, front func(int, *Service) http.Handler) ([]*Service, string, string) {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i + 1)
	}
	lns := make([]net.Listener, n)
	cfg := shard.Config{Seed: 7}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		cfg.Shards = append(cfg.Shards, shard.Info{
			ID:      shard.ID("shard-" + string(rune('a'+i))),
			BaseURL: "http://" + ln.Addr().String(),
		})
	}
	for i := 0; i < dead; i++ {
		cfg.Shards = append(cfg.Shards, shard.Info{
			ID:      shard.ID("shard-dead-" + string(rune('a'+i))),
			BaseURL: "http://127.0.0.1:1", // nothing listens here
		})
	}
	svcs := make([]*Service, n)
	for i := 0; i < n; i++ {
		dir, err := shard.NewDirectory(cfg, cfg.Shards[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{ShardID: cfg.Shards[i].ID, Ring: dir, AuthKey: key,
			HeartbeatPeriod: 50 * time.Millisecond})
		t.Cleanup(svc.Close)
		srv := &http.Server{Handler: front(i, svc)}
		go srv.Serve(lns[i]) //nolint:errcheck // closed by cleanup
		t.Cleanup(func() { srv.Close() })
		svcs[i] = svc
	}
	token := svcs[0].MintUserToken("alice", auth.ScopeAll)
	return svcs, "http://" + lns[0].Addr().String(), token
}

// A sharded /v1/metrics/fleet merges every live peer (counters and
// histograms sum, gauges stay per-shard) and survives dead ring
// members, counting them instead of failing the scrape.
func TestFleetMetricsSharded(t *testing.T) {
	svcs, base, token := newFleet(t, 2, 1)
	completeTimeline(svcs[0], "t-shard-a", "")
	completeTimeline(svcs[1], "t-shard-b", "")

	fams, _ := scrapePath(t, base, token, "/v1/metrics/fleet")
	h := promtext.Get(fams, "funcx_task_stage_seconds")
	if h == nil {
		t.Fatal("merged stage histogram missing")
	}
	inf := h.Sample(map[string]string{"stage": "total", "endpoint": "ep-1", "le": "+Inf"})
	if inf == nil || inf.Value != 2 {
		t.Fatalf("merged total histogram = %+v, want both shards' observations", inf)
	}
	if _, hasShard := inf.Labels["shard"]; hasShard {
		t.Fatal("summed histogram kept the shard label")
	}
	shards := promtext.Get(fams, "funcx_shards")
	if shards == nil || len(shards.Samples) != 2 {
		t.Fatalf("funcx_shards gauge should keep one series per live shard: %+v", shards)
	}

	// The dead ring member cost one error counter tick per fleet
	// scrape on the serving shard, never the scrape itself.
	var stats api.StatsResponse
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.FleetScrapeErrors != 1 {
		t.Fatalf("fleet_scrape_errors = %d, want 1 (one dead peer, one scrape)", stats.FleetScrapeErrors)
	}
}

// With an OTLP endpoint configured, the exporter counters surface on
// both /v1/stats and /v1/metrics, and a completed timeline's spans
// reach the collector.
func TestOTLPExportStatsAndMetrics(t *testing.T) {
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer collector.Close()

	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, OTLPEndpoint: collector.URL})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	token := svc.MintUserToken("alice", auth.ScopeAll)

	completeTimeline(svc, "t-otlp", "")
	deadline := time.Now().Add(10 * time.Second)
	for svc.Exporter.Stats().Exported == 0 {
		if time.Now().After(deadline) {
			t.Fatal("exporter never flushed the completed timeline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := svc.Exporter.Stats().Exported; got != 7 {
		t.Fatalf("exported %d spans, want 7", got)
	}

	fams, _ := scrapePath(t, srv.URL, token, "/v1/metrics")
	c := promtext.Get(fams, "funcx_otlp_spans_exported_total")
	if c == nil || c.Samples[0].Value != 7 {
		t.Fatalf("funcx_otlp_spans_exported_total: %+v", c)
	}
	for _, name := range []string{
		"funcx_otlp_timelines_dropped_total",
		"funcx_otlp_export_errors_total",
		"funcx_otlp_queue_depth",
	} {
		if promtext.Get(fams, name) == nil {
			t.Errorf("%s missing from the exposition", name)
		}
	}
}

// Ready reflects the service lifecycle: true while serving, false
// after Close.
func TestServiceReady(t *testing.T) {
	svc, _, _ := testService(t)
	if ok, msg := svc.Ready(); !ok {
		t.Fatalf("fresh service not ready: %s", msg)
	}
	svc.Close()
	if ok, _ := svc.Ready(); ok {
		t.Fatal("closed service reports ready")
	}
}

// A durable service whose journal has failed says so: /readyz turns
// red naming the error and funcx_wal_failed reads 1, instead of
// accepting tasks it can no longer keep.
func TestServiceNotReadyAfterWALFailure(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	failed := func() float64 {
		t.Helper()
		fams, err := promtext.Parse(svc.renderMetrics(false))
		if err != nil {
			t.Fatal(err)
		}
		f := promtext.Get(fams, "funcx_wal_failed")
		if f == nil {
			t.Fatal("funcx_wal_failed missing from the exposition")
		}
		return f.Samples[0].Value
	}
	if ok, msg := svc.Ready(); !ok || failed() != 0 {
		t.Fatalf("healthy durable service: ready=%v (%s), funcx_wal_failed=%v", ok, msg, failed())
	}
	// With the data dir gone the checkpoint's segment rotation cannot
	// open its next file.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := svc.Store.Snapshot(); err == nil {
		t.Fatal("snapshot into a removed data dir succeeded")
	}
	ok, msg := svc.Ready()
	if ok || !strings.HasPrefix(msg, "wal: ") || failed() != 1 {
		t.Fatalf("after the journal failed: ready=%v (%q), funcx_wal_failed=%v", ok, msg, failed())
	}
}
