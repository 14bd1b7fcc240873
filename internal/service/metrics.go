// Prometheus text exposition (GET /v1/metrics): the same counters
// /v1/stats serves as JSON, rendered in the text format (version
// 0.0.4) any Prometheus-compatible scraper ingests directly — no
// client library, the format is just lines. Gauges and counters only;
// per-endpoint series carry an "endpoint" label, and every series is
// labeled with the reporting shard when sharded (each shard is its own
// scrape target, like funcX's per-instance monitoring).
package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"funcx/internal/trace"
)

// promWriter accumulates one exposition document. Metric families are
// emitted grouped (single HELP/TYPE header per family) in the order
// first added.
type promWriter struct {
	b      strings.Builder
	shard  string
	family string
}

// header opens a metric family.
func (p *promWriter) header(name, typ, help string) {
	if p.family == name {
		return
	}
	p.family = name
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one series of the open family. Labels alternate
// key, value; the shard label is appended automatically.
func (p *promWriter) sample(value float64, labels ...string) {
	p.series(p.family, value, labels...)
}

// series emits one sample line under an explicit series name —
// histogram families put _bucket/_sum/_count series inside one family
// header, so the series name and the open family differ.
func (p *promWriter) series(name string, value float64, labels ...string) {
	p.seriesExemplar(name, value, "", labels...)
}

// seriesExemplar is series with a pre-rendered OpenMetrics exemplar
// suffix appended after the value ("" for none).
func (p *promWriter) seriesExemplar(name string, value float64, exemplar string, labels ...string) {
	if p.shard != "" {
		labels = append(labels, "shard", p.shard)
	}
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, "%s=%q", labels[i], labels[i+1])
		}
		p.b.WriteByte('}')
	}
	// %g renders integers without a trailing ".0" and large counters
	// without exponent surprises up to 2^53, far past these counters.
	fmt.Fprintf(&p.b, " %g", value)
	p.b.WriteString(exemplar)
	p.b.WriteByte('\n')
}

// histogram emits one histogram series set — cumulative le buckets
// with the mandatory +Inf terminal bucket, then _sum and _count —
// under the open family. Labels alternate key, value as in sample.
// exemplars (nil to omit) pairs with bounds plus a final +Inf entry,
// per trace.Snapshot.
func (p *promWriter) histogram(name string, bounds []float64, cumulative []uint64, sum float64, count uint64, exemplars []trace.Exemplar, labels ...string) {
	for i, bound := range bounds {
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		p.seriesExemplar(name+"_bucket", float64(cumulative[i]), exemplarSuffix(exemplars, i),
			append(append([]string(nil), labels...), "le", le)...)
	}
	p.seriesExemplar(name+"_bucket", float64(count), exemplarSuffix(exemplars, len(bounds)),
		append(append([]string(nil), labels...), "le", "+Inf")...)
	p.series(name+"_sum", sum, labels...)
	p.series(name+"_count", float64(count), labels...)
}

// exemplarSuffix renders one bucket's exemplar in OpenMetrics syntax —
// ` # {trace_id="...",task_id="..."} value` — or "" when the bucket
// has none.
func exemplarSuffix(exemplars []trace.Exemplar, i int) string {
	if i >= len(exemplars) || exemplars[i].TaskID == "" {
		return ""
	}
	e := exemplars[i]
	return fmt.Sprintf(` # {trace_id=%q,task_id=%q} %s`,
		e.TraceID, string(e.TaskID), strconv.FormatFloat(e.Value, 'g', -1, 64))
}

func (p *promWriter) counter(name, help string, v float64, labels ...string) {
	p.header(name, "counter", help)
	p.sample(v, labels...)
}

func (p *promWriter) gauge(name, help string, v float64, labels ...string) {
	p.header(name, "gauge", help)
	p.sample(v, labels...)
}

// handleMetrics is GET /v1/metrics: StatsSnapshot in Prometheus text
// exposition, including the WAL durability counters on instances with
// a data dir. Always local, like /v1/stats — a fleet scrape config
// lists every shard, or scrapes the merged view at /v1/metrics/fleet.
// Exemplars on the stage histograms are opt-in: Accept-negotiated via
// application/openmetrics-text, or forced with ?exemplars=1.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	exemplars := metricsWantExemplars(r)
	doc := s.renderMetrics(exemplars)
	ct := "text/plain; version=0.0.4; charset=utf-8"
	if exemplars {
		ct = "application/openmetrics-text; version=1.0.0; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(doc)) //nolint:errcheck // best-effort scrape response
}

// metricsWantExemplars reports whether a scrape asked for the
// exemplar-annotated view.
func metricsWantExemplars(r *http.Request) bool {
	if r.URL.Query().Get("exemplars") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

// renderMetrics builds the exposition document (the fleet handler
// renders locally with exemplars on, then merges peers' documents).
func (s *Service) renderMetrics(exemplars bool) string {
	st := s.StatsSnapshot()
	p := &promWriter{shard: st.ShardID}

	if st.Shards > 0 {
		p.gauge("funcx_shards", "Number of shards in the ring.", float64(st.Shards))
	}
	p.counter("funcx_tasks_submitted_total", "Tasks accepted for execution.", float64(st.Submitted))
	p.counter("funcx_tasks_memoized_total", "Submissions answered from the memo cache.", float64(st.MemoHits))
	p.counter("funcx_tasks_rerouted_total", "Queued tasks moved to surviving group members.", float64(st.Rerouted))
	p.counter("funcx_tasks_retried_total", "Reclaimed tasks redelivered.", float64(st.Retried))
	p.counter("funcx_tasks_lost_total", "Tasks retired as lost.", float64(st.Lost))
	p.counter("funcx_gateway_proxied_total", "Cross-shard requests proxied by this shard.", float64(st.Proxied))
	p.counter("funcx_gateway_redirected_total", "Cross-shard requests redirected by this shard.", float64(st.Redirected))
	p.counter("funcx_dag_submitted_total", "Dependency graphs accepted.", float64(st.DAGsSubmitted))
	p.counter("funcx_dag_completed_total", "Dependency graphs that reached a terminal state.", float64(st.DAGsCompleted))
	p.counter("funcx_dag_nodes_total", "Graph nodes accepted across all dependency graphs.", float64(st.DAGNodes))
	p.counter("funcx_dag_releases_total", "Dependent nodes released server-side by parent completions (internal edges).", float64(st.DAGReleases))
	p.counter("funcx_dag_dependency_failures_total", "Typed dependency failures propagated to held descendants.", float64(st.DAGDepFailures))
	p.counter("funcx_dag_memo_shortcuts_total", "Graph nodes short-circuited wholesale from the memo cache at submit.", float64(st.DAGMemoShortcut))
	p.gauge("funcx_dag_active", "Dependency graphs currently holding or running nodes.", float64(st.DAGsActive))
	p.counter("funcx_dag_evicted_total", "Finished graphs evicted from the DAG table after their retention window.", float64(st.DAGsEvicted))
	p.counter("funcx_stream_purged_total", "Results purged early after inline delivery on the owner's event stream.", float64(st.StreamPurged))
	p.counter("funcx_elastic_evaluations_total", "Fleet-autoscaler decision rounds.", float64(st.ElasticEvaluations))
	p.gauge("funcx_event_streams", "Per-user event streams currently held.", float64(st.EventUsers))
	p.gauge("funcx_event_subscribers", "Live event subscriptions across all streams.", float64(st.EventSubscribers))
	p.gauge("funcx_event_buffered_events", "Events buffered across per-user replay rings.", float64(st.EventBufferedEvents))
	p.gauge("funcx_event_pending_done", "Tasks carrying completion-wait registrations.", float64(st.EventPendingDone))
	p.gauge("funcx_event_seq_tombstones", "Evicted users whose event numbering is preserved.", float64(st.EventSeqTombstones))

	if s.Trace != nil {
		p.gauge("funcx_trace_active_timelines", "In-flight task timelines being recorded.", float64(st.TraceActive))
		p.gauge("funcx_trace_completed_timelines", "Completed task timelines retained for the trace API.", float64(st.TraceCompleted))
		p.counter("funcx_trace_evicted_total", "Completed timelines dropped from the retention ring.", float64(st.TraceEvicted))
		// Per-stage latency histograms folded from completed timelines:
		// one series set per (stage, endpoint, group), cumulative le
		// buckets in seconds. The "total" stage is end-to-end
		// (submit arrival → terminal event published).
		for _, h := range s.Trace.Histograms() {
			p.header("funcx_task_stage_seconds", "histogram",
				"Per-stage task latency decomposed from completed timelines (stages: submit, queue, dispatch, execute, return, publish, total).")
			labels := []string{"stage", h.Stage}
			if h.Endpoint != "" {
				labels = append(labels, "endpoint", string(h.Endpoint))
			}
			if h.Group != "" {
				labels = append(labels, "group", string(h.Group))
			}
			var ex []trace.Exemplar
			if exemplars {
				ex = h.Exemplars
			}
			p.histogram("funcx_task_stage_seconds", h.Bounds, h.Cumulative, h.Sum, h.Count, ex, labels...)
		}
	}

	if s.Exporter != nil {
		p.counter("funcx_otlp_spans_exported_total", "Spans delivered to the OTLP collector in accepted batches.", float64(st.OTLPExported))
		p.counter("funcx_otlp_timelines_dropped_total", "Completed timelines lost to the drop-oldest export queue or to refused batches.", float64(st.OTLPDropped))
		p.counter("funcx_otlp_export_errors_total", "OTLP export batches that failed to reach the collector.", float64(st.OTLPExportErrors))
		p.gauge("funcx_otlp_queue_depth", "Completed timelines waiting in the OTLP export queue.", float64(st.OTLPQueueDepth))
	}
	if st.Shards > 0 {
		p.counter("funcx_fleet_scrape_errors_total", "Peer shards that failed to answer a fleet metrics scatter-gather.", float64(st.FleetScrapeErrors))
	}

	for _, ep := range st.Endpoints {
		p.gauge("funcx_endpoint_connected", "Whether the endpoint's agent is attached (1) or not (0).",
			b2f(ep.Connected), "endpoint", string(ep.EndpointID))
	}
	for _, ep := range st.Endpoints {
		p.gauge("funcx_endpoint_queued_tasks", "Live depth of the endpoint's task queue.",
			float64(ep.Queued), "endpoint", string(ep.EndpointID))
	}
	for _, ep := range st.Endpoints {
		p.gauge("funcx_endpoint_outstanding_tasks", "Dispatched-but-unfinished tasks on the endpoint.",
			float64(ep.Outstanding), "endpoint", string(ep.EndpointID))
	}
	for _, ep := range st.Endpoints {
		p.counter("funcx_endpoint_dispatched_total", "Tasks shipped to the endpoint's agent.",
			float64(ep.Dispatched), "endpoint", string(ep.EndpointID))
	}
	for _, ep := range st.Endpoints {
		p.counter("funcx_endpoint_completed_total", "Results stored for the endpoint.",
			float64(ep.Completed), "endpoint", string(ep.EndpointID))
	}
	for _, ep := range st.Endpoints {
		p.counter("funcx_endpoint_requeued_total", "Local requeues after agent disconnects.",
			float64(ep.Requeued), "endpoint", string(ep.EndpointID))
	}
	for _, ep := range st.Endpoints {
		p.counter("funcx_endpoint_reclaimed_total", "Leases reclaimed by the service.",
			float64(ep.Reclaimed), "endpoint", string(ep.EndpointID))
	}
	for _, ep := range st.Endpoints {
		p.gauge("funcx_endpoint_reclaim_rate", "Decaying reclaim/lost EWMA feeding the router penalty.",
			ep.ReclaimRate, "endpoint", string(ep.EndpointID))
	}

	if st.WAL != nil {
		p.counter("funcx_wal_appends_total", "Records appended to the write-ahead log.", float64(st.WAL.Appends))
		p.counter("funcx_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", float64(st.WAL.AppendedBytes))
		p.counter("funcx_wal_fsyncs_total", "Group-commit fsyncs issued.", float64(st.WAL.Fsyncs))
		p.counter("funcx_wal_fsync_seconds_total", "Wall time spent inside group-commit fsyncs (fsync_seconds_total/fsyncs_total is the in-situ commit latency).", float64(st.WAL.FsyncNanos)/1e9)
		p.counter("funcx_wal_rotations_total", "WAL segment rotations.", float64(st.WAL.Rotations))
		p.counter("funcx_wal_snapshots_total", "Snapshots written since open.", float64(st.WAL.Snapshots))
		p.gauge("funcx_wal_recovered", "Whether this instance booted by replaying a journal (1) or cold (0).", b2f(st.WAL.Recovered))
		p.gauge("funcx_wal_recovered_records", "WAL records replayed at the last recovery.", float64(st.WAL.RecoveredRecords))
		p.gauge("funcx_wal_recovered_snapshot_bytes", "Snapshot bytes loaded at the last recovery.", float64(st.WAL.RecoveredSnapshot))
		p.gauge("funcx_wal_torn_records", "Torn/corrupt tail records discarded at the last recovery.", float64(st.WAL.TornRecords))
		p.gauge("funcx_wal_failed", "Whether the journal has hit an I/O error (1): the error is sticky, and nothing accepted since is durable.", b2f(s.Store.WALErr() != nil))
	}

	return p.b.String()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
