package service

// metricFamily declares one funcx_* exposition family: its Prometheus
// kind and, when it mirrors a /v1/stats counter, the api struct field
// it is derived from ("" for families computed on the fly, like the
// stage histograms). The metricnames analyzer checks this table
// against the writer in metrics.go and against the api stats structs,
// so the exposition, the registry, and the JSON stats surface cannot
// drift apart silently.
type metricFamily struct {
	kind  string // "counter", "gauge", or "histogram"
	stats string // "Struct.Field" into funcx/internal/api, or ""
}

// metricFamilies is the single declaration point for every metric
// family this service emits. Adding an emission in metrics.go without
// registering it here — or registering a family that is never emitted,
// or naming a stats field that no longer exists — fails `make lint`.
//
//funcx:metric-registry
var metricFamilies = map[string]metricFamily{
	"funcx_shards":                        {kind: "gauge", stats: "StatsResponse.Shards"},
	"funcx_tasks_submitted_total":         {kind: "counter", stats: "StatsResponse.Submitted"},
	"funcx_tasks_memoized_total":          {kind: "counter", stats: "StatsResponse.MemoHits"},
	"funcx_tasks_rerouted_total":          {kind: "counter", stats: "StatsResponse.Rerouted"},
	"funcx_tasks_retried_total":           {kind: "counter", stats: "StatsResponse.Retried"},
	"funcx_tasks_lost_total":              {kind: "counter", stats: "StatsResponse.Lost"},
	"funcx_gateway_proxied_total":         {kind: "counter", stats: "StatsResponse.Proxied"},
	"funcx_gateway_redirected_total":      {kind: "counter", stats: "StatsResponse.Redirected"},
	"funcx_dag_submitted_total":           {kind: "counter", stats: "StatsResponse.DAGsSubmitted"},
	"funcx_dag_completed_total":           {kind: "counter", stats: "StatsResponse.DAGsCompleted"},
	"funcx_dag_nodes_total":               {kind: "counter", stats: "StatsResponse.DAGNodes"},
	"funcx_dag_releases_total":            {kind: "counter", stats: "StatsResponse.DAGReleases"},
	"funcx_dag_dependency_failures_total": {kind: "counter", stats: "StatsResponse.DAGDepFailures"},
	"funcx_dag_memo_shortcuts_total":      {kind: "counter", stats: "StatsResponse.DAGMemoShortcut"},
	"funcx_dag_active":                    {kind: "gauge", stats: "StatsResponse.DAGsActive"},
	"funcx_dag_evicted_total":             {kind: "counter", stats: "StatsResponse.DAGsEvicted"},
	"funcx_stream_purged_total":           {kind: "counter", stats: "StatsResponse.StreamPurged"},
	"funcx_elastic_evaluations_total":     {kind: "counter", stats: "StatsResponse.ElasticEvaluations"},
	"funcx_event_streams":                 {kind: "gauge", stats: "StatsResponse.EventUsers"},
	"funcx_event_subscribers":             {kind: "gauge", stats: "StatsResponse.EventSubscribers"},
	"funcx_event_buffered_events":         {kind: "gauge", stats: "StatsResponse.EventBufferedEvents"},
	"funcx_event_pending_done":            {kind: "gauge", stats: "StatsResponse.EventPendingDone"},
	"funcx_event_seq_tombstones":          {kind: "gauge", stats: "StatsResponse.EventSeqTombstones"},
	"funcx_trace_active_timelines":        {kind: "gauge", stats: "StatsResponse.TraceActive"},
	"funcx_trace_completed_timelines":     {kind: "gauge", stats: "StatsResponse.TraceCompleted"},
	"funcx_trace_evicted_total":           {kind: "counter", stats: "StatsResponse.TraceEvicted"},
	"funcx_task_stage_seconds":            {kind: "histogram"},
	"funcx_otlp_spans_exported_total":     {kind: "counter", stats: "StatsResponse.OTLPExported"},
	"funcx_otlp_timelines_dropped_total":  {kind: "counter", stats: "StatsResponse.OTLPDropped"},
	"funcx_otlp_export_errors_total":      {kind: "counter", stats: "StatsResponse.OTLPExportErrors"},
	"funcx_otlp_queue_depth":              {kind: "gauge", stats: "StatsResponse.OTLPQueueDepth"},
	"funcx_fleet_scrape_errors_total":     {kind: "counter", stats: "StatsResponse.FleetScrapeErrors"},
	"funcx_endpoint_connected":            {kind: "gauge", stats: "EndpointStats.Connected"},
	"funcx_endpoint_queued_tasks":         {kind: "gauge", stats: "EndpointStats.Queued"},
	"funcx_endpoint_outstanding_tasks":    {kind: "gauge", stats: "EndpointStats.Outstanding"},
	"funcx_endpoint_dispatched_total":     {kind: "counter", stats: "EndpointStats.Dispatched"},
	"funcx_endpoint_completed_total":      {kind: "counter", stats: "EndpointStats.Completed"},
	"funcx_endpoint_requeued_total":       {kind: "counter", stats: "EndpointStats.Requeued"},
	"funcx_endpoint_reclaimed_total":      {kind: "counter", stats: "EndpointStats.Reclaimed"},
	"funcx_endpoint_reclaim_rate":         {kind: "gauge", stats: "EndpointStats.ReclaimRate"},
	"funcx_wal_appends_total":             {kind: "counter", stats: "WALStats.Appends"},
	"funcx_wal_appended_bytes_total":      {kind: "counter", stats: "WALStats.AppendedBytes"},
	"funcx_wal_fsyncs_total":              {kind: "counter", stats: "WALStats.Fsyncs"},
	"funcx_wal_fsync_seconds_total":       {kind: "counter", stats: "WALStats.FsyncNanos"},
	"funcx_wal_rotations_total":           {kind: "counter", stats: "WALStats.Rotations"},
	"funcx_wal_snapshots_total":           {kind: "counter", stats: "WALStats.Snapshots"},
	"funcx_wal_recovered":                 {kind: "gauge", stats: "WALStats.Recovered"},
	"funcx_wal_recovered_records":         {kind: "gauge", stats: "WALStats.RecoveredRecords"},
	"funcx_wal_recovered_snapshot_bytes":  {kind: "gauge", stats: "WALStats.RecoveredSnapshot"},
	"funcx_wal_torn_records":              {kind: "gauge", stats: "WALStats.TornRecords"},
	"funcx_wal_failed":                    {kind: "gauge"},
}
