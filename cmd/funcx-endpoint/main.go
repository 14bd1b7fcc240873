// Command funcx-endpoint deploys a funcX endpoint agent on this
// machine (paper §4.3): it registers an endpoint with a running
// funcx-service, connects the agent to its forwarder over TCP, and
// launches managers with containerized workers.
//
// The worker runtime ships with the built-in functions (noop, sleep,
// stress, echo, double, fail) and the six §2 case-study functions
// pre-registered, so any client can exercise the endpoint immediately.
//
// Usage:
//
//	funcx-endpoint -service http://127.0.0.1:8080 -token <operator-token> \
//	    -name my-laptop -managers 2 -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"funcx/internal/api"
	"funcx/internal/container"
	"funcx/internal/debugserver"
	"funcx/internal/endpoint"
	"funcx/internal/fx"
	"funcx/internal/manager"
	"funcx/internal/sdk"
	"funcx/internal/types"
	"funcx/internal/workload"
)

func main() {
	var (
		serviceURL = flag.String("service", "http://127.0.0.1:8080", "funcx-service base URL")
		token      = flag.String("token", "", "bearer token (from funcx-service)")
		name       = flag.String("name", "endpoint", "endpoint display name")
		public     = flag.Bool("public", false, "allow any authenticated user to dispatch")
		managers   = flag.Int("managers", 1, "manager (node) count")
		workers    = flag.Int("workers", 4, "workers per manager")
		prewarm    = flag.Int("prewarm", 0, "workers to deploy per manager at startup")
		prefetch   = flag.Int("prefetch", 0, "per-manager prefetch depth")
		system     = flag.String("system", "ec2", "container cold-start profile (ec2|theta|cori)")
		heartbeat  = flag.Duration("heartbeat", time.Second, "heartbeat period")
		labelSpec  = flag.String("labels", "", "capability labels for router matching, comma-separated key=value (e.g. gpu=a100,site=anl)")
		noAdvice   = flag.Bool("no-advice", false, "ignore scaling advice pushed by the service's fleet elasticity controller (scaling stays purely local)")
		reattachID = flag.String("endpoint-id", "", "reattach to this existing endpoint instead of registering a new one (after a durable service restarts, its recovered endpoints keep their queued tasks)")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and runtime metrics on this address (empty = disabled)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug|info|warn|error (per-task records log at debug)")
	)
	flag.Parse()
	if *token == "" {
		log.Fatal("funcx-endpoint: -token is required (printed by funcx-service)")
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("funcx-endpoint: bad -log-level %q (use debug|info|warn|error)", *logLevel)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	if *debugAddr != "" {
		dbg, stopDbg, err := debugserver.Start(*debugAddr)
		if err != nil {
			log.Fatalf("funcx-endpoint: %v", err)
		}
		defer stopDbg()
		fmt.Printf("debug surface (pprof + runtime metrics) on http://%s/debug/\n", dbg)
	}
	labels, err := parseLabels(*labelSpec)
	if err != nil {
		log.Fatalf("funcx-endpoint: %v", err)
	}

	ctx := context.Background()
	client := sdk.New(*serviceURL, *token)
	var reg *api.RegisterEndpointResponse
	if *reattachID != "" {
		resp, err := client.ReattachEndpoint(ctx, types.EndpointID(*reattachID))
		if err != nil {
			log.Fatalf("funcx-endpoint: reattaching: %v", err)
		}
		reg = resp
		fmt.Printf("reattached endpoint %s\n", reg.EndpointID)
	} else {
		resp, err := client.RegisterEndpointLabeled(ctx, *name, "funcx-endpoint CLI", *public, labels)
		if err != nil {
			log.Fatalf("funcx-endpoint: registering: %v", err)
		}
		reg = resp
		fmt.Printf("registered endpoint %s\n", reg.EndpointID)
	}
	fmt.Printf("forwarder at %s://%s\n", reg.ForwarderNetwork, reg.ForwarderAddr)

	rt := fx.NewRuntime()
	rt.RegisterBuiltins()
	for _, cs := range workload.All() {
		cs.Register(rt)
	}
	ctrs := container.NewRuntime(container.Config{System: *system, TimeScale: 1.0})

	agent := endpoint.New(endpoint.Config{
		ID:              reg.EndpointID,
		ServiceNetwork:  reg.ForwarderNetwork,
		ServiceAddr:     reg.ForwarderAddr,
		Token:           reg.EndpointToken,
		ListenNetwork:   "tcp",
		HeartbeatPeriod: *heartbeat,
		BatchDispatch:   true,
		DisableAdvice:   *noAdvice,
		Logger:          logger,
	})
	if err := agent.Start(ctx); err != nil {
		log.Fatalf("funcx-endpoint: starting agent: %v", err)
	}
	defer agent.Stop()

	network, addr := agent.ManagerAddr()
	var mgrs []*manager.Manager
	for i := 0; i < *managers; i++ {
		m := manager.New(manager.Config{
			ID:              types.ManagerID(fmt.Sprintf("%s-mgr-%d", *name, i+1)),
			AgentNetwork:    network,
			AgentAddr:       addr,
			MaxWorkers:      *workers,
			PrewarmWorkers:  *prewarm,
			Prefetch:        *prefetch,
			HeartbeatPeriod: *heartbeat,
			Runtime:         rt,
			Containers:      ctrs,
			Logger:          logger,
		})
		if err := m.Start(ctx); err != nil {
			log.Fatalf("funcx-endpoint: starting manager %d: %v", i, err)
		}
		defer m.Stop()
		mgrs = append(mgrs, m)
	}
	fmt.Printf("agent up: %d managers x %d workers; serving tasks (Ctrl-C to stop)\n",
		*managers, *workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nfuncx-endpoint: draining and shutting down")
	var done int64
	for _, m := range mgrs {
		done += m.Completed()
	}
	fmt.Printf("completed %d tasks this session\n", done)
}

// parseLabels parses "k=v,k2=v2" into a label map ("" -> nil).
func parseLabels(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	labels := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad -labels entry %q (want key=value)", pair)
		}
		labels[k] = v
	}
	return labels, nil
}
