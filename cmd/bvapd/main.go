// Command bvapd is a long-lived scan service daemon over the bvap.Service
// layer: it keeps a compiled pattern set hot behind an HTTP API, hot-reloads
// new sets without dropping in-flight scans, sheds load when the admission
// queue fills, quarantines inputs that repeatedly time out or panic, and
// drains gracefully on shutdown.
//
// Usage:
//
//	bvapd [-listen ADDR] [-patterns FILE | -dataset NAME -sample N] [flags]
//
// Endpoints:
//
//	POST /scan             body = raw input bytes → JSON {generation, matches, trace_id}
//	POST /reload           body = newline-separated patterns → JSON {generation}
//	GET  /healthz          liveness + current generation and quarantine set
//	GET  /metrics          service telemetry (Prometheus text format; OpenMetrics
//	                       with exemplars on Accept: application/openmetrics-text)
//	GET  /debug/flight     flight-recorder ring dump (recent + pinned traces, JSON)
//	GET  /debug/trace/{id} one trace by hex id (JSON; ?format=chrome for a
//	                       chrome://tracing / Perfetto document)
//	POST /cluster/*        fleet surface (-node-id): two-phase reload
//	                       prepare/commit/abort, session migration, scans,
//	                       span-fragment export, metric snapshots, health
//	POST /cluster/join     gossip membership (-advertise/-join): a new node
//	                       announces itself here; the SWIM probe loop and
//	                       piggybacked gossip spread the table fleet-wide
//	GET  /cluster/ring     live ring view: epoch, members with states, and
//	                       (?key=) the owner + failover chain of one key
//	POST /cluster/publish  coordinated fleet-wide reload (-peers): body =
//	                       newline-separated patterns, ?ticket= optional
//	GET  /debug/fleet/trace/{id}  (-peers) cross-node stitched trace: every
//	                       peer's span fragments grafted into one causal
//	                       tree (?format=chrome for Perfetto)
//	GET  /debug/fleet/metrics     (-peers) federated OpenMetrics: fleet
//	                       totals plus node="..."-labeled per-node series
//	GET  /debug/fleet/health      (-peers) per-node health probe + SLO
//	                       burn-rate alerts
//
// Every scan runs under a request-scoped trace: the returned trace_id keys
// the flight recorder's ring (tune with -flight-*), appears on every log
// line for the request, and is attached to the serve histograms as an
// OpenMetrics exemplar. -debug-addr serves net/http/pprof on a separate
// listener. Logs are structured log/slog (-log-format text|json).
//
// Cluster mode: -node-id mounts the fleet surface under /cluster/* —
// two-phase prepare/commit/abort for coordinated reloads, session
// open/feed/checkpoint/resume/close for live BVAP-S migration, and scan
// with per-tenant quota accounting (X-Bvap-Tenant header; quotas via
// -quota-rate/-quota-burst). With -peers, POST /cluster/publish drives a
// fleet-wide two-phase reload across the peer list: every node stages and
// validates the candidate, fingerprints are compared, and only a unanimous
// fleet commits — one failing node rolls the round back everywhere by
// non-publication. Trace ids propagate across node hops via X-Bvap-Trace-Id.
//
// Self-healing fleet: -advertise (or -join) upgrades the static ring to
// gossip membership. The node probes peers on -probe-interval, piggybacks
// its member table on every inter-node hop, and rebuilds the consistent-
// hash ring live as members join, die or leave — each change bumps a
// monotonic epoch. Session checkpoints replicate synchronously to
// -replicas distinct owners of the ring's failover chain before they ack
// (quorum shortfall → 503, the driver retries), and a background
// rebalancer re-places sessions on every epoch change: hand-off when a
// join moved ownership, adoption from replicated checkpoints when the
// owner died. -join names seed URLs to announce through at startup
// (retried with backoff); on drain the node gossips a graceful leave and
// hands its sessions to their new owners before shutting down.
//
// Service errors map onto HTTP statuses: overload and draining → 503
// (with Retry-After), quarantine and tenant quota → 429 (quota with
// Retry-After), watchdog timeout → 504, recovered panic → 500. SIGHUP
// re-reads -patterns and hot-reloads; SIGINT/SIGTERM drain in-flight work
// bounded by -drain-timeout, then force-close whatever remains so the
// process always exits within the bound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bvap"
	"bvap/internal/cluster"
	"bvap/internal/serve"
	"bvap/internal/slo"
	"bvap/internal/telemetry"
	"bvap/internal/tracing"
)

// config carries the parsed flag set through run.
type config struct {
	listen        string
	debugAddr     string
	patternsPath  string
	dataset       string
	sample        int
	scanTimeout   time.Duration
	maxConcurrent int
	maxQueue      int
	quarantine    int
	drainTimeout  time.Duration
	maxBody       int64
	logFormat     string
	logLevel      string
	nodeID        string
	peers         string
	join          string
	advertise     string
	replicas      int
	probeInterval time.Duration
	quotaRate     float64
	quotaBurst    float64

	flightCapacity      int
	flightPinned        int
	flightLatencyBudget time.Duration
	flightEnergyBudget  float64

	federateInterval time.Duration
	sloAvailTarget   float64
	sloLatencyTarget float64
	sloLatencyMS     float64
	sloFastWindow    time.Duration
	sloSlowWindow    time.Duration
	sloBurn          float64
	sloInterval      time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:8712", "HTTP listen address")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "separate listen address for net/http/pprof (empty disables)")
	flag.StringVar(&cfg.patternsPath, "patterns", "", "pattern file, one regex per line (# comments); reloaded on SIGHUP")
	flag.StringVar(&cfg.dataset, "dataset", "Snort", "dataset to sample patterns from when -patterns is not given")
	flag.IntVar(&cfg.sample, "sample", 20, "patterns sampled from -dataset")
	flag.DurationVar(&cfg.scanTimeout, "scan-timeout", 2*time.Second, "per-scan watchdog deadline (0 disables)")
	flag.IntVar(&cfg.maxConcurrent, "max-concurrent", 0, "admission slots (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 64, "admission queue depth beyond the slots")
	flag.IntVar(&cfg.quarantine, "quarantine-threshold", 3, "hard failures per input key before quarantine")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Second, "bound on the shutdown drain")
	flag.Int64Var(&cfg.maxBody, "max-body", 16<<20, "largest accepted request body in bytes")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text or json")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.StringVar(&cfg.nodeID, "node-id", "", "cluster node identity; mounts the /cluster/* fleet surface when set")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated peer base URLs; enables POST /cluster/publish coordinated reloads")
	flag.StringVar(&cfg.join, "join", "", "comma-separated seed URLs to announce this node to at startup; enables gossip membership (requires -node-id)")
	flag.StringVar(&cfg.advertise, "advertise", "", "this node's base URL as peers reach it; enables gossip membership even without -join seeds (default http://<-listen> when -join is set)")
	flag.IntVar(&cfg.replicas, "replicas", 2, "checkpoint replication factor R: distinct failover-chain owners that must hold a session checkpoint before it acks")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", time.Second, "gossip failure-detector probe cadence")
	flag.Float64Var(&cfg.quotaRate, "quota-rate", 0, "default per-tenant admission tokens per second (0 = unlimited)")
	flag.Float64Var(&cfg.quotaBurst, "quota-burst", 0, "default per-tenant admission burst (0 = rate-derived)")
	flag.IntVar(&cfg.flightCapacity, "flight-capacity", 256, "completed traces retained by the flight recorder")
	flag.IntVar(&cfg.flightPinned, "flight-pinned", 32, "over-budget traces retained by the flight recorder's black box")
	flag.DurationVar(&cfg.flightLatencyBudget, "flight-latency-budget", 0, "pin any scan slower than this into the black box (0 disables)")
	flag.Float64Var(&cfg.flightEnergyBudget, "flight-energy-budget", 0, "pin any scan above this many picojoules into the black box (0 disables)")
	flag.DurationVar(&cfg.federateInterval, "federate-interval", 10*time.Second, "fleet metrics scrape cadence (-peers)")
	flag.Float64Var(&cfg.sloAvailTarget, "slo-availability-target", 0, "scan availability SLO target in (0,1), e.g. 0.999 (0 disables)")
	flag.Float64Var(&cfg.sloLatencyTarget, "slo-latency-target", 0, "scan latency SLO target in (0,1): fraction of scans under -slo-latency-ms (0 disables)")
	flag.Float64Var(&cfg.sloLatencyMS, "slo-latency-ms", 50, "latency SLO threshold, ms (rounded down to a histogram bucket bound)")
	flag.DurationVar(&cfg.sloFastWindow, "slo-fast-window", 5*time.Minute, "fast burn-rate window")
	flag.DurationVar(&cfg.sloSlowWindow, "slo-slow-window", time.Hour, "slow burn-rate window")
	flag.Float64Var(&cfg.sloBurn, "slo-burn-threshold", 14.4, "burn rate both windows must exceed to fire")
	flag.DurationVar(&cfg.sloInterval, "slo-interval", 10*time.Second, "SLO monitor sampling cadence")
	flag.Parse()

	logger, err := newLogger(cfg.logFormat, cfg.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bvapd:", err)
		os.Exit(2)
	}
	if err := run(cfg, logger); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger from the -log-format / -log-level
// flags: structured text or JSON on stderr.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q", format)
	}
}

func run(cfg config, logger *slog.Logger) error {
	if cfg.nodeID != "" {
		// Node identity on every log line: a multi-node fleet's interleaved
		// log streams stay attributable.
		logger = logger.With("node_id", cfg.nodeID)
	}
	patterns, err := loadPatterns(cfg.patternsPath, cfg.dataset, cfg.sample)
	if err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	rec := tracing.NewRecorder(tracing.Config{
		Capacity:       cfg.flightCapacity,
		PinCapacity:    cfg.flightPinned,
		LatencyBudget:  cfg.flightLatencyBudget,
		EnergyBudgetPJ: cfg.flightEnergyBudget,
	})
	svc, err := bvap.NewService(patterns, &bvap.ServiceConfig{
		MaxConcurrent:       cfg.maxConcurrent,
		MaxQueue:            cfg.maxQueue,
		ScanTimeout:         cfg.scanTimeout,
		QuarantineThreshold: cfg.quarantine,
		DefaultQuota:        bvap.QuotaConfig{RatePerSec: cfg.quotaRate, Burst: cfg.quotaBurst},
		Metrics:             reg,
		FlightRecorder:      rec,
	})
	if err != nil {
		return fmt.Errorf("initial pattern set: %w", err)
	}

	d := &daemon{svc: svc, reg: reg, rec: rec, log: logger, maxBody: cfg.maxBody, nodeID: cfg.nodeID}
	d.mon = newSLOMonitor(cfg, reg, logger)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /scan", d.handleScan)
	mux.HandleFunc("POST /reload", d.handleReload)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /debug/flight", d.handleFlight)
	mux.HandleFunc("GET /debug/trace/{id}", d.handleTrace)
	gossip := cfg.advertise != "" || cfg.join != ""
	if gossip && cfg.nodeID == "" {
		return errors.New("-join/-advertise require -node-id: gossip rides the /cluster/* surface")
	}
	var mem *cluster.Membership
	var seeds []string
	if cfg.nodeID != "" {
		// Fleet surface: two-phase reload participation and live session
		// migration. The node shares this daemon's service, so cluster
		// scans and sessions see the same generations, quotas and metrics,
		// and shares the registry + recorder, so /cluster/metrics and
		// /cluster/trace/{id} export what this process observed.
		nodeCfg := cluster.NodeConfig{ID: cfg.nodeID, Recorder: rec, Metrics: reg, Logger: logger}
		if gossip {
			advertise := cfg.advertise
			if advertise == "" {
				advertise = "http://" + cfg.listen
			}
			seeds = splitList(cfg.join)
			// Construction order matters: the membership probes through
			// the client, and the client piggybacks the membership's
			// table — NewClient → NewMembership → SetMembership breaks
			// the cycle.
			nodeClient := cluster.NewClient(cluster.ClientConfig{})
			mem = cluster.NewMembership(cluster.MembershipConfig{
				Self:          advertise,
				ProbeInterval: cfg.probeInterval,
				Client:        nodeClient,
				Logger:        logger,
				Metrics:       reg,
			})
			nodeClient.SetMembership(mem)
			nodeCfg.Self = advertise
			nodeCfg.Client = nodeClient
			nodeCfg.Membership = mem
			nodeCfg.Replicas = cfg.replicas
		}
		d.node = cluster.NewNode(svc, nodeCfg)
		if mem != nil {
			// Every ring-set change wakes the rebalancer, so hand-off and
			// adoption begin within one scheduling hop of the epoch bump.
			mem.SetOnChange(d.node.WakeRebalance)
		}
		mux.Handle("/cluster/", d.node.Handler())
		if gossip {
			logger.Info("cluster surface mounted", "node", cfg.nodeID,
				"advertise", mem.Self(), "seeds", len(seeds),
				"replicas", cfg.replicas, "probe_interval", cfg.probeInterval)
		} else {
			logger.Info("cluster surface mounted", "node", cfg.nodeID)
		}
	}
	background, stopBackground := context.WithCancel(context.Background())
	defer stopBackground()
	if mem != nil {
		go mem.Run(background)
		go d.node.RunRebalancer(background)
	}
	if cfg.peers != "" {
		peers := splitList(cfg.peers)
		client := cluster.NewClient(cluster.ClientConfig{})
		d.coord = cluster.NewCoordinator(client, peers)
		localID := cfg.nodeID
		if localID == "" {
			localID = "coordinator"
		}
		d.fed = cluster.NewFederator(client, peers, cluster.FederatorConfig{
			Interval:      cfg.federateInterval,
			Logger:        logger,
			Local:         reg,
			LocalID:       localID,
			LocalRecorder: rec,
			// With gossip enabled the federator skips peers the
			// membership knows to be dead or left instead of burning
			// breaker budget on hosts that are never coming back.
			Membership: mem,
			Metrics:    reg,
		})
		mux.HandleFunc("POST /cluster/publish", d.handlePublish)
		mux.HandleFunc("GET /debug/fleet/trace/{id}", d.handleFleetTrace)
		mux.HandleFunc("GET /debug/fleet/metrics", d.handleFleetMetrics)
		mux.HandleFunc("GET /debug/fleet/health", d.handleFleetHealth)
		go d.fed.Run(background)
		logger.Info("cluster coordinator enabled", "peers", len(peers), "federate_interval", cfg.federateInterval)
	}
	if d.mon.Objectives() > 0 {
		go func() {
			ticker := time.NewTicker(cfg.sloInterval)
			defer ticker.Stop()
			for {
				select {
				case <-background.Done():
					return
				case now := <-ticker.C:
					d.mon.Observe(now)
				}
			}
		}()
		logger.Info("slo monitor running", "objectives", d.mon.Objectives(),
			"fast_window", cfg.sloFastWindow, "slow_window", cfg.sloSlowWindow,
			"burn_threshold", cfg.sloBurn, "interval", cfg.sloInterval)
	}
	srv := &http.Server{Addr: cfg.listen, Handler: mux}

	if cfg.debugAddr != "" {
		// The blank net/http/pprof import registered its handlers on
		// http.DefaultServeMux; expose that mux on its own listener so
		// profiling never shares a port with the scan API.
		dbg := &http.Server{Addr: cfg.debugAddr, Handler: http.DefaultServeMux}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", cfg.debugAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", cfg.debugAddr)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	logger.Info("serving", "patterns", len(patterns), "generation", svc.Generation(), "addr", cfg.listen)

	if mem != nil && len(seeds) > 0 {
		// Announce to the fleet once the listener is up (so seeds can
		// immediately probe back), retrying with backoff: a node booting
		// before its seeds converges as soon as one answers.
		go func() {
			backoff := time.Second
			for attempt := 1; ; attempt++ {
				ctx, cancel := context.WithTimeout(background, 5*time.Second)
				err := mem.Join(ctx, seeds)
				cancel()
				if err == nil {
					logger.Info("joined fleet", "seeds", len(seeds), "attempt", attempt, "epoch", mem.Epoch())
					return
				}
				logger.Warn("fleet join failed; retrying", "attempt", attempt, "backoff", backoff, "err", err)
				select {
				case <-background.Done():
					return
				case <-time.After(backoff):
				}
				if backoff < 10*time.Second {
					backoff *= 2
				}
			}
		}()
	}

	for {
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if cfg.patternsPath == "" {
					logger.Warn("SIGHUP ignored: no -patterns file to re-read")
					continue
				}
				next, err := loadPatterns(cfg.patternsPath, cfg.dataset, cfg.sample)
				if err != nil {
					logger.Warn("reload read failed", "err", err, "generation", svc.Generation(), "outcome", "rejected")
					continue
				}
				gen, err := svc.Reload(context.Background(), next)
				if err != nil {
					logger.Warn("reload rejected", "err", err, "generation", svc.Generation(), "outcome", "rejected")
					continue
				}
				logger.Info("reloaded", "patterns", len(next), "generation", gen, "outcome", "ok")
				continue
			}
			logger.Info("draining", "signal", sig.String(), "bound", cfg.drainTimeout)
			ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
			if mem != nil {
				// Graceful leave first: gossip the departure (peers drop
				// this node from the ring without a suspect timeout), then
				// hand every live session to its new ring owner while the
				// listener still answers the custody transfers.
				mem.Leave(ctx)
				if h, a := d.node.Rebalance(ctx); h+a > 0 {
					logger.Info("sessions re-placed on leave", "handoffs", h, "adoptions", a)
				}
			}
			if err := svc.Drain(ctx); err != nil {
				logger.Warn("drain incomplete", "err", err)
			}
			if d.node != nil {
				// Open migration sessions commit their pending reports and
				// return their pooled streams before the listener goes away.
				d.node.Close()
			}
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				// The graceful drain ran out of budget with connections
				// still open: force-close them. Exiting on time matters
				// more than the stragglers — their clients hold durable
				// checkpoints and resume elsewhere.
				logger.Warn("graceful shutdown incomplete; forcing close", "err", err)
				if cerr := srv.Close(); cerr != nil {
					logger.Warn("forced close failed", "err", cerr)
				}
			}
			return nil
		}
	}
}

// splitList parses a comma-separated flag value into its non-empty,
// whitespace-trimmed elements.
func splitList(raw string) []string {
	var out []string
	for _, p := range strings.Split(raw, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// loadPatterns reads the pattern file (one regex per line, blank lines and
// # comments skipped) or falls back to sampling the named dataset.
func loadPatterns(path, dataset string, sample int) ([]string, error) {
	if path == "" {
		d, err := bvap.DatasetByName(dataset)
		if err != nil {
			return nil, err
		}
		return d.Patterns(sample), nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parsePatterns(string(raw))
}

func parsePatterns(raw string) ([]string, error) {
	var out []string
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	if len(out) == 0 {
		return nil, errors.New("no patterns in input")
	}
	return out, nil
}

type daemon struct {
	svc     *bvap.Service
	reg     *telemetry.Registry
	rec     *tracing.Recorder
	log     *slog.Logger
	maxBody int64
	nodeID  string               // labels metrics and traces when -node-id set
	node    *cluster.Node        // non-nil when -node-id mounted /cluster/*
	coord   *cluster.Coordinator // non-nil when -peers enabled /cluster/publish
	fed     *cluster.Federator   // non-nil when -peers enabled /debug/fleet/*
	mon     *slo.Monitor         // nil-safe; empty unless -slo-* targets set
}

// newSLOMonitor builds the burn-rate monitor from the -slo-* flags. Both
// objectives read the serve metrics straight out of the registry snapshot,
// so the monitor needs no hooks inside the scan path.
func newSLOMonitor(cfg config, reg *telemetry.Registry, logger *slog.Logger) *slo.Monitor {
	var objectives []slo.Objective
	if cfg.sloAvailTarget > 0 && cfg.sloAvailTarget < 1 {
		objectives = append(objectives, slo.Objective{
			Name:   "scan-availability",
			Target: cfg.sloAvailTarget,
			Source: func() (good, total float64) {
				for _, s := range reg.Snapshot() {
					if s.Name != serve.MetricScans {
						continue
					}
					total += s.Value
					if s.Labels["outcome"] == "ok" {
						good += s.Value
					}
				}
				return good, total
			},
			FastWindow:    cfg.sloFastWindow,
			SlowWindow:    cfg.sloSlowWindow,
			BurnThreshold: cfg.sloBurn,
		})
	}
	if cfg.sloLatencyTarget > 0 && cfg.sloLatencyTarget < 1 {
		le := cfg.sloLatencyMS
		objectives = append(objectives, slo.Objective{
			Name:   fmt.Sprintf("scan-latency-%gms", le),
			Target: cfg.sloLatencyTarget,
			Source: func() (good, total float64) {
				for _, s := range reg.Snapshot() {
					if s.Name != serve.MetricScanDuration {
						continue
					}
					total += float64(s.Count)
					// Cumulative buckets: the largest bound ≤ the threshold
					// carries the count of scans at least that fast.
					var under uint64
					for _, b := range s.Buckets {
						if b.UpperBound <= le {
							under = b.Count
						}
					}
					good += float64(under)
				}
				return good, total
			},
			FastWindow:    cfg.sloFastWindow,
			SlowWindow:    cfg.sloSlowWindow,
			BurnThreshold: cfg.sloBurn,
		})
	}
	return slo.NewMonitor(objectives, logger)
}

// logger returns the daemon's logger, defaulting for tests that construct
// a bare daemon.
func (d *daemon) logger() *slog.Logger {
	if d.log != nil {
		return d.log
	}
	return slog.Default()
}

type scanResponse struct {
	Generation uint64       `json:"generation"`
	Matches    []bvap.Match `json:"matches"`
	TraceID    string       `json:"trace_id,omitempty"`
}

type reloadResponse struct {
	Generation uint64 `json:"generation"`
	Patterns   int    `json:"patterns"`
}

type errorResponse struct {
	Error   string `json:"error"`
	Kind    string `json:"kind,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// flightResponse is the /debug/flight document.
type flightResponse struct {
	Capacity    int                 `json:"capacity"`
	PinCapacity int                 `json:"pin_capacity"`
	Recorded    uint64              `json:"recorded"`
	PinnedTotal uint64              `json:"pinned_total"`
	Recent      []tracing.TraceView `json:"recent"`
	Pinned      []tracing.TraceView `json:"pinned"`
}

func (d *daemon) handleScan(w http.ResponseWriter, r *http.Request) {
	ctx, tr := d.rec.StartTrace(r.Context(), "http.scan")
	defer d.rec.Record(tr)
	if d.nodeID != "" {
		tr.SetStr("node", d.nodeID)
	}
	input, ok := d.readBody(w, r, tr)
	if !ok {
		return
	}
	if tenant := r.Header.Get(cluster.TenantHeader); tenant != "" {
		ctx = bvap.WithTenant(ctx, tenant)
		tr.SetStr("tenant", tenant)
	}
	start := time.Now()
	ms, err := d.svc.Scan(ctx, input)
	if err != nil {
		status, kind := serviceErrorStatus(w, err)
		d.logger().Warn("scan failed",
			"trace_id", tr.IDString(), "generation", d.svc.Generation(),
			"bytes", len(input), "outcome", kind, "err", err)
		d.writeError(w, status, err, kind, tr)
		return
	}
	if ms == nil {
		ms = []bvap.Match{}
	}
	d.logger().Debug("scan ok",
		"trace_id", tr.IDString(), "generation", d.svc.Generation(),
		"bytes", len(input), "matches", len(ms), "outcome", "ok",
		"duration", time.Since(start))
	writeJSON(w, d.logger(), http.StatusOK, scanResponse{
		Generation: d.svc.Generation(), Matches: ms, TraceID: tr.IDString(),
	})
}

// readBody reads a request body whole. Past -max-body it answers a typed
// 413 (kind "body_too_large") instead of handing on a truncated prefix;
// a failed read answers 400. It reports whether the handler may go on.
func (d *daemon) readBody(w http.ResponseWriter, r *http.Request, tr *tracing.Trace) ([]byte, bool) {
	body, err := cluster.ReadBody(r.Body, d.maxBody)
	switch {
	case errors.Is(err, cluster.ErrBodyTooLarge):
		tr.SetStr("outcome", "body_too_large")
		d.writeError(w, http.StatusRequestEntityTooLarge, err, "body_too_large", tr)
		return nil, false
	case err != nil:
		tr.SetStr("outcome", "bad_request")
		d.writeError(w, http.StatusBadRequest, err, "", tr)
		return nil, false
	}
	return body, true
}

func (d *daemon) handleReload(w http.ResponseWriter, r *http.Request) {
	raw, ok := d.readBody(w, r, nil)
	if !ok {
		return
	}
	patterns, err := parsePatterns(string(raw))
	if err != nil {
		d.writeError(w, http.StatusBadRequest, err, "", nil)
		return
	}
	gen, err := d.svc.Reload(r.Context(), patterns)
	if err != nil {
		status, kind := serviceErrorStatus(w, err)
		d.logger().Warn("reload rejected",
			"generation", d.svc.Generation(), "patterns", len(patterns),
			"outcome", kind, "err", err)
		d.writeError(w, status, err, kind, nil)
		return
	}
	d.logger().Info("reloaded", "patterns", len(patterns), "generation", gen, "outcome", "ok")
	writeJSON(w, d.logger(), http.StatusOK, reloadResponse{Generation: gen, Patterns: len(patterns)})
}

// publishResponse is the POST /cluster/publish document: the round's
// ticket and the per-peer generation each node now serves.
type publishResponse struct {
	Ticket      string            `json:"ticket"`
	Generations map[string]uint64 `json:"generations"`
	// TraceID keys the publish round's distributed trace: the coordinator's
	// client spans live here, each node's prepare/commit spans on the node —
	// GET /debug/fleet/trace/{id} stitches them back together.
	TraceID string `json:"trace_id,omitempty"`
}

// handlePublish drives the fleet-wide two-phase reload over the configured
// peer set. The body is a pattern file (one regex per line); the round's
// ticket comes from ?ticket= or, by default, a hash of the candidate set —
// deterministic, so a retried publish replays the same round idempotently
// instead of opening a new one.
func (d *daemon) handlePublish(w http.ResponseWriter, r *http.Request) {
	// A publish round is the natural cross-node trace: the cluster client
	// stamps this trace's id (and the current span as parent) on every
	// prepare/commit hop, so each node retains a child fragment and
	// /debug/fleet/trace/{id} can rebuild the whole round.
	ctx, tr := d.rec.StartTrace(r.Context(), "fleet.publish")
	defer d.rec.Record(tr)
	if d.nodeID != "" {
		tr.SetStr("node", d.nodeID)
	}
	raw, ok := d.readBody(w, r, tr)
	if !ok {
		return
	}
	patterns, err := parsePatterns(string(raw))
	if err != nil {
		tr.SetStr("outcome", "bad_request")
		d.writeError(w, http.StatusBadRequest, err, "", tr)
		return
	}
	ticket := r.URL.Query().Get("ticket")
	if ticket == "" {
		h := fnv.New64a()
		for _, p := range patterns {
			io.WriteString(h, p)
			h.Write([]byte{0})
		}
		ticket = fmt.Sprintf("set-%016x", h.Sum64())
	}
	tr.SetStr("ticket", ticket)
	gens, err := d.coord.Publish(ctx, ticket, patterns)
	if err != nil {
		var pub *cluster.PublishError
		status, kind := http.StatusBadGateway, "publish"
		if errors.As(err, &pub) {
			kind = "publish-" + pub.Phase
		}
		tr.SetStr("outcome", kind)
		d.logger().Warn("fleet publish failed", "trace_id", tr.IDString(), "ticket", ticket, "patterns", len(patterns), "outcome", kind, "err", err)
		d.writeError(w, status, err, kind, tr)
		return
	}
	tr.SetStr("outcome", "ok")
	d.logger().Info("fleet published", "trace_id", tr.IDString(), "ticket", ticket, "patterns", len(patterns), "peers", len(gens), "outcome", "ok")
	writeJSON(w, d.logger(), http.StatusOK, publishResponse{Ticket: ticket, Generations: gens, TraceID: tr.IDString()})
}

func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, d.logger(), http.StatusOK, map[string]any{
		"generation":  d.svc.Generation(),
		"quarantined": d.svc.Quarantined(),
	})
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// In a fleet (-node-id set), stamp node="..." on every series so
	// per-node streams stay distinguishable after federation.
	samples := d.reg.Snapshot()
	if d.nodeID != "" {
		samples = telemetry.WithLabel(samples, "node", d.nodeID)
	}
	// OpenMetrics (exemplar-capable) only when the scraper asks for it;
	// classic 0.0.4 text otherwise, which must never carry exemplar syntax.
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		if err := telemetry.WriteOpenMetricsSamples(w, samples); err != nil {
			d.logger().Warn("metrics write failed", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := telemetry.WritePrometheusSamples(w, samples); err != nil {
		d.logger().Warn("metrics write failed", "err", err)
	}
}

func (d *daemon) handleFlight(w http.ResponseWriter, _ *http.Request) {
	recent := d.rec.Recent()
	pinned := d.rec.Pinned()
	resp := flightResponse{
		Capacity:    d.rec.Config().Capacity,
		PinCapacity: d.rec.Config().PinCapacity,
		Recorded:    d.rec.Recorded(),
		PinnedTotal: d.rec.PinnedTotal(),
		Recent:      make([]tracing.TraceView, 0, len(recent)),
		Pinned:      make([]tracing.TraceView, 0, len(pinned)),
	}
	for _, t := range recent {
		resp.Recent = append(resp.Recent, t.View())
	}
	for _, t := range pinned {
		resp.Pinned = append(resp.Pinned, t.View())
	}
	writeJSON(w, d.logger(), http.StatusOK, resp)
}

func (d *daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := tracing.ParseTraceID(r.PathValue("id"))
	if err != nil {
		d.writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace id: %w", err), "", nil)
		return
	}
	t := d.rec.Lookup(id)
	if t == nil {
		d.writeError(w, http.StatusNotFound, fmt.Errorf("trace %s not retained", id), "", nil)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteChrome(w); err != nil {
			d.logger().Warn("chrome trace write failed", "trace_id", id.String(), "err", err)
		}
		return
	}
	writeJSON(w, d.logger(), http.StatusOK, t.View())
}

// handleFleetTrace serves the cross-node stitched view of one trace:
// every peer's span fragments (plus this process's own) grafted into a
// single causal tree. Malformed ids are the caller's fault (400);
// unknown-everywhere ids are 404.
func (d *daemon) handleFleetTrace(w http.ResponseWriter, r *http.Request) {
	id, err := tracing.ParseTraceID(r.PathValue("id"))
	if err != nil {
		d.writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace id: %w", err), "", nil)
		return
	}
	st, err := d.fed.FleetTrace(r.Context(), id)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, cluster.ErrNoFragments) {
			status = http.StatusNotFound
		}
		d.writeError(w, status, err, "", nil)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := st.WriteChrome(w); err != nil {
			d.logger().Warn("chrome fleet trace write failed", "trace_id", id.String(), "err", err)
		}
		return
	}
	writeJSON(w, d.logger(), http.StatusOK, st)
}

// handleFleetMetrics scrapes the fleet now (the background loop keeps the
// view warm, but a scrape on demand never serves stale totals) and renders
// one OpenMetrics document: fleet-merged series first, then per-node
// series labeled node="...".
func (d *daemon) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	snap := d.fed.Scrape(r.Context())
	if snap.MergeErr != nil {
		d.writeError(w, http.StatusInternalServerError, snap.MergeErr, "federation-layout", nil)
		return
	}
	if err := snap.WriteOpenMetrics(w); err != nil {
		d.logger().Warn("fleet metrics write failed", "err", err)
	}
}

// fleetHealthResponse is the /debug/fleet/health document: the per-node
// probe report plus the SLO monitor's burn-rate state.
type fleetHealthResponse struct {
	cluster.FleetHealth
	SLO       []slo.Status `json:"slo,omitempty"`
	SLOFiring bool         `json:"slo_firing"`
}

func (d *daemon) handleFleetHealth(w http.ResponseWriter, r *http.Request) {
	report := d.fed.Health(r.Context())
	writeJSON(w, d.logger(), http.StatusOK, fleetHealthResponse{
		FleetHealth: report,
		SLO:         d.mon.Status(time.Now()),
		SLOFiring:   d.mon.Firing(),
	})
}

// serviceErrorStatus maps the service's typed errors onto HTTP statuses so
// clients can distinguish "back off" from "this input is poison", setting
// Retry-After where backoff applies. The kind also labels the failure log
// line and error body.
func serviceErrorStatus(w http.ResponseWriter, err error) (status int, kind string) {
	var (
		pe *bvap.PanicError
		re *bvap.ReloadError
	)
	switch {
	case errors.Is(err, bvap.ErrDraining):
		w.Header().Set("Retry-After", "5")
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, bvap.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, bvap.ErrQuotaExceeded):
		w.Header().Set("Retry-After", "1")
		return http.StatusTooManyRequests, "quota"
	case errors.Is(err, bvap.ErrQuarantined):
		return http.StatusTooManyRequests, "quarantined"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "panic"
	case errors.As(err, &re):
		return http.StatusUnprocessableEntity, "reload-" + re.Phase
	default:
		return http.StatusUnprocessableEntity, ""
	}
}

func (d *daemon) writeError(w http.ResponseWriter, status int, err error, kind string, tr *tracing.Trace) {
	writeJSON(w, d.logger(), status, errorResponse{Error: err.Error(), Kind: kind, TraceID: tr.IDString()})
}

func writeJSON(w http.ResponseWriter, logger *slog.Logger, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logger.Warn("encode response failed", "err", err)
	}
}
