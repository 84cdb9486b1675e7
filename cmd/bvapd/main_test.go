package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bvap"
	"bvap/internal/cluster"
	"bvap/internal/telemetry"
	"bvap/internal/tracing"
)

func testDaemon(t *testing.T, patterns []string) *daemon {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := tracing.NewRecorder(tracing.Config{Capacity: 16, PinCapacity: 4})
	svc, err := bvap.NewService(patterns, &bvap.ServiceConfig{
		ScanTimeout:    time.Second,
		Metrics:        reg,
		FlightRecorder: rec,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return &daemon{
		svc: svc, reg: reg, rec: rec,
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		maxBody: 1 << 20,
	}
}

func TestHandleScan(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c", "xy{3}z"})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/scan", strings.NewReader("..abbc..xyyyz.."))
	d.handleScan(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 1 || len(resp.Matches) != 2 {
		t.Errorf("generation %d, %d matches; want 1 and 2: %+v", resp.Generation, len(resp.Matches), resp)
	}
}

func TestHandleScanNoMatchesIsEmptyArray(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})
	rec := httptest.NewRecorder()
	d.handleScan(rec, httptest.NewRequest("POST", "/scan", strings.NewReader("nothing here")))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"matches":[]`)) {
		t.Errorf("want empty matches array, got %s", rec.Body)
	}
}

// TestHandleScanBodyTooLarge pins every input boundary: a body of exactly
// the limit is taken whole, and one byte more is refused with a typed 413
// rather than cut short and acted on. /reload and /cluster/publish bodies
// are padded with a comment line, so a truncated prefix would still parse.
func TestHandleScanBodyTooLarge(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})
	d.maxBody = 64
	d.node = cluster.NewNode(d.svc, cluster.NodeConfig{ID: "a"})
	t.Cleanup(d.node.Close)
	srv := httptest.NewServer(d.node.Handler())
	t.Cleanup(srv.Close)
	d.coord = cluster.NewCoordinator(cluster.NewClient(cluster.ClientConfig{}), []string{srv.URL})

	for _, tc := range []struct {
		path    string
		limit   int
		prefix  string
		pad     string
		handler http.HandlerFunc
		typed   bool // 413 carries errorResponse kind "body_too_large"
	}{
		{"/scan", 64, "abbc", "x", d.handleScan, true},
		{"/reload", 64, "cd{3}e\n#", "x", d.handleReload, true},
		{"/cluster/publish", 64, "cd{3}e\n#", "x", d.handlePublish, true},
		{"/cluster/scan", cluster.MaxBodyBytes, `{"input":"YWJiYw=="}`, " ", d.node.Handler().ServeHTTP, false},
	} {
		t.Run(strings.ReplaceAll(tc.path[1:], "/", "_"), func(t *testing.T) {
			post := func(n int) *httptest.ResponseRecorder {
				body := tc.prefix + strings.Repeat(tc.pad, n-len(tc.prefix))
				rec := httptest.NewRecorder()
				tc.handler(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(body)))
				return rec
			}
			if rec := post(tc.limit); rec.Code != http.StatusOK {
				t.Fatalf("body of exactly %d bytes = %d, want 200: %s", tc.limit, rec.Code, rec.Body)
			}
			gen := d.svc.Generation()
			rec := post(tc.limit + 1)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("body of %d bytes = %d, want 413: %s", tc.limit+1, rec.Code, rec.Body)
			}
			if tc.typed {
				var resp errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Kind != "body_too_large" {
					t.Errorf("413 body kind = %q (%v), want body_too_large", resp.Kind, err)
				}
			}
			if d.svc.Generation() != gen {
				t.Errorf("generation %d → %d on a refused body", gen, d.svc.Generation())
			}
		})
	}
}

func TestHandleReloadSwapsAndRejects(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})

	rec := httptest.NewRecorder()
	d.handleReload(rec, httptest.NewRequest("POST", "/reload", strings.NewReader("# new set\ncd{3}e\nfg{2,4}h\n")))
	if rec.Code != 200 {
		t.Fatalf("reload status %d, body %s", rec.Code, rec.Body)
	}
	var resp reloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 || resp.Patterns != 2 {
		t.Errorf("generation %d patterns %d; want 2 and 2", resp.Generation, resp.Patterns)
	}

	// A bad set is rejected with a reload-phase kind and does not bump
	// the generation.
	rec = httptest.NewRecorder()
	d.handleReload(rec, httptest.NewRequest("POST", "/reload", strings.NewReader("a(b\n")))
	if rec.Code != 422 {
		t.Errorf("bad reload status %d, want 422", rec.Code)
	}
	var eresp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(eresp.Kind, "reload-") {
		t.Errorf("kind %q, want reload-<phase>", eresp.Kind)
	}
	if d.svc.Generation() != 2 {
		t.Errorf("generation %d after rejected reload, want 2", d.svc.Generation())
	}

	// An empty body never reaches the service.
	rec = httptest.NewRecorder()
	d.handleReload(rec, httptest.NewRequest("POST", "/reload", strings.NewReader("\n# only comments\n")))
	if rec.Code != 400 {
		t.Errorf("empty reload status %d, want 400", rec.Code)
	}
}

func TestHandleHealthzAndMetrics(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})

	rec := httptest.NewRecorder()
	d.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte(`"generation":1`)) {
		t.Errorf("healthz: status %d body %s", rec.Code, rec.Body)
	}

	// Scan once so the counters exist, then check the exposition.
	d.handleScan(httptest.NewRecorder(), httptest.NewRequest("POST", "/scan", strings.NewReader("abbc")))
	rec = httptest.NewRecorder()
	d.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte("bvap_serve_generation")) {
		t.Errorf("metrics: status %d missing bvap_serve_generation", rec.Code)
	}
}

func TestHandleScanReturnsTraceIDAndRecordsFlight(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})
	rec := httptest.NewRecorder()
	d.handleScan(rec, httptest.NewRequest("POST", "/scan", strings.NewReader("..abbc..")))
	if rec.Code != 200 {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 16 {
		t.Fatalf("trace_id %q, want 16 hex digits", resp.TraceID)
	}

	rec = httptest.NewRecorder()
	d.handleFlight(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("flight status %d", rec.Code)
	}
	var flight flightResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &flight); err != nil {
		t.Fatalf("flight dump not JSON: %v\n%s", err, rec.Body)
	}
	if flight.Capacity != 16 || flight.Recorded != 1 || len(flight.Recent) != 1 {
		t.Fatalf("flight = capacity %d recorded %d recent %d; want 16, 1, 1",
			flight.Capacity, flight.Recorded, len(flight.Recent))
	}
	tv := flight.Recent[0]
	if tv.TraceID != resp.TraceID {
		t.Errorf("flight trace id %q, want %q", tv.TraceID, resp.TraceID)
	}
	if tv.Name != "http.scan" || tv.Attrs["outcome"] != "ok" {
		t.Errorf("trace name %q attrs %v; want http.scan with outcome ok", tv.Name, tv.Attrs)
	}
	if len(tv.Spans) == 0 {
		t.Error("recorded trace has no spans; service stages were not instrumented")
	}
}

func TestHandleTraceEndpoint(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})
	rec := httptest.NewRecorder()
	d.handleScan(rec, httptest.NewRequest("POST", "/scan", strings.NewReader("abbc")))
	var resp scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	// handleTrace reads the {id} path value, so route through a mux.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/trace/{id}", d.handleTrace)

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/"+resp.TraceID, nil))
	if rec.Code != 200 {
		t.Fatalf("trace status %d, body %s", rec.Code, rec.Body)
	}
	var tv tracing.TraceView
	if err := json.Unmarshal(rec.Body.Bytes(), &tv); err != nil {
		t.Fatal(err)
	}
	if tv.TraceID != resp.TraceID {
		t.Errorf("view trace id %q, want %q", tv.TraceID, resp.TraceID)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/"+resp.TraceID+"?format=chrome", nil))
	if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte("traceEvents")) {
		t.Errorf("chrome export: status %d body %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/not-hex", nil))
	if rec.Code != 400 {
		t.Errorf("bad id status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/00000000000000ff", nil))
	if rec.Code != 404 {
		t.Errorf("unknown id status %d, want 404", rec.Code)
	}
}

func TestHandleMetricsContentNegotiation(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})
	d.handleScan(httptest.NewRecorder(), httptest.NewRequest("POST", "/scan", strings.NewReader("abbc")))

	// Default scrape: classic Prometheus text, no OpenMetrics syntax.
	rec := httptest.NewRecorder()
	d.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.Contains(got, "0.0.4") {
		t.Errorf("default content type %q", got)
	}
	if bytes.Contains(rec.Body.Bytes(), []byte("# EOF")) {
		t.Error("classic exposition must not end with # EOF")
	}

	// OpenMetrics negotiation carries exemplars and the EOF terminator.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	d.handleMetrics(rec, req)
	if got := rec.Header().Get("Content-Type"); !strings.Contains(got, "openmetrics-text") {
		t.Errorf("negotiated content type %q", got)
	}
	body := rec.Body.String()
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}
	if !strings.Contains(body, `trace_id="`) {
		t.Error("OpenMetrics exposition missing trace_id exemplar on serve histograms")
	}
}

func TestNewLogger(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		for _, level := range []string{"debug", "info", "warn", "error"} {
			if _, err := newLogger(format, level); err != nil {
				t.Errorf("newLogger(%q, %q): %v", format, level, err)
			}
		}
	}
	if _, err := newLogger("xml", "info"); err == nil {
		t.Error("bad format accepted")
	}
	if _, err := newLogger("json", "loud"); err == nil {
		t.Error("bad level accepted")
	}
}

func TestParsePatterns(t *testing.T) {
	ps, err := parsePatterns("  a{2}b \n\n# comment\nc{3}\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0] != "a{2}b" || ps[1] != "c{3}" {
		t.Errorf("parsePatterns = %q", ps)
	}
	if _, err := parsePatterns("# nothing\n"); err == nil {
		t.Error("all-comment input accepted")
	}
}

// testQuotaDaemon is testDaemon with a metered tenant quota layer.
func testQuotaDaemon(t *testing.T, patterns []string, quotas map[string]bvap.QuotaConfig) *daemon {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := tracing.NewRecorder(tracing.Config{Capacity: 16, PinCapacity: 4})
	svc, err := bvap.NewService(patterns, &bvap.ServiceConfig{
		ScanTimeout:    time.Second,
		TenantQuotas:   quotas,
		Metrics:        reg,
		FlightRecorder: rec,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return &daemon{
		svc: svc, reg: reg, rec: rec,
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		maxBody: 1 << 20,
	}
}

func TestHandleScanTenantQuota(t *testing.T) {
	d := testQuotaDaemon(t, []string{"ab{2}c"}, map[string]bvap.QuotaConfig{
		"metered": {RatePerSec: 0.001, Burst: 2},
	})
	scan := func(tenant string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/scan", strings.NewReader("..abbc.."))
		if tenant != "" {
			req.Header.Set(cluster.TenantHeader, tenant)
		}
		d.handleScan(rec, req)
		return rec
	}
	if scan("metered").Code != 200 || scan("metered").Code != 200 {
		t.Fatal("metered tenant's burst refused")
	}
	rec := scan("metered")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota scan = %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 quota response missing Retry-After")
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Kind != "quota" {
		t.Errorf("error body kind = %q (%v), want quota", resp.Kind, err)
	}
	// Other tenants keep their own buckets.
	if scan("").Code != 200 || scan("neighbor").Code != 200 {
		t.Error("unmetered tenants refused; quota must be per tenant")
	}
}

// TestClusterSurfaceMounted wires the daemon mux the way run() does and
// drives a two-node coordinated publish plus a session migration through
// it — the bvapd-level integration of the fleet surface.
func TestClusterSurfaceMounted(t *testing.T) {
	newNode := func(id string) (*daemon, *httptest.Server) {
		d := testDaemon(t, []string{"ab{2}c"})
		d.node = cluster.NewNode(d.svc, cluster.NodeConfig{ID: id, Recorder: d.rec})
		t.Cleanup(func() { d.node.Close() })
		mux := http.NewServeMux()
		mux.HandleFunc("POST /scan", d.handleScan)
		mux.Handle("/cluster/", d.node.Handler())
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return d, srv
	}
	da, sa := newNode("a")
	db, sb := newNode("b")

	// Coordinator via the publish handler on node a.
	da.coord = cluster.NewCoordinator(cluster.NewClient(cluster.ClientConfig{}), []string{sa.URL, sb.URL})
	rec := httptest.NewRecorder()
	da.handlePublish(rec, httptest.NewRequest("POST", "/cluster/publish", strings.NewReader("ab{2}c\nc{3}\n")))
	if rec.Code != 200 {
		t.Fatalf("publish = %d: %s", rec.Code, rec.Body)
	}
	if da.svc.Generation() != 2 || db.svc.Generation() != 2 {
		t.Fatalf("generations %d/%d after publish, want 2/2", da.svc.Generation(), db.svc.Generation())
	}
	// Replaying the same body is idempotent (deterministic default ticket).
	rec = httptest.NewRecorder()
	da.handlePublish(rec, httptest.NewRequest("POST", "/cluster/publish", strings.NewReader("ab{2}c\nc{3}\n")))
	if rec.Code != 200 || da.svc.Generation() != 2 {
		t.Fatalf("replayed publish = %d, generation %d; want 200 and 2", rec.Code, da.svc.Generation())
	}

	// Session migration a → b through the mounted surface.
	client := cluster.NewClient(cluster.ClientConfig{})
	ctx := context.Background()
	if err := client.PostJSON(ctx, sa.URL, "/cluster/session/open",
		cluster.SessionOpenRequest{SessionID: "s1", Interval: 64}, nil); err != nil {
		t.Fatalf("open: %v", err)
	}
	var feed cluster.SessionResponse
	if err := client.PostJSON(ctx, sa.URL, "/cluster/session/feed",
		cluster.SessionFeedRequest{SessionID: "s1", Chunk: bytes.Repeat([]byte("xabbc"), 40)}, &feed); err != nil {
		t.Fatalf("feed: %v", err)
	}
	var ck cluster.SessionResponse
	if err := client.PostJSON(ctx, sa.URL, "/cluster/session/checkpoint",
		cluster.SessionRequest{SessionID: "s1"}, &ck); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var res cluster.SessionResponse
	if err := client.PostJSON(ctx, sb.URL, "/cluster/session/resume",
		cluster.SessionResumeRequest{SessionID: "s1", Checkpoint: ck.Checkpoint}, &res); err != nil {
		t.Fatalf("resume on b: %v", err)
	}
	if res.Pos != ck.Pos || res.Pos != 200 {
		t.Fatalf("resumed at %d, checkpointed at %d; want 200", res.Pos, ck.Pos)
	}
	total := len(feed.Matches) + len(ck.Matches)
	if total != 40 {
		t.Fatalf("%d matches before migration, want 40", total)
	}
}

// TestNodeIDLabelsMetrics pins satellite behavior of -node-id: every
// exposed metric series carries node="...".
func TestNodeIDLabelsMetrics(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})
	d.nodeID = "node-7"
	d.handleScan(httptest.NewRecorder(), httptest.NewRequest("POST", "/scan", strings.NewReader("abbc")))

	rec := httptest.NewRecorder()
	d.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `node="node-7"`) {
		t.Fatalf("exposition missing node label:\n%s", body)
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, `node="node-7"`) {
			t.Fatalf("series without node label: %q", line)
		}
	}

	// The scan trace carries the node attribute into the flight recorder.
	traces := d.rec.Recent()
	if len(traces) != 1 || traces[0].View().Attrs["node"] != "node-7" {
		t.Fatalf("scan trace missing node attr: %+v", traces[0].View().Attrs)
	}
}

func TestNewSLOMonitorObjectives(t *testing.T) {
	reg := telemetry.NewRegistry()
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	if m := newSLOMonitor(config{}, reg, log); m.Objectives() != 0 {
		t.Fatalf("no targets configured, got %d objectives", m.Objectives())
	}
	cfg := config{sloAvailTarget: 0.999, sloLatencyTarget: 0.95, sloLatencyMS: 50}
	if m := newSLOMonitor(cfg, reg, log); m.Objectives() != 2 {
		t.Fatalf("both targets configured, got %d objectives", m.Objectives())
	}
}

// TestSLOMonitorFiresOnServeErrors drives the availability objective off
// the real serve metrics: healthy scans keep it quiet, a burst of scan
// failures fires it.
func TestSLOMonitorFiresOnServeErrors(t *testing.T) {
	d := testDaemon(t, []string{"ab{2}c"})
	mon := newSLOMonitor(config{
		sloAvailTarget: 0.999,
		sloFastWindow:  5 * time.Minute,
		sloSlowWindow:  time.Hour,
		sloBurn:        14.4,
	}, d.reg, slog.New(slog.NewTextHandler(io.Discard, nil)))

	now := time.Unix(1_700_000_000, 0)
	scanOK := func() {
		rec := httptest.NewRecorder()
		d.handleScan(rec, httptest.NewRequest("POST", "/scan", strings.NewReader("abbc")))
		if rec.Code != 200 {
			t.Fatalf("scan = %d", rec.Code)
		}
	}
	// Healthy hour.
	for i := 0; i < 60; i++ {
		scanOK()
		now = now.Add(time.Minute)
		mon.Observe(now)
	}
	if mon.Firing() {
		t.Fatal("healthy baseline fired")
	}

	// Inject a regression: a second service on the same registry whose
	// watchdog deadline is unmeetable, so every admitted scan lands in
	// bvap_serve_scans_total with a non-ok outcome — the counter the
	// availability objective watches. (Distinct inputs dodge the
	// quarantine breaker; the quarantine path stops counting.)
	bad, err := bvap.NewService([]string{"ab{2}c"}, &bvap.ServiceConfig{
		ScanTimeout:         time.Nanosecond,
		QuarantineThreshold: 1 << 30,
		Metrics:             d.reg,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer bad.Close()
	for i := 0; i < 40; i++ {
		input := []byte(fmt.Sprintf("abbc-%d", i))
		if _, err := bad.Scan(context.Background(), input); err == nil {
			t.Fatal("1ns-deadline scan succeeded")
		}
		now = now.Add(30 * time.Second)
		mon.Observe(now)
	}
	if !mon.Firing() {
		t.Fatalf("sustained failures did not fire: %+v", mon.Status(now))
	}
}
