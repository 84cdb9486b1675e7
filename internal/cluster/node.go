package cluster

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bvap"
	"bvap/internal/serve"
	"bvap/internal/telemetry"
	"bvap/internal/tracing"
)

// NodeConfig tunes a cluster node.
type NodeConfig struct {
	// ID names the node in the ring and in /cluster/info.
	ID string
	// Recorder, when non-nil, adopts remote trace ids from TraceHeader so
	// the node's half of a cross-node request records (and is looked up)
	// under the coordinator's id, and serves span fragments at
	// /cluster/trace/{id} for the fleet stitcher.
	Recorder *tracing.Recorder
	// Metrics, when non-nil, is the node's registry, exported as a
	// serialized snapshot at /cluster/metrics for the federation scrape
	// loop.
	Metrics *telemetry.Registry
	// SessionInterval is the default checkpoint interval of sessions
	// opened without one; values < 1 select the service default.
	SessionInterval int
	// Self, Ring and Client enable ring-routed scans: a scan request
	// carrying a routing key that hashes to another ring member is
	// forwarded there (once — the forwarded request is marked, so
	// disagreeing ring views degrade to serving locally rather than
	// looping). Self is this node's own base URL as it appears in the
	// ring; all three must be set for forwarding to engage.
	Self   string
	Ring   *Ring
	Client *Client
	// Membership, when non-nil, replaces the static Ring with the gossip
	// membership's live ring and enables the self-healing surface: the
	// gossip/join/leave endpoints, /cluster/ring, checkpoint replication,
	// session sync and automatic re-placement. Wire the membership's
	// OnChange to WakeRebalance so epoch changes trigger a hand-off scan.
	Membership *Membership
	// Replicas is the checkpoint replication factor R when Membership is
	// set: every session checkpoint must be held by min(R, ring size)
	// distinct chain owners before it acks. Values < 1 select 1 (local
	// only — no remote durability).
	Replicas int
	// RebalanceInterval is the background hand-off/adoption scan cadence
	// (a belt under the epoch-change trigger); values <= 0 select 2s.
	RebalanceInterval time.Duration
	// Logger, when non-nil, receives hand-off/adoption/replication logs.
	Logger *slog.Logger
}

// Node is the cluster-facing surface of one bvapd process: HTTP handlers
// for the two-phase reload protocol (prepare/commit/abort), live session
// migration (open/feed/checkpoint/resume/close) and routed scans, all over
// the embedded *bvap.Service. Mount Handler under /cluster/. All handlers
// are safe for concurrent use.
type Node struct {
	cfg NodeConfig
	svc *bvap.Service

	mu       sync.Mutex
	staged   map[string]*stagedTicket
	sessions map[string]*nodeSession

	// Self-healing state (nil/inert without cfg.Membership).
	store       *replicaStore
	rep         *replicator
	rebalanceCh chan struct{}
	// placeMu serializes session placement transitions (sync rebuilds,
	// transfers, adoptions, replicated closes) so two recovery paths never
	// race to install the same session. Ordering: placeMu > ns.mu > n.mu.
	placeMu sync.Mutex

	handoffs  atomic.Uint64
	adoptions atomic.Uint64

	cHandoff, cAdopt, cDegraded *telemetry.Counter
	cSync                       *telemetry.CounterVec
}

// stagedTicket is one prepare round's node-local state, kept so prepare
// and commit are idempotent per ticket: a coordinator that dies and
// re-runs its round converges instead of double-applying.
//
// Locking: fingerprint and base are immutable after staging. prep is
// guarded by mu, which also serializes the Commit/Abort operation so
// concurrent commits of one ticket resolve to one publication plus
// replays. committed and gen are written with BOTH mu and the node mutex
// held (mu first), so readers holding either lock see a consistent pair —
// sweepStagedLocked reads them under the node mutex alone. prep is dropped
// the moment the ticket resolves (committed or dead), so a retained ticket
// no longer pins a compiled engine.
type stagedTicket struct {
	fingerprint uint64
	base        uint64

	mu        sync.Mutex
	prep      *bvap.PreparedReload // nil once committed or dead
	committed bool
	gen       uint64
}

// nodeSession is one migrated-able streaming session. Committed matches
// buffer here until the driver collects them in a feed/checkpoint/close
// response; the driver treats them as provisional until it persists a wire
// checkpoint taken at or after their positions (the exactly-once
// protocol — see the soak driver in internal/experiments).
type nodeSession struct {
	mu  sync.Mutex
	ss  *bvap.StreamSession
	buf []Match
	// delta accumulates every match committed since the last durable
	// (replicated) checkpoint record, independent of buf's collection
	// cycle — it becomes the next CheckpointRecord's match delta, the
	// range a recovering driver re-learns when a checkpoint ack was lost.
	delta []Match
	// lastDurable is the position of the session's last replicated record
	// (the next record's PrevPos).
	lastDurable int64
	// interval is the session's checkpoint interval, carried into records
	// so re-placement resumes with the same cadence.
	interval int
	// gone marks a session that was closed or handed off while a handler
	// still held its pointer; such handlers answer 404 so the driver
	// re-resolves ownership instead of feeding a corpse.
	gone bool
}

// NewNode wraps svc with the cluster surface.
func NewNode(svc *bvap.Service, cfg NodeConfig) *Node {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.RebalanceInterval <= 0 {
		cfg.RebalanceInterval = 2 * time.Second
	}
	if cfg.Membership != nil && cfg.Self == "" {
		cfg.Self = cfg.Membership.Self()
	}
	n := &Node{
		cfg:         cfg,
		svc:         svc,
		staged:      map[string]*stagedTicket{},
		sessions:    map[string]*nodeSession{},
		store:       newReplicaStore(),
		rebalanceCh: make(chan struct{}, 1),
	}
	if cfg.Membership != nil && cfg.Client != nil {
		n.rep = newReplicator(cfg.Self, cfg.Replicas, cfg.Client, n.ring, n.store, cfg.Metrics)
	}
	if r := cfg.Metrics; r != nil {
		n.cHandoff = r.Counter("bvap_cluster_handoff_total", "Sessions proactively handed off to their new ring owner.")
		n.cAdopt = r.Counter("bvap_cluster_adopt_total", "Orphaned sessions adopted from replicated checkpoints.")
		n.cDegraded = r.Counter("bvap_cluster_scan_degraded_total", "Keyed scans served locally because the ring owner was unreachable.")
		n.cSync = r.CounterVec("bvap_cluster_sync_total", "Session sync requests by outcome.", "outcome")
	}
	return n
}

// ring returns the live routing ring: the membership's when gossip is
// enabled, else the statically configured one (possibly nil).
func (n *Node) ring() *Ring {
	if n.cfg.Membership != nil {
		return n.cfg.Membership.Ring()
	}
	return n.cfg.Ring
}

// Match is the wire form of one committed match report.
type Match struct {
	// Pattern is the index of the matching pattern in the served set.
	Pattern int `json:"pattern"`
	// End is the absolute stream offset the match ends at.
	End int `json:"end"`
}

// Wire request/response bodies of the node endpoints. Exported so the
// coordinator, bvapd and the soak driver share one definition.
type (
	PrepareRequest struct {
		Ticket   string   `json:"ticket"`
		Patterns []string `json:"patterns"`
	}
	PrepareResponse struct {
		Fingerprint string `json:"fingerprint"` // hex engine fingerprint
		Base        uint64 `json:"base"`        // generation validated against
	}
	TicketRequest struct {
		Ticket string `json:"ticket"`
	}
	CommitResponse struct {
		Generation uint64 `json:"generation"`
	}
	SessionOpenRequest struct {
		SessionID string `json:"session_id"`
		Interval  int    `json:"interval,omitempty"`
	}
	SessionFeedRequest struct {
		SessionID string `json:"session_id"`
		Chunk     []byte `json:"chunk"`
	}
	SessionRequest struct {
		SessionID string `json:"session_id"`
	}
	SessionResumeRequest struct {
		SessionID  string `json:"session_id"`
		Checkpoint []byte `json:"checkpoint"`
		Interval   int    `json:"interval,omitempty"`
	}
	// SessionSyncRequest is the uniform driver recovery call: "my last
	// durable position is Have — land the session at its newest durable
	// checkpoint and hand me whatever I'm missing." The node read-repairs
	// the record across the failover chain, rebuilds the session from the
	// durable bytes, and answers with the durable position plus the match
	// delta covering (Have, Pos]. 404 means no chain member holds a record
	// at or past Have: with Have 0 the node instead opens a fresh session,
	// with Have > 0 it is a checkpoint-loss report.
	SessionSyncRequest struct {
		SessionID string `json:"session_id"`
		Have      int64  `json:"have"`
		Interval  int    `json:"interval,omitempty"`
	}
	// TransferRequest hands a session's custody to its new ring owner
	// during a re-placement: the durable record plus the session's
	// checkpoint cadence. The receiver stores the record and, when it is
	// the designated origin, resumes the session immediately.
	TransferRequest struct {
		Record   CheckpointRecord `json:"record"`
		Interval int              `json:"interval,omitempty"`
	}
	// RingView is one node's current view of the fleet (GET
	// /cluster/ring): the full member table, the membership epoch, and —
	// when the request carries ?key= — the key's owner under that view.
	// Operators diff views across nodes; drivers use Owner for placement.
	RingView struct {
		Node         string         `json:"node"`
		Self         string         `json:"self"`
		Epoch        uint64         `json:"epoch"`
		VirtualNodes int            `json:"virtual_nodes"`
		Replicas     int            `json:"replicas"`
		Members      []MemberRecord `json:"members"`
		Key          string         `json:"key,omitempty"`
		Owner        string         `json:"owner,omitempty"`
	}
	SessionResponse struct {
		// Pos is the committed stream position (the offset feeding resumes
		// from after a failure).
		Pos int64 `json:"pos"`
		// Checkpoint is the wire checkpoint (checkpoint endpoint only).
		Checkpoint []byte `json:"checkpoint,omitempty"`
		// Matches are the reports committed since the last collection.
		Matches []Match `json:"matches,omitempty"`
	}
	ScanRequest struct {
		Input []byte `json:"input"`
		// Tenant attributes the scan for quota accounting; the
		// TenantHeader, when set, takes precedence.
		Tenant string `json:"tenant,omitempty"`
		// Key, when set on a ring-enabled node, routes the scan to the
		// ring member owning the key (stream affinity); an empty key scans
		// locally.
		Key string `json:"key,omitempty"`
		// Forwarded marks a scan that already took its one routing hop;
		// the receiving node serves it locally regardless of ring view.
		Forwarded bool `json:"forwarded,omitempty"`
	}
	ScanResponse struct {
		// Node is the node that executed the scan (the ring owner when the
		// request was forwarded).
		Node    string  `json:"node,omitempty"`
		Matches []Match `json:"matches,omitempty"`
		// Degraded marks a keyed scan that was served locally because the
		// ring owner was unreachable — the partition degrade policy: a scan
		// from the local generation beats an error while membership
		// converges on the failure.
		Degraded bool `json:"degraded,omitempty"`
	}
	// MetricsResponse is one node's serialized registry snapshot
	// (GET /cluster/metrics). Metrics is the telemetry.MarshalSamples
	// payload, kept raw so the node needn't re-decode what it just
	// encoded.
	MetricsResponse struct {
		Node    string          `json:"node"`
		Metrics json.RawMessage `json:"metrics"`
	}
	// NodeHealth is one node's self-reported status (GET /cluster/health),
	// collected by the fleet prober into /debug/fleet/health.
	NodeHealth struct {
		Node        string `json:"node"`
		Generation  uint64 `json:"generation"`
		Fingerprint string `json:"fingerprint"`
		Sessions    int    `json:"sessions"`
		Staged      int    `json:"staged_tickets"`
		// Quarantined lists scan keys the service breaker has quarantined.
		Quarantined []string `json:"quarantined,omitempty"`
		// QuotaSaturation is per-tenant quota consumption (0 idle → 1
		// exhausted); nil when quotas are disabled.
		QuotaSaturation map[string]float64 `json:"quota_saturation,omitempty"`
		// FlightRecorded / FlightPinned are flight-recorder lifetime
		// totals; Pinned growth means scans are blowing latency or energy
		// budgets.
		FlightRecorded uint64 `json:"flight_recorded"`
		FlightPinned   uint64 `json:"flight_pinned"`
		// Epoch is the node's membership epoch (0 when gossip membership is
		// disabled); survivors of a failure agree on it once converged.
		Epoch uint64 `json:"epoch,omitempty"`
		// Handoffs / Adoptions are lifetime re-placement totals.
		Handoffs  uint64 `json:"handoffs,omitempty"`
		Adoptions uint64 `json:"adoptions,omitempty"`
	}
	InfoResponse struct {
		Node        string   `json:"node"`
		Generation  uint64   `json:"generation"`
		Fingerprint string   `json:"fingerprint"`
		Sessions    []string `json:"sessions,omitempty"`
	}
)

// Handler returns the node's endpoint set, rooted at /cluster/.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/prepare", n.withTrace("cluster.prepare", n.handlePrepare))
	mux.HandleFunc("/cluster/commit", n.withTrace("cluster.commit", n.handleCommit))
	mux.HandleFunc("/cluster/abort", n.withTrace("cluster.abort", n.handleAbort))
	mux.HandleFunc("/cluster/session/open", n.withTrace("cluster.session.open", n.handleSessionOpen))
	mux.HandleFunc("/cluster/session/feed", n.withTrace("cluster.session.feed", n.handleSessionFeed))
	mux.HandleFunc("/cluster/session/checkpoint", n.withTrace("cluster.session.checkpoint", n.handleSessionCheckpoint))
	mux.HandleFunc("/cluster/session/resume", n.withTrace("cluster.session.resume", n.handleSessionResume))
	mux.HandleFunc("/cluster/session/close", n.withTrace("cluster.session.close", n.handleSessionClose))
	mux.HandleFunc("/cluster/scan", n.withTrace("cluster.scan", n.handleScan))
	mux.HandleFunc("/cluster/info", n.withTrace("cluster.info", n.handleInfo))
	mux.HandleFunc("/cluster/join", n.withTrace("cluster.join", n.handleGossipExchange))
	mux.HandleFunc("/cluster/gossip", n.withTrace("cluster.gossip", n.handleGossipExchange))
	mux.HandleFunc("/cluster/leave", n.withTrace("cluster.leave", n.handleGossipExchange))
	mux.HandleFunc("/cluster/checkpoint/put", n.withTrace("cluster.checkpoint.put", n.handleCheckpointPut))
	mux.HandleFunc("/cluster/checkpoint/get", n.withTrace("cluster.checkpoint.get", n.handleCheckpointGet))
	mux.HandleFunc("/cluster/checkpoint/delete", n.withTrace("cluster.checkpoint.delete", n.handleCheckpointDelete))
	mux.HandleFunc("/cluster/session/sync", n.withTrace("cluster.session.sync", n.handleSessionSync))
	mux.HandleFunc("/cluster/session/transfer", n.withTrace("cluster.session.transfer", n.handleSessionTransfer))
	mux.HandleFunc("GET /cluster/ring", n.handleRing)
	mux.HandleFunc("GET /cluster/trace/{id}", n.handleTraceExport)
	mux.HandleFunc("GET /cluster/metrics", n.handleMetrics)
	mux.HandleFunc("GET /cluster/health", n.handleHealth)
	return mux
}

// withTrace adopts the remote trace id riding TraceHeader (when the node
// has a recorder), so the handler's spans land under the caller's id. The
// caller's span id (SpanHeader) is adopted as the remote parent, which is
// what lets the fleet stitcher graft this node's fragment under the exact
// client span that caused the request.
func (n *Node) withTrace(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Gossip piggyback: membership tables ride ordinary inter-node
		// traffic, so every cross-node call doubles as a gossip exchange and
		// the dedicated probe loop is only the floor on dissemination rate.
		if m := n.cfg.Membership; m != nil {
			if raw := r.Header.Get(GossipHeader); raw != "" {
				if payload, err := base64.StdEncoding.DecodeString(raw); err == nil {
					if g, err := DecodeGossip(payload); err == nil {
						m.Merge(g)
					}
				}
			}
			w.Header().Set(GossipHeader, base64.StdEncoding.EncodeToString(m.Snapshot()))
		}
		if n.cfg.Recorder != nil {
			var remote tracing.TraceID
			var parent tracing.SpanID
			if raw := r.Header.Get(TraceHeader); raw != "" {
				if id, err := tracing.ParseTraceID(raw); err == nil {
					remote = id
				}
			}
			if remote != 0 {
				if raw := r.Header.Get(SpanHeader); raw != "" {
					if id, err := tracing.ParseSpanID(raw); err == nil {
						parent = id
					}
				}
			}
			ctx, tr := n.cfg.Recorder.StartTraceRemoteSpan(r.Context(), name, remote, parent)
			tr.SetStr("node", n.cfg.ID)
			defer n.cfg.Recorder.Record(tr)
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError maps a service error onto a status the client-side retry
// policy understands: transient refusals (overload, drain, quota,
// quarantine) are 503/429 and retried; protocol conflicts (stale
// generation, stale checkpoint) are 409 and surfaced; structural damage
// is 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, bvap.ErrQuotaExceeded):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, bvap.ErrOverloaded):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, bvap.ErrDraining), errors.Is(err, bvap.ErrQuarantined):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
	case errors.Is(err, ErrReplicationQuorum):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, serve.ErrStaleGeneration), errors.Is(err, bvap.ErrCheckpointStale):
		status = http.StatusConflict
	case errors.Is(err, bvap.ErrCheckpointCorrupt):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// MaxBodyBytes bounds every JSON body the fleet surface reads: requests
// at the /cluster/* endpoints and the responses Client decodes.
const MaxBodyBytes = 16 << 20

// ErrBodyTooLarge reports a body longer than its limit. Handlers answer it
// with 413 rather than acting on a truncated prefix.
var ErrBodyTooLarge = errors.New("body too large")

// ReadBody reads r to EOF and returns the whole body, or ErrBodyTooLarge
// once more than limit bytes arrive — never a silently truncated prefix.
func ReadBody(r io.Reader, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("%w: exceeds %d bytes", ErrBodyTooLarge, limit)
	}
	return body, nil
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return false
	}
	body, err := ReadBody(r.Body, MaxBodyBytes)
	if errors.Is(err, ErrBodyTooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": err.Error()})
		return false
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// sweepStagedLocked evicts committed tickets whose generation has been
// superseded. Such a ticket can only mislead: replaying its prepare would
// hand the coordinator a fingerprint the node no longer serves, and its
// commit would report an old generation without publishing — so a
// re-publish of a previously published set (rolling back A after B, with
// the ticket derived deterministically from the set) would "succeed"
// while the fleet keeps serving B. Evicting forces a fresh round instead.
// At most one committed ticket (the one whose gen is current) survives,
// which also bounds retained tickets across repeated reloads. Callers
// hold n.mu.
func (n *Node) sweepStagedLocked() {
	cur := n.svc.Generation()
	for id, t := range n.staged {
		if t.committed && t.gen != cur {
			delete(n.staged, id)
		}
	}
}

func (n *Node) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Ticket == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing ticket"})
		return
	}
	n.mu.Lock()
	n.sweepStagedLocked()
	if t, ok := n.staged[req.Ticket]; ok {
		// Idempotent replay: a coordinator retrying its prepare gets the
		// fingerprint of the already-staged candidate.
		resp := PrepareResponse{Fingerprint: fmt.Sprintf("%016x", t.fingerprint), Base: t.base}
		n.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	n.mu.Unlock()
	prep, err := n.svc.PrepareReload(r.Context(), req.Patterns)
	if err != nil {
		writeError(w, err)
		return
	}
	n.mu.Lock()
	if t, ok := n.staged[req.Ticket]; ok {
		// Lost a concurrent race on the same ticket; keep the first and
		// answer with its staging directly (the request body is already
		// consumed, so re-entering the handler would misread EOF as a bad
		// request and spuriously fail the round).
		resp := PrepareResponse{Fingerprint: fmt.Sprintf("%016x", t.fingerprint), Base: t.base}
		n.mu.Unlock()
		prep.Abort()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	t := &stagedTicket{prep: prep, fingerprint: prep.Fingerprint(), base: prep.Base()}
	n.staged[req.Ticket] = t
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, PrepareResponse{Fingerprint: fmt.Sprintf("%016x", t.fingerprint), Base: t.base})
}

func (n *Node) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req TicketRequest
	if !decodeBody(w, r, &req) {
		return
	}
	n.mu.Lock()
	t, ok := n.staged[req.Ticket]
	n.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown ticket " + req.Ticket})
		return
	}
	// t.mu serializes the whole commit: concurrent commits of one ticket
	// resolve to one publication, and every later caller replays the
	// recorded generation instead of racing into a spurious stale refusal.
	t.mu.Lock()
	if t.committed {
		gen := t.gen
		t.mu.Unlock()
		writeJSON(w, http.StatusOK, CommitResponse{Generation: gen})
		return
	}
	if t.prep == nil {
		// Resolved dead (a previous commit hit a superseded base) but still
		// reachable through a raced lookup; same refusal as that commit.
		t.mu.Unlock()
		writeError(w, serve.ErrStaleGeneration)
		return
	}
	gen, err := t.prep.Commit()
	if err != nil {
		if errors.Is(err, serve.ErrStaleGeneration) {
			// The candidate can never publish — its base generation is gone.
			// Drop it so the ticket stops pinning a compiled engine and a
			// fresh round under the same ticket can re-stage.
			t.prep.Abort()
			t.prep = nil
			n.mu.Lock()
			if n.staged[req.Ticket] == t {
				delete(n.staged, req.Ticket)
			}
			n.mu.Unlock()
		}
		t.mu.Unlock()
		writeError(w, err)
		return
	}
	t.prep = nil
	n.mu.Lock()
	t.committed, t.gen = true, gen
	// This publication superseded whatever committed ticket was current.
	n.sweepStagedLocked()
	n.mu.Unlock()
	t.mu.Unlock()
	writeJSON(w, http.StatusOK, CommitResponse{Generation: gen})
}

func (n *Node) handleAbort(w http.ResponseWriter, r *http.Request) {
	var req TicketRequest
	if !decodeBody(w, r, &req) {
		return
	}
	n.mu.Lock()
	t, ok := n.staged[req.Ticket]
	delete(n.staged, req.Ticket)
	n.mu.Unlock()
	if ok {
		t.mu.Lock()
		if t.prep != nil {
			t.prep.Abort()
			t.prep = nil
		}
		t.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]bool{"aborted": ok})
}

// session returns the named session or writes a 404.
func (n *Node) session(w http.ResponseWriter, id string) *nodeSession {
	n.mu.Lock()
	defer n.mu.Unlock()
	ns := n.sessions[id]
	if ns == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown session " + id})
	}
	return ns
}

// installSession registers a new session under id, wiring its OnMatch into
// the collection buffer and the durable delta. It fails when id is taken.
func (n *Node) installSession(id string, interval int, open func(cfg *bvap.SessionConfig) (*bvap.StreamSession, error)) (*nodeSession, error) {
	ns := &nodeSession{}
	cfg := &bvap.SessionConfig{
		CheckpointInterval: n.cfg.SessionInterval,
		OnMatch: func(m bvap.Match) {
			// Called from within feed/checkpoint while ns.mu is held by the
			// same goroutine's handler — append without locking would race
			// only if sessions were shared; they are handler-serialized via
			// ns.mu, so buffering here is ordered with collection.
			ns.buf = append(ns.buf, Match{Pattern: m.Pattern, End: m.End})
			ns.delta = append(ns.delta, Match{Pattern: m.Pattern, End: m.End})
		},
	}
	if interval > 0 {
		cfg.CheckpointInterval = interval
	}
	ss, err := open(cfg)
	if err != nil {
		return nil, err
	}
	ns.ss = ss
	ns.interval = cfg.CheckpointInterval
	n.mu.Lock()
	if _, taken := n.sessions[id]; taken {
		n.mu.Unlock()
		// Release the freshly opened session — leaving it unclosed would
		// leak its checked-out stream for the process lifetime.
		ss.Close()
		return nil, fmt.Errorf("session %s already open on node %s", id, n.cfg.ID)
	}
	n.sessions[id] = ns
	n.mu.Unlock()
	return ns, nil
}

// evictSession removes id and closes its session (marking the nodeSession
// gone so handlers that captured its pointer answer 404). Callers hold
// placeMu when the eviction is part of a placement transition.
func (n *Node) evictSession(id string) {
	n.mu.Lock()
	ns := n.sessions[id]
	delete(n.sessions, id)
	n.mu.Unlock()
	if ns == nil {
		return
	}
	ns.mu.Lock()
	ns.gone = true
	ns.ss.Close()
	ns.mu.Unlock()
}

func (n *Node) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req SessionOpenRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ns, err := n.installSession(req.SessionID, req.Interval, func(cfg *bvap.SessionConfig) (*bvap.StreamSession, error) {
		return n.svc.NewSession(cfg)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{Pos: ns.ss.Pos()})
}

func (n *Node) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	var req SessionResumeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ns, err := n.installSession(req.SessionID, req.Interval, func(cfg *bvap.SessionConfig) (*bvap.StreamSession, error) {
		return n.svc.ResumeSessionBytes(req.Checkpoint, cfg)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{Pos: ns.ss.Pos()})
}

func (n *Node) handleSessionFeed(w http.ResponseWriter, r *http.Request) {
	var req SessionFeedRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ns := n.session(w, req.SessionID)
	if ns == nil {
		return
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.gone {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "session " + req.SessionID + " was re-placed"})
		return
	}
	if err := ns.ss.Feed(r.Context(), req.Chunk); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{Pos: ns.ss.Pos(), Matches: ns.collectLocked()})
}

func (n *Node) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ns := n.session(w, req.SessionID)
	if ns == nil {
		return
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.gone {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "session " + req.SessionID + " was re-placed"})
		return
	}
	ck := ns.ss.Checkpoint()
	wire, err := ck.MarshalBinary()
	if err != nil {
		writeError(w, err)
		return
	}
	// Replication: the checkpoint only acks once min(R, ring) distinct
	// chain owners hold the record. The delta is NOT reset on a failed
	// round — it keeps accumulating from the last durable record, so the
	// next successful record still covers the whole (PrevPos, Pos] range.
	if n.rep != nil {
		rec := CheckpointRecord{
			SessionID:  req.SessionID,
			Pos:        ck.Pos(),
			PrevPos:    ns.lastDurable,
			Origin:     n.cfg.Self,
			Checkpoint: wire,
			Matches:    append([]Match(nil), ns.delta...),
			Interval:   ns.interval,
		}
		if err := n.rep.replicate(r.Context(), rec); err != nil {
			writeError(w, err)
			return
		}
		ns.delta = nil
		ns.lastDurable = rec.Pos
	}
	writeJSON(w, http.StatusOK, SessionResponse{Pos: ck.Pos(), Checkpoint: wire, Matches: ns.collectLocked()})
}

func (n *Node) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// A replicated close must also retire the session's records, or a later
	// epoch change would "adopt" the finished stream back to life. placeMu
	// orders the record delete against any concurrent adoption scan.
	n.placeMu.Lock()
	n.mu.Lock()
	ns := n.sessions[req.SessionID]
	delete(n.sessions, req.SessionID)
	n.mu.Unlock()
	if ns == nil {
		n.placeMu.Unlock()
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown session " + req.SessionID})
		return
	}
	n.store.delete(req.SessionID)
	n.placeMu.Unlock()
	if n.rep != nil {
		// Best-effort fan-out: a chain member that misses the delete keeps
		// stale bytes but never resurrects the session here (the local
		// record is gone before the session is).
		for _, owner := range n.rep.owners(req.SessionID) {
			if owner != n.cfg.Self {
				n.cfg.Client.PostJSON(r.Context(), owner, "/cluster/checkpoint/delete", SessionRequest{SessionID: req.SessionID}, nil)
			}
		}
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.gone = true
	ns.ss.Close()
	writeJSON(w, http.StatusOK, SessionResponse{Pos: ns.ss.Pos(), Matches: ns.collectLocked()})
}

// collectLocked drains the committed-match buffer. Callers hold ns.mu.
func (ns *nodeSession) collectLocked() []Match {
	out := ns.buf
	ns.buf = nil
	return out
}

func (n *Node) handleScan(w http.ResponseWriter, r *http.Request) {
	var req ScanRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx := r.Context()
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = req.Tenant
	}
	// Ring routing: a keyed scan landing on a non-owner takes exactly one
	// hop to the owner. The hop is a traced client call, so the stitched
	// fleet trace shows driver → this node → owner as one causal chain.
	degraded := false
	if owner, ok := n.routeScan(&req); ok {
		fwd := req
		fwd.Tenant, fwd.Forwarded = tenant, true
		ctx, sp := tracing.StartSpan(ctx, "cluster.forward")
		sp.SetStr("owner", owner)
		sp.SetStr("key", req.Key)
		var resp ScanResponse
		err := n.cfg.Client.PostJSON(ctx, owner, "/cluster/scan", fwd, &resp)
		sp.End()
		if err == nil {
			writeJSON(w, http.StatusOK, resp)
			return
		}
		// Partition degrade policy: when the owner is unreachable (or its
		// breaker is open), serve the scan from the local generation rather
		// than failing it — affinity is an optimization, correctness is not
		// at stake, and the response is marked so callers can tell. Refusals
		// from an owner that answered (quota, quarantine) still propagate.
		var pe *PeerError
		if errors.As(err, &pe) && pe.Status != 0 && !errors.Is(err, serve.ErrQuarantined) {
			writeError(w, err)
			return
		}
		degraded = true
		if n.cDegraded != nil {
			n.cDegraded.Inc()
		}
		if n.cfg.Logger != nil {
			n.cfg.Logger.Warn("scan owner unreachable; serving locally", "owner", owner, "key", req.Key, "err", err)
		}
	}
	if tenant != "" {
		ctx = bvap.WithTenant(ctx, tenant)
	}
	ms, err := n.svc.Scan(ctx, req.Input)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := ScanResponse{Node: n.cfg.ID, Degraded: degraded}
	for _, m := range ms {
		resp.Matches = append(resp.Matches, Match{Pattern: m.Pattern, End: m.End})
	}
	writeJSON(w, http.StatusOK, resp)
}

// routeScan decides whether a scan request must hop to another ring
// member, returning the owner's base URL. Forwarded or keyless requests,
// nodes without ring configuration, and keys this node owns all stay
// local.
func (n *Node) routeScan(req *ScanRequest) (string, bool) {
	ring := n.ring()
	if req.Forwarded || req.Key == "" || ring == nil || n.cfg.Client == nil || n.cfg.Self == "" {
		return "", false
	}
	owner := ring.Owner(req.Key)
	if owner == "" || owner == n.cfg.Self {
		return "", false
	}
	return owner, true
}

// handleGossipExchange is one half of a gossip round, shared by
// /cluster/join, /cluster/gossip and /cluster/leave (the three differ only
// in who initiates and why): merge the sender's table, answer with ours.
func (n *Node) handleGossipExchange(w http.ResponseWriter, r *http.Request) {
	var req GossipRequest
	if !decodeBody(w, r, &req) {
		return
	}
	m := n.cfg.Membership
	if m == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "gossip membership disabled on node " + n.cfg.ID})
		return
	}
	snap, err := m.HandleGossip(req.Payload)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, GossipResponse{Payload: snap})
}

// handleRing serves this node's ring view; ?key= additionally resolves the
// key's owner under that view (the driver's placement oracle).
func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	m := n.cfg.Membership
	if m == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "gossip membership disabled on node " + n.cfg.ID})
		return
	}
	view := RingView{
		Node:         n.cfg.ID,
		Self:         n.cfg.Self,
		Epoch:        m.Epoch(),
		VirtualNodes: m.Ring().VirtualNodes(),
		Replicas:     n.cfg.Replicas,
		Members:      m.Members(),
	}
	if key := r.URL.Query().Get("key"); key != "" {
		view.Key, view.Owner = key, m.Ring().Owner(key)
	}
	writeJSON(w, http.StatusOK, view)
}

func (n *Node) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	var rec CheckpointRecord
	if !decodeBody(w, r, &rec) {
		return
	}
	if rec.SessionID == "" || len(rec.Checkpoint) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "incomplete checkpoint record"})
		return
	}
	stored := n.store.put(rec)
	writeJSON(w, http.StatusOK, map[string]bool{"stored": stored})
}

func (n *Node) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rec, ok := n.store.get(req.SessionID)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no checkpoint record for session " + req.SessionID})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (n *Node) handleCheckpointDelete(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	n.store.delete(req.SessionID)
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

// handleSessionSync lands a session at its newest durable checkpoint and
// tells the driver what it missed — the single recovery call that covers
// node death, hand-off and a lost checkpoint ack uniformly. The session is
// always rebuilt from the durable bytes: a live session may sit past its
// last record (interval commits between wire checkpoints), and the driver
// is about to replay from the durable position, so only that exact state
// is admissible.
func (n *Node) handleSessionSync(w http.ResponseWriter, r *http.Request) {
	var req SessionSyncRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if n.rep == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "checkpoint replication disabled on node " + n.cfg.ID})
		return
	}
	syncOutcome := func(outcome string) {
		if n.cSync != nil {
			n.cSync.With(outcome).Inc()
		}
	}
	if owner := n.ring().Owner(req.SessionID); owner != "" && owner != n.cfg.Self {
		syncOutcome("not_owner")
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "session " + req.SessionID + " is owned by " + owner})
		return
	}
	n.placeMu.Lock()
	defer n.placeMu.Unlock()
	rec, ok := n.rep.repair(r.Context(), req.SessionID)
	if !ok {
		if req.Have > 0 {
			// The driver persisted an ack for a record no surviving chain
			// member holds: genuine checkpoint loss (replication factor too
			// low for the failures suffered). 404 is terminal for the driver.
			syncOutcome("lost")
			writeJSON(w, http.StatusNotFound, map[string]string{
				"error": fmt.Sprintf("checkpoint lost: no durable record for session %s at or past %d", req.SessionID, req.Have)})
			return
		}
		// Never checkpointed: restart the stream from zero.
		n.evictSession(req.SessionID)
		_, err := n.installSession(req.SessionID, req.Interval, func(cfg *bvap.SessionConfig) (*bvap.StreamSession, error) {
			return n.svc.NewSession(cfg)
		})
		if err != nil {
			syncOutcome("error")
			writeError(w, err)
			return
		}
		syncOutcome("fresh")
		writeJSON(w, http.StatusOK, SessionResponse{Pos: 0})
		return
	}
	if rec.Pos < req.Have {
		syncOutcome("behind")
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error": fmt.Sprintf("replica behind driver for session %s: have %d, durable %d", req.SessionID, rec.Pos, req.Have)})
		return
	}
	if req.Have != rec.Pos && req.Have != rec.PrevPos {
		// The driver is more than one checkpoint behind the chain — its
		// delta cannot be reconstructed from one record. Unreachable while
		// at most one ack is lost per failure; 409 makes the violation loud
		// rather than silently dropping matches.
		syncOutcome("gap")
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("delivery gap for session %s: driver at %d, record spans (%d,%d]", req.SessionID, req.Have, rec.PrevPos, rec.Pos)})
		return
	}
	interval := req.Interval
	if interval <= 0 {
		interval = rec.Interval
	}
	n.evictSession(req.SessionID)
	ns, err := n.installSession(req.SessionID, interval, func(cfg *bvap.SessionConfig) (*bvap.StreamSession, error) {
		return n.svc.ResumeSessionBytes(rec.Checkpoint, cfg)
	})
	if err != nil {
		syncOutcome("error")
		writeError(w, err)
		return
	}
	ns.mu.Lock()
	ns.lastDurable = rec.Pos
	ns.buf, ns.delta = nil, nil
	ns.mu.Unlock()
	var delta []Match
	if rec.Pos > req.Have {
		delta = rec.Matches
	}
	syncOutcome("ok")
	writeJSON(w, http.StatusOK, SessionResponse{Pos: rec.Pos, Matches: delta})
}

// handleSessionTransfer receives a session's custody during a hand-off:
// the record is stored, and when this node is the record's designated
// origin and doesn't already hold the session live, it resumes it
// immediately (adoption-by-transfer).
func (n *Node) handleSessionTransfer(w http.ResponseWriter, r *http.Request) {
	var req TransferRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Record.SessionID == "" || len(req.Record.Checkpoint) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "incomplete transfer record"})
		return
	}
	n.placeMu.Lock()
	defer n.placeMu.Unlock()
	n.store.put(req.Record)
	id := req.Record.SessionID
	if req.Record.Origin != n.cfg.Self {
		writeJSON(w, http.StatusOK, SessionResponse{Pos: req.Record.Pos})
		return
	}
	n.mu.Lock()
	_, live := n.sessions[id]
	n.mu.Unlock()
	if !live {
		if err := n.adoptLocked(req.Record, req.Interval); err != nil {
			writeError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, SessionResponse{Pos: req.Record.Pos})
}

// handleTraceExport serves this node's span fragments for one trace id in
// the BVTF wire form — the raw material of cross-node stitching. A
// malformed id is 400; a well-formed id with no retained fragments is 404
// (the trace never touched this node, or its rings have since evicted it).
func (n *Node) handleTraceExport(w http.ResponseWriter, r *http.Request) {
	id, err := tracing.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad trace id: %v", err)})
		return
	}
	frags := n.cfg.Recorder.Fragments(id, n.cfg.ID)
	if len(frags) == 0 {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no fragments for trace " + id.String()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(tracing.EncodeFragments(frags))
}

// handleMetrics serves this node's registry snapshot for the federation
// scrape loop.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if n.cfg.Metrics == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "node has no metrics registry"})
		return
	}
	raw, err := telemetry.MarshalSamples(n.cfg.Metrics.Snapshot())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, MetricsResponse{Node: n.cfg.ID, Metrics: raw})
}

// Health reports the node's self-observed status (also served at
// GET /cluster/health for the fleet prober).
func (n *Node) Health() NodeHealth {
	n.mu.Lock()
	sessions, staged := len(n.sessions), len(n.staged)
	n.mu.Unlock()
	h := NodeHealth{
		Node:            n.cfg.ID,
		Generation:      n.svc.Generation(),
		Fingerprint:     fmt.Sprintf("%016x", n.svc.Engine().Fingerprint()),
		Sessions:        sessions,
		Staged:          staged,
		Quarantined:     n.svc.Quarantined(),
		QuotaSaturation: n.svc.QuotaSaturation(),
		FlightRecorded:  n.cfg.Recorder.Recorded(),
		FlightPinned:    n.cfg.Recorder.PinnedTotal(),
		Handoffs:        n.handoffs.Load(),
		Adoptions:       n.adoptions.Load(),
	}
	if n.cfg.Membership != nil {
		h.Epoch = n.cfg.Membership.Epoch()
	}
	return h
}

func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.Health())
}

func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	ids := make([]string, 0, len(n.sessions))
	for id := range n.sessions {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, InfoResponse{
		Node:        n.cfg.ID,
		Generation:  n.svc.Generation(),
		Fingerprint: fmt.Sprintf("%016x", n.svc.Engine().Fingerprint()),
		Sessions:    ids,
	})
}

// Close closes every open session (committing pending reports into their
// buffers, which are then dropped) — the node-local half of shutdown; the
// service itself is drained by its owner.
func (n *Node) Close() {
	n.mu.Lock()
	sessions := n.sessions
	n.sessions = map[string]*nodeSession{}
	n.mu.Unlock()
	for _, ns := range sessions {
		ns.mu.Lock()
		ns.gone = true
		ns.ss.Close()
		ns.mu.Unlock()
	}
}
