package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"bvap/internal/serve"
	"bvap/internal/tracing"
)

// TraceHeader carries the trace id across inter-node hops: the client
// stamps it from the request context, the receiving node adopts it
// (tracing.Recorder.StartTraceRemote), and both nodes' /debug/trace/{id}
// then serve their halves of the same request.
const TraceHeader = "X-Bvap-Trace-Id"

// SpanHeader carries the caller's span id alongside TraceHeader — the span
// context of cross-node stitching. The client opens a client span per call
// and stamps its id here; the receiving node adopts it as the remote
// parent (tracing.Recorder.StartTraceRemoteSpan), and the fleet assembler
// later grafts the server-side fragment under that exact client span to
// rebuild one causally-ordered tree.
const SpanHeader = "X-Bvap-Span-Id"

// TenantHeader carries the tenant id of a proxied request, so per-tenant
// quotas meter the originating tenant rather than the forwarding node.
const TenantHeader = "X-Bvap-Tenant"

// GossipHeader piggybacks a base64 BVGS membership table on ordinary
// inter-node traffic: a gossip-enabled client stamps its snapshot on every
// request, the receiving node merges it and echoes its own table on the
// response, and the client merges that — so membership spreads at the
// speed of whatever the fleet is already doing, with the probe loop as
// the idle-time floor.
const GossipHeader = "X-Bvap-Gossip"

// ClientConfig tunes the inter-node client. The zero value selects 3
// attempts, a 2-second per-attempt timeout, the serve.Backoff defaults
// (50 ms base, jittered doubling) between attempts, and the serve.Breaker
// defaults per peer.
type ClientConfig struct {
	// MaxAttempts bounds tries per call (first + retries); values < 1
	// select 3.
	MaxAttempts int
	// AttemptTimeout bounds each attempt, layered under the caller's
	// context; values <= 0 select 2 seconds.
	AttemptTimeout time.Duration
	// Backoff is the inter-attempt delay schedule; zero fields take the
	// serve.Backoff defaults.
	Backoff serve.Backoff
	// Breaker tunes the per-peer circuit breaker; the zero value takes the
	// serve.BreakerConfig defaults.
	Breaker serve.BreakerConfig
	// HTTPClient, when non-nil, replaces http.DefaultClient (tests inject
	// httptest clients).
	HTTPClient *http.Client
	// Membership, when non-nil, piggybacks this node's gossip table on
	// every request (GossipHeader) and merges the peer's echoed table from
	// every response. Set on node-owned clients; driver/coordinator
	// clients leave it nil. The membership itself probes through a Client,
	// so the usual construction order is NewClient → NewMembership →
	// Client.SetMembership.
	Membership *Membership
}

// Client is the fleet's inter-node HTTP transport: JSON-over-POST with
// typed errors, per-attempt timeouts, jittered exponential retry on
// transient failures, a per-peer circuit breaker, and trace-id
// propagation. Safe for concurrent use.
type Client struct {
	cfg ClientConfig
	hc  *http.Client
	brk *serve.Breaker
	mem atomic.Pointer[Membership]
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{cfg: cfg, hc: hc, brk: serve.NewBreaker(cfg.Breaker, nil)}
	if cfg.Membership != nil {
		c.mem.Store(cfg.Membership)
	}
	return c
}

// SetMembership enables gossip piggybacking after construction — the
// membership probes through this very client, so it cannot exist before
// the client does.
func (c *Client) SetMembership(m *Membership) { c.mem.Store(m) }

// PeerError is a failed inter-node call: the peer, the path, how many
// attempts were spent, the final HTTP status (0 when the failure was
// transport-level) and the underlying cause. It unwraps to the cause, so
// errors.Is sees context cancellation, serve.ErrQuarantined (peer breaker
// open) and the remote error sentinels a node maps onto status codes.
type PeerError struct {
	Peer     string
	Path     string
	Attempts int
	Status   int
	Err      error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: peer %s %s failed after %d attempt(s): %v", e.Peer, e.Path, e.Attempts, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// remoteError is a non-2xx JSON error payload relayed from a peer.
type remoteError struct {
	Status int
	Msg    string
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("peer returned %d: %s", e.Status, e.Msg)
}

// PostJSON calls POST peer+path with req as JSON and decodes the 2xx
// response into resp (ignored when resp is nil). Transient failures —
// transport errors, 429 and 5xx statuses — are retried on the backoff
// schedule until MaxAttempts or context expiry; non-retryable statuses
// fail fast. The peer's breaker opens after repeated failures
// (serve.ErrQuarantined via errors.Is) and re-closes on the escalating
// cooldown schedule.
func (c *Client) PostJSON(ctx context.Context, peer, path string, req, resp any) error {
	if !c.brk.Allow(peer) {
		return &PeerError{Peer: peer, Path: path, Err: serve.ErrQuarantined}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return &PeerError{Peer: peer, Path: path, Err: err}
	}
	// The client span covers the whole call (all attempts); its id rides
	// SpanHeader so the peer's server-side fragment grafts under it. On the
	// tracing-disabled path StartSpan returns (ctx, nil) with no allocation.
	ctx, sp := tracing.StartSpan(ctx, "cluster.client "+path)
	sp.SetStr("peer", peer)
	defer sp.End()
	var last error
	lastStatus := 0
	attempt := 0
	for ; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.cfg.Backoff.Wait(ctx, attempt-1); err != nil {
				break
			}
		}
		status, err := c.post(ctx, peer, path, body, resp)
		if err == nil {
			c.brk.Success(peer)
			return nil
		}
		last, lastStatus = err, status
		if !retryable(status, err) {
			c.brk.Success(peer) // the peer answered; the request was just refused
			return &PeerError{Peer: peer, Path: path, Attempts: attempt + 1, Status: status, Err: err}
		}
	}
	if last == nil {
		last = ctx.Err()
	}
	c.brk.Failure(peer)
	return &PeerError{Peer: peer, Path: path, Attempts: attempt, Status: lastStatus, Err: last}
}

// stampGossip attaches this node's membership snapshot to an outgoing
// request; mergeGossip folds in the peer's echoed table. Both are no-ops
// on membership-less (driver/coordinator) clients.
func (c *Client) stampGossip(hreq *http.Request) {
	if m := c.mem.Load(); m != nil {
		hreq.Header.Set(GossipHeader, base64.StdEncoding.EncodeToString(m.Snapshot()))
	}
}

func (c *Client) mergeGossip(hres *http.Response) {
	m := c.mem.Load()
	if m == nil {
		return
	}
	raw := hres.Header.Get(GossipHeader)
	if raw == "" {
		return
	}
	payload, err := base64.StdEncoding.DecodeString(raw)
	if err != nil {
		return
	}
	if g, err := DecodeGossip(payload); err == nil {
		m.Merge(g)
	}
}

// post runs one attempt under its own timeout.
func (c *Client) post(ctx context.Context, peer, path string, body []byte, resp any) (int, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := tracing.FromContext(ctx).IDString(); id != "" {
		hreq.Header.Set(TraceHeader, id)
	}
	if id := tracing.SpanFromContext(ctx).IDString(); id != "" {
		hreq.Header.Set(SpanHeader, id)
	}
	c.stampGossip(hreq)
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	c.mergeGossip(hres)
	defer func() {
		io.Copy(io.Discard, io.LimitReader(hres.Body, 1<<16))
		hres.Body.Close()
	}()
	if hres.StatusCode/100 != 2 {
		var payload struct {
			Error string `json:"error"`
		}
		msg := hres.Status
		if json.NewDecoder(io.LimitReader(hres.Body, 1<<16)).Decode(&payload) == nil && payload.Error != "" {
			msg = payload.Error
		}
		return hres.StatusCode, &remoteError{Status: hres.StatusCode, Msg: msg}
	}
	if resp == nil {
		return hres.StatusCode, nil
	}
	if err := json.NewDecoder(io.LimitReader(hres.Body, MaxBodyBytes)).Decode(resp); err != nil {
		return hres.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return hres.StatusCode, nil
}

// GetBytes calls GET peer+path and returns the 2xx response body, with the
// same retry, breaker, and trace/span propagation semantics as PostJSON —
// the transport of the fleet observability plane (span fragments, metric
// snapshots, node health). A body past MaxBodyBytes fails with
// ErrBodyTooLarge.
func (c *Client) GetBytes(ctx context.Context, peer, path string) ([]byte, error) {
	if !c.brk.Allow(peer) {
		return nil, &PeerError{Peer: peer, Path: path, Err: serve.ErrQuarantined}
	}
	ctx, sp := tracing.StartSpan(ctx, "cluster.client "+path)
	sp.SetStr("peer", peer)
	defer sp.End()
	var last error
	lastStatus := 0
	attempt := 0
	for ; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.cfg.Backoff.Wait(ctx, attempt-1); err != nil {
				break
			}
		}
		status, body, err := c.get(ctx, peer, path)
		if err == nil {
			c.brk.Success(peer)
			return body, nil
		}
		last, lastStatus = err, status
		if !retryable(status, err) {
			c.brk.Success(peer) // the peer answered; the request was just refused
			return nil, &PeerError{Peer: peer, Path: path, Attempts: attempt + 1, Status: status, Err: err}
		}
	}
	if last == nil {
		last = ctx.Err()
	}
	c.brk.Failure(peer)
	return nil, &PeerError{Peer: peer, Path: path, Attempts: attempt, Status: lastStatus, Err: last}
}

// GetJSON is GetBytes plus a JSON decode of the body into resp.
func (c *Client) GetJSON(ctx context.Context, peer, path string, resp any) error {
	body, err := c.GetBytes(ctx, peer, path)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	if err := json.Unmarshal(body, resp); err != nil {
		return &PeerError{Peer: peer, Path: path, Attempts: 1, Status: http.StatusOK,
			Err: fmt.Errorf("decoding response: %w", err)}
	}
	return nil
}

// get runs one GET attempt under its own timeout.
func (c *Client) get(ctx context.Context, peer, path string) (int, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodGet, peer+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if id := tracing.FromContext(ctx).IDString(); id != "" {
		hreq.Header.Set(TraceHeader, id)
	}
	if id := tracing.SpanFromContext(ctx).IDString(); id != "" {
		hreq.Header.Set(SpanHeader, id)
	}
	c.stampGossip(hreq)
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	c.mergeGossip(hres)
	defer func() {
		io.Copy(io.Discard, io.LimitReader(hres.Body, 1<<16))
		hres.Body.Close()
	}()
	if hres.StatusCode/100 != 2 {
		var payload struct {
			Error string `json:"error"`
		}
		msg := hres.Status
		if json.NewDecoder(io.LimitReader(hres.Body, 1<<16)).Decode(&payload) == nil && payload.Error != "" {
			msg = payload.Error
		}
		return hres.StatusCode, nil, &remoteError{Status: hres.StatusCode, Msg: msg}
	}
	body, err := ReadBody(hres.Body, MaxBodyBytes)
	if err != nil {
		return hres.StatusCode, nil, err
	}
	return hres.StatusCode, body, nil
}

// retryable classifies one attempt's failure: transport errors and
// explicitly transient statuses retry; everything else (4xx semantics,
// decode failures of a 2xx body) does not. Context expiry stops the loop
// in Wait rather than here.
func retryable(status int, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return status == 0 // an attempt timeout is transient; caller expiry ends in Wait
	}
	if status == 0 {
		return true // transport-level failure
	}
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}
