package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"bvap"
	"bvap/internal/cluster"
)

// newClient gives each load goroutine its own connection pool, so the
// generator holds at most one connection per goroutine and node.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// post sends body to url and decodes a 200 answer into out. It returns the
// size of the response body.
func post(ctx context.Context, c *http.Client, url, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("POST %s: decode: %w", url, err)
		}
	}
	return len(data), nil
}

func postJSON(ctx context.Context, c *http.Client, url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return post(ctx, c, url, "application/json", body, out)
}

func fromWire(ms []cluster.Match) []bvap.Match {
	if len(ms) == 0 {
		return nil
	}
	out := make([]bvap.Match, len(ms))
	for i, m := range ms {
		out[i] = bvap.Match{Pattern: m.Pattern, End: m.End}
	}
	return out
}

// mode indexes samples by whether the round recorded spans. The plain run
// only has untraced rounds; the traced run alternates, and compares the two
// to measure its own overhead.
type mode int

const (
	untraced mode = iota
	traced
)

// loadClient is one of the generator's closed-loop clients. It keeps
// its connections, span log and replayer across rounds.
type loadClient struct {
	c      int
	http   *http.Client
	log    *spanLog // nil outside the traced run
	rs     *replayer
	i      int // ops sent, so bodies keep cycling across rounds
	failed bool
	// replays of the layers below this slot's ops, run once the slot's
	// load has stopped, so they neither slow the other clients' requests
	// nor are slowed by them.
	replays []func()
}

// maxReplays bounds the ops per client and slot whose lower layers the
// traced run replays.
const maxReplays = 64

// replay queues f to run after the slot, in a traced round.
func (c *loadClient) replay(log *spanLog, f func()) {
	if log != nil && len(c.replays) < maxReplays {
		c.replays = append(c.replays, f)
	}
}

func (b *bench) newLoadClients(phase string) []*loadClient {
	cs := make([]*loadClient, b.clients)
	for c := range cs {
		cs[c] = &loadClient{c: c, http: newClient(), rs: b.layers.newReplayer()}
		if b.layers != nil {
			cs[c].log = b.layers.newSpanLog(phase)
		}
	}
	return cs
}

func closeLoadClients(cs []*loadClient) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
		c.rs.close()
	}
}

// spanLogFor gives the client's span log in a traced round, else nil.
func (c *loadClient) spanLogFor(m mode) *spanLog {
	if m == traced {
		return c.log
	}
	return nil
}

// runClients runs one slot: every client loops on op until d has passed,
// each op at least once. The first op of each client in a slot only warms
// the path after the others ran — woken goroutines, idle connections — and
// op is told not to keep its latency. The replays of the slot's ops run
// after it.
func runClients(cs []*loadClient, d time.Duration, op func(c *loadClient, keep bool)) {
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			for i := 0; !c.failed && (i == 0 || time.Now().Before(until)); i++ {
				op(c, i > 0)
			}
		}(c)
	}
	wg.Wait()
	for _, c := range cs {
		for _, f := range c.replays {
			f()
		}
		c.replays = c.replays[:0]
	}
}

// serveLoad drives POST /scan on node a: each client sends its next body
// once the previous verdict arrived, and sends every body to the reference
// echo server too.
type serveLoad struct {
	b       *bench
	clients []*loadClient
	mu      sync.Mutex
	// Round trips of correct requests and of their echoes, ns.
	lat, echo [2][]int64
	// respBytes and resps count response bytes in traced rounds.
	respBytes, resps int64
}

func (b *bench) newServeLoad() *serveLoad {
	return &serveLoad{b: b, clients: b.newLoadClients("serve")}
}

// echoRoundTrip sends body to the reference echo server and times the
// round trip, on the client's own connection.
func (b *bench) echoRoundTrip(ctx context.Context, c *loadClient, contentType string, body []byte) (int64, bool) {
	t := time.Now()
	_, err := post(ctx, c.http, b.echo.url+"/echo", contentType, body, nil)
	dt := time.Since(t)
	if err != nil {
		b.fail(fmt.Errorf("reference echo: %w", err))
		return 0, false
	}
	return int64(dt), true
}

// echoJSON sends in, marshalled as a request to the fleet is, to the
// reference echo server; marshalling is timed on both sides.
func (b *bench) echoJSON(ctx context.Context, c *loadClient, in any) (int64, bool) {
	t := time.Now()
	body, err := json.Marshal(in)
	if err != nil {
		b.fail(err)
		return 0, false
	}
	_, ok := b.echoRoundTrip(ctx, c, "application/json", body)
	return int64(time.Since(t)), ok
}

func (l *serveLoad) slot(ctx context.Context, m mode, d time.Duration) {
	b := l.b
	runClients(l.clients, d, func(c *loadClient, keep bool) {
		if ctx.Err() != nil {
			c.failed = true
			return
		}
		log := c.spanLogFor(m)
		k := (c.c + c.i*b.clients) % len(b.bodies)
		c.i++
		body, ref := b.bodies[k], b.bodyRefs[k]
		op := b.layers.nextOp()
		sp := log.begin("bvapd.scan", op, 0, len(body))
		var resp scanResponse
		t := time.Now()
		n, err := post(ctx, c.http, b.fl.a.url+"/scan", "application/octet-stream", body, &resp)
		dt := time.Since(t)
		id := log.end(sp)
		if err != nil {
			log.drop(sp)
			b.fail(err)
			return
		}
		if !b.check(equalMatches(resp.Matches, ref), "POST /scan body %d: %d matches, want %d", k, len(resp.Matches), len(ref)) {
			log.drop(sp)
			return
		}
		echo, ok := b.echoRoundTrip(ctx, c, "application/octet-stream", body)
		l.mu.Lock()
		if keep && ok {
			l.lat[m] = append(l.lat[m], int64(dt))
			l.echo[m] = append(l.echo[m], echo)
		}
		if m == traced {
			l.respBytes += int64(n)
			l.resps++
		}
		l.mu.Unlock()
		c.replay(log, func() { c.rs.replayScan(log, op, id, body, ref) })
	})
}

// scanResponse is bvapd's POST /scan answer.
type scanResponse struct {
	Matches []bvap.Match `json:"matches"`
}

// session is one fleet client's stream: where it lives, what it has fed,
// and what the fleet committed back.
type session struct {
	id        string
	owner     *node
	stream    []byte
	fed       int64 // bytes fed and acknowledged
	durable   int64 // position of the last acknowledged checkpoint
	delivered []bvap.Match
	// commits pairs each acknowledged checkpoint position with the number
	// of matches delivered up to it, for the exactly-once check.
	commits [][2]int64
	delta   []cluster.Match // matches since the previous checkpoint
}

// fleetLoad streams each client's data through its own session on the
// two-node fleet: feed 1 KiB, checkpoint (replicated to the peer before it
// acks), and after every other checkpoint one keyed /cluster/scan sent to
// node a. Every other keyed scan uses a key node b owns, so half of them
// take the forward hop. Each request is followed by the same request to the
// reference echo server.
type fleetLoad struct {
	b        *bench
	clients  []*loadClient
	sessions []*session
	keys     map[*node]string

	mu sync.Mutex
	// Round trips, ns: commit is a feed and its checkpoint; fwd and local
	// are keyed scans served past the forward hop and by their owner.
	commit, ckpt, fwd, local [2][]int64
	// The echoes of the same requests: of a feed and its checkpoint, of the
	// checkpoint, and of a keyed scan.
	commitEcho, ckptEcho, scanEcho [2][]int64
	committed                      [2]int64 // stream bytes durably checkpointed in kept ops
	forwarded, keyed               int      // traced rounds
	// firstRecordBytes is the size of client 0's first BVCK checkpoint,
	// taken at a fixed stream position, so it repeats exactly per seed.
	firstRecordBytes int
}

// newFleetLoad picks one key per node and one session per client, placed
// on node a for even clients and node b for odd ones, and opens the
// sessions on their ring owners.
func (b *bench) newFleetLoad(ctx context.Context) (*fleetLoad, error) {
	l := &fleetLoad{b: b, clients: b.newLoadClients("fleet"), keys: map[*node]string{}}
	for _, n := range []*node{b.fl.a, b.fl.b} {
		k, err := b.fl.keyOwnedBy(ctx, fmt.Sprintf("perfbench-%d-key-%s", b.cfg.seed, n.id), n)
		if err != nil {
			return nil, err
		}
		l.keys[n] = k
	}
	for c := range l.clients {
		owner := b.fl.a
		if c%2 == 1 {
			owner = b.fl.b
		}
		id, err := b.fl.keyOwnedBy(ctx, fmt.Sprintf("perfbench-%d-session-%d", b.cfg.seed, c), owner)
		if err != nil {
			return nil, err
		}
		l.sessions = append(l.sessions, &session{id: id, owner: owner, stream: b.streams[c]})
		if _, err := postJSON(ctx, b.fl.client, owner.url+"/cluster/session/open",
			cluster.SessionOpenRequest{SessionID: id}, nil); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *fleetLoad) slot(ctx context.Context, m mode, d time.Duration) {
	runClients(l.clients, d, func(c *loadClient, keep bool) {
		if ctx.Err() != nil {
			c.failed = true
			return
		}
		if err := l.op(ctx, c, m, keep); err != nil {
			// The session's position is no longer known: stop this
			// client; the op already counts as failed.
			c.failed = true
		}
	})
}

// op is one feed and checkpoint of client c, and every other time a keyed
// scan.
func (l *fleetLoad) op(ctx context.Context, c *loadClient, m mode, keep bool) error {
	b := l.b
	s := l.sessions[c.c]
	log := c.spanLogFor(m)
	off := int(s.fed % int64(len(s.stream)))
	chunk := s.stream[off : off+chunkBytes]

	op := b.layers.nextOp()
	sp := log.begin("cluster.feed", op, 0, len(chunk))
	var fr cluster.SessionResponse
	feedReq := cluster.SessionFeedRequest{SessionID: s.id, Chunk: chunk}
	t := time.Now()
	_, err := postJSON(ctx, c.http, s.owner.url+"/cluster/session/feed", feedReq, &fr)
	feedDT := time.Since(t)
	id := log.end(sp)
	if err != nil {
		b.fail(err)
		return err
	}
	s.fed += int64(len(chunk))
	s.take(fr.Matches)
	// A 1 KiB feed after a checkpoint stays below the commit interval, so
	// the committed position must not move.
	b.check(fr.Pos == s.durable, "session %s feed moved its commit point to %d, want %d", s.id, fr.Pos, s.durable)
	feedOp, feedID := op, id // op and id are reused below
	c.replay(log, func() { c.rs.replayFeed(log, feedOp, feedID, chunk) })
	feedEcho, echoed := b.echoJSON(ctx, c, feedReq)

	op = b.layers.nextOp()
	sp = log.begin("cluster.checkpoint", op, 0, 0)
	var cr cluster.SessionResponse
	ckReq := cluster.SessionRequest{SessionID: s.id}
	t = time.Now()
	_, err = postJSON(ctx, c.http, s.owner.url+"/cluster/session/checkpoint", ckReq, &cr)
	dt := time.Since(t)
	id = log.end(sp)
	if err != nil {
		b.fail(err)
		return err
	}
	s.take(cr.Matches)
	if !b.check(cr.Pos == s.fed, "session %s checkpoint at %d, fed %d", s.id, cr.Pos, s.fed) {
		return fmt.Errorf("session %s lost its position", s.id)
	}
	rec := cluster.CheckpointRecord{
		SessionID: s.id, Pos: cr.Pos, PrevPos: s.durable, Origin: s.owner.url,
		Checkpoint: cr.Checkpoint, Matches: s.delta, Interval: bvap.DefaultCheckpointInterval,
	}
	ckEcho, ok := b.echoJSON(ctx, c, ckReq)
	echoed = echoed && ok
	l.mu.Lock()
	if c.c == 0 && s.durable == 0 {
		l.firstRecordBytes = len(cr.Checkpoint)
	}
	if keep && echoed {
		l.committed[m] += cr.Pos - s.durable
		l.commit[m] = append(l.commit[m], int64(feedDT+dt))
		l.ckpt[m] = append(l.ckpt[m], int64(dt))
		l.commitEcho[m] = append(l.commitEcho[m], feedEcho+ckEcho)
		l.ckptEcho[m] = append(l.ckptEcho[m], ckEcho)
	}
	l.mu.Unlock()
	s.durable = cr.Pos
	s.delta = nil
	s.commits = append(s.commits, [2]int64{cr.Pos, int64(len(s.delivered))})
	ckOp, ckID, peer := op, id, b.fl.peerOf(s.owner).url
	c.replay(log, func() { c.rs.replayPut(log, ckOp, ckID, peer, rec) })

	// A keyed scan, sent to node a, after every other checkpoint; client 0
	// uses b's key on its even keyed scans and client 1 on its odd ones.
	c.i++
	if c.i%2 == 1 {
		return nil
	}
	n := c.i / 2
	k := (c.c + n*b.clients) % len(b.bodies)
	owner := b.fl.a
	if (n+c.c)%2 == 0 {
		owner = b.fl.b
	}
	body, ref := b.bodies[k], b.bodyRefs[k]
	name := "cluster.scan.owner"
	if owner != b.fl.a {
		name = "cluster.scan.forward"
	}
	op = b.layers.nextOp()
	sp = log.begin(name, op, 0, len(body))
	req := cluster.ScanRequest{Input: body, Key: l.keys[owner]}
	var sr cluster.ScanResponse
	t = time.Now()
	_, err = postJSON(ctx, c.http, b.fl.a.url+"/cluster/scan", req, &sr)
	dt = time.Since(t)
	log.end(sp)
	if err != nil {
		log.drop(sp)
		b.fail(err)
		return nil
	}
	got := fromWire(sr.Matches)
	if !b.check(equalMatches(got, ref) && sr.Node == owner.id && !sr.Degraded,
		"keyed scan of body %d on %s: %d matches from node %q (degraded %v), want %d from %q",
		k, l.keys[owner], len(got), sr.Node, sr.Degraded, len(ref), owner.id) {
		log.drop(sp)
		return nil
	}
	echo, echoed := b.echoJSON(ctx, c, req)
	l.mu.Lock()
	if keep && echoed {
		l.scanEcho[m] = append(l.scanEcho[m], echo)
	}
	switch {
	case !keep:
	case owner != b.fl.a:
		l.fwd[m] = append(l.fwd[m], int64(dt))
	default:
		l.local[m] = append(l.local[m], int64(dt))
	}
	if m == traced {
		l.keyed++
		if owner != b.fl.a {
			l.forwarded++
		}
	}
	l.mu.Unlock()
	return nil
}

// finish closes every session and checks its delivery.
func (l *fleetLoad) finish(ctx context.Context) {
	for _, s := range l.sessions {
		var cr cluster.SessionResponse
		if _, err := postJSON(ctx, l.b.fl.client, s.owner.url+"/cluster/session/close",
			cluster.SessionRequest{SessionID: s.id}, &cr); err != nil {
			l.b.fail(err)
			continue
		}
		s.take(cr.Matches)
		l.b.checkSession(s)
	}
}

// take appends matches the fleet committed back.
func (s *session) take(ms []cluster.Match) {
	s.delivered = append(s.delivered, fromWire(ms)...)
	s.delta = append(s.delta, ms...)
}

// checkSession checks exactly-once delivery: the matches the fleet committed
// back, concatenated, equal FindAll over everything the session was fed, and
// each checkpoint had delivered exactly the matches ending before it. Each
// checkpoint counts as one op.
func (b *bench) checkSession(s *session) {
	fed := make([]byte, 0, s.fed)
	for int64(len(fed)) < s.fed {
		fed = append(fed, s.stream[:min(int64(len(s.stream)), s.fed-int64(len(fed)))]...)
	}
	want := b.eng.FindAll(fed)
	if !b.check(equalMatches(s.delivered, want), "session %s delivered %d matches over %d bytes, FindAll %d",
		s.id, len(s.delivered), s.fed, len(want)) {
		return
	}
	j := 0
	for _, c := range s.commits {
		for j < len(want) && int64(want[j].End) < c[0] {
			j++
		}
		b.check(int64(j) == c[1], "session %s checkpoint at %d had delivered %d matches, want %d",
			s.id, c[0], c[1], j)
	}
}
