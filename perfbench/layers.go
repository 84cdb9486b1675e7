package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bvap"
	"bvap/internal/cluster"
	"bvap/internal/compiler"
	"bvap/internal/nbva"
	"bvap/internal/parascan"
	"bvap/internal/telemetry"
	"bvap/internal/tracing"
)

// layerState is the traced run's extra equipment: the compiled machines the
// runner layer is driven with directly, in-process services the served
// bodies are replayed through, the recorded spans, and the exact counts
// taken before the measured seconds.
type layerState struct {
	b        *bench
	ops      atomic.Int64
	spanIDs  atomic.Int64
	mu       sync.Mutex
	logs     []*spanLog
	parReg   *telemetry.Registry
	parBytes atomic.Int64

	machines      []*nbva.AHNBVA
	svcOn, svcOff *bvap.Service // flight recorder on and off
	compileMS     float64
	stes, bvSTEs  int
	allocsPerOp   float64
	nbvaCounts    map[string]float64
}

func newLayerState(b *bench) (*layerState, error) {
	l := &layerState{b: b, parReg: telemetry.NewRegistry()}
	var times []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := compiler.Compile(b.rules, compiler.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("compile rules: %w", err)
		}
		times = append(times, float64(time.Since(start))/1e6)
		l.machines = res.Machines
		l.stes, l.bvSTEs = res.Report.TotalSTEs, res.Report.TotalBVSTEs
	}
	l.compileMS = median(times)
	l.nbvaCounts = l.countRunnerWork(b.simSlices[0])

	var allocs []float64
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.eng.FindAll(b.inputs[0])
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.Mallocs-before))
	}
	l.allocsPerOp = median(allocs)

	// The same service configuration bvapd builds, minus HTTP.
	newSvc := func(rec *tracing.Recorder) (*bvap.Service, error) {
		return bvap.NewService(b.rules, &bvap.ServiceConfig{
			MaxQueue: 64, ScanTimeout: 2 * time.Second, QuarantineThreshold: 3,
			Metrics: telemetry.NewRegistry(), FlightRecorder: rec,
		})
	}
	var err error
	if l.svcOff, err = newSvc(nil); err != nil {
		return nil, err
	}
	if l.svcOn, err = newSvc(tracing.NewRecorder(tracing.Config{Capacity: 256, PinCapacity: 32})); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *layerState) nextOp() int64 {
	if l == nil {
		return 0
	}
	return l.ops.Add(1)
}

// newSpanLog gives one goroutine its span log for phase.
func (l *layerState) newSpanLog(phase string) *spanLog {
	log := &spanLog{t0: l.b.t0, phase: phase, ids: &l.spanIDs}
	l.mu.Lock()
	l.logs = append(l.logs, log)
	l.mu.Unlock()
	return log
}

func (l *layerState) addParBytes(n int) {
	if l != nil {
		l.parBytes.Add(int64(n))
	}
}

// runners is one goroutine's set of AH-NBVA runners, one per machine.
type runners []*nbva.AHRunner

func newRunners(ms []*nbva.AHNBVA) runners {
	rs := make(runners, 0, len(ms))
	for _, m := range ms {
		if m != nil {
			rs = append(rs, nbva.NewAHRunner(m))
		}
	}
	return rs
}

// scan steps every runner over in from the start configuration and returns
// the number of (pattern, end) matches, the count FindAll reports.
func (rs runners) scan(in []byte) int {
	for _, r := range rs {
		r.Reset()
	}
	n := 0
	for _, c := range in {
		for _, r := range rs {
			if r.Step(c) {
				n++
			}
		}
	}
	return n
}

// countRunnerWork counts, per input byte, the states and bit-vector states
// active after each step, the bit-vector reads and deliveries, and the share
// of bytes after which no runner has an active state — the bytes a skip loop
// could jump over. All are exact for a given input.
func (l *layerState) countRunnerWork(in []byte) map[string]float64 {
	rs := newRunners(l.machines)
	var active, bv, ops, quiet int
	for _, c := range in {
		any := false
		for _, r := range rs {
			r.Step(c)
			a := r.ActiveStates()
			active += a
			bv += r.ActiveBVStates()
			ops += r.ReadOps() + r.SwapOps()
			any = any || a > 0
		}
		if !any {
			quiet++
		}
	}
	n := float64(len(in))
	return map[string]float64{
		"nbva.active_states_per_byte":    float64(active) / n,
		"nbva.active_bv_states_per_byte": float64(bv) / n,
		"nbva.bv_ops_per_byte":           float64(ops) / n,
		"nbva.quiescent_byte_frac":       float64(quiet) / n,
	}
}

// replayer replays one op's bytes through the layers below it. Each load
// goroutine owns one: runners and sessions are single-goroutine objects.
type replayer struct {
	l      *layerState
	rs     runners
	sess   *bvap.StreamSession
	client *http.Client
}

func (l *layerState) newReplayer() *replayer {
	if l == nil {
		return nil
	}
	return &replayer{l: l, rs: newRunners(l.machines), client: newClient()}
}

// replayRunners drives the runner layer directly over the bytes FindAll
// just scanned, as the child of FindAll's span.
func (r *replayer) replayRunners(log *spanLog, op, parent int64, in []byte, want int) {
	if r == nil || log == nil {
		return
	}
	sp := log.begin("nbva.step", op, parent, len(in))
	got := r.rs.scan(in)
	log.end(sp)
	if !r.l.b.check(got == want, "runners: %d matches, FindAll %d", got, want) {
		log.drop(sp)
	}
}

// replayScan replays a POST /scan body in process: Service.Scan with the
// flight recorder on, then off, then FindAll, then the runners, each the
// child of the one before, so each layer's self time is its own cost.
func (r *replayer) replayScan(log *spanLog, op, parent int64, body []byte, ref []bvap.Match) {
	if r == nil || log == nil {
		return
	}
	b := r.l.b
	ctx := context.Background()
	sp := log.begin("serve.scan.traced", op, parent, len(body))
	got, err := r.l.svcOn.Scan(ctx, body)
	id := log.end(sp)
	if !b.check(err == nil && equalMatches(got, ref), "traced Service.Scan: %d matches, want %d (%v)", len(got), len(ref), err) {
		log.drop(sp)
		return
	}
	sp = log.begin("serve.scan", op, id, len(body))
	got, err = r.l.svcOff.Scan(ctx, body)
	id = log.end(sp)
	if !b.check(err == nil && equalMatches(got, ref), "Service.Scan: %d matches, want %d (%v)", len(got), len(ref), err) {
		log.drop(sp)
		return
	}
	sp = log.begin("bvap.findall", op, id, len(body))
	got = b.eng.FindAll(body)
	id = log.end(sp)
	if !b.check(equalMatches(got, ref), "FindAll: %d matches, want %d", len(got), len(ref)) {
		log.drop(sp)
		return
	}
	r.replayRunners(log, op, id, body, len(ref))
}

// replayFeed feeds the same chunk to an in-process StreamSession.
func (r *replayer) replayFeed(log *spanLog, op, parent int64, chunk []byte) {
	if r == nil || log == nil {
		return
	}
	if r.sess == nil {
		s, err := r.l.svcOff.NewSession(nil)
		if err != nil {
			r.l.b.fail(err)
			return
		}
		r.sess = s
	}
	sp := log.begin("serve.feed", op, parent, len(chunk))
	err := r.sess.Feed(context.Background(), chunk)
	log.end(sp)
	if !r.l.b.check(err == nil, "StreamSession.Feed: %v", err) {
		log.drop(sp)
	}
}

// replayPut stores the record the checkpoint just replicated on the peer
// again, directly: the replication hop alone. It goes under a session id of
// its own, so every replay is a real store that leaves the live replica
// alone.
func (r *replayer) replayPut(log *spanLog, op, parent int64, peer string, rec cluster.CheckpointRecord) {
	if r == nil || log == nil {
		return
	}
	rec.SessionID += "-replay"
	sp := log.begin("cluster.replica_put", op, parent, len(rec.Checkpoint))
	var resp struct {
		Stored bool `json:"stored"`
	}
	_, err := postJSON(context.Background(), r.client, peer+"/cluster/checkpoint/put", rec, &resp)
	log.end(sp)
	if !r.l.b.check(err == nil && resp.Stored, "checkpoint put of %s at %d: stored %v (%v)", rec.SessionID, rec.Pos, resp.Stored, err) {
		log.drop(sp)
	}
}

func (r *replayer) close() {
	if r == nil {
		return
	}
	if r.sess != nil {
		r.sess.Close()
	}
	r.client.CloseIdleConnections()
}

// report derives the per-layer metrics from the spans and counts, and
// writes the spans out.
func (l *layerState) report(m map[string]metric, ip *inprocLoad, sv *serveLoad, fs *fleetLoad) {
	set := mergeSpans(l.logs...)
	path := filepath.Join(l.b.cfg.out, fmt.Sprintf("spans-%s-seed%d.json", l.b.wl.name, l.b.cfg.seed))
	if err := set.write(path); err != nil {
		fmt.Fprintln(l.b.log, "perfbench: write spans:", err)
	} else {
		fmt.Fprintf(l.b.log, "perfbench: %d spans written to %s\n", len(set.spans), path)
	}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	put("compiler.compile_ms", "ms", l.compileMS)
	put("compiler.stes", "count", float64(l.stes))
	put("compiler.bv_stes", "count", float64(l.bvSTEs))

	put("nbva.ns_per_byte", "ns/B", set.nsPerByte("nbva.step", "inproc", false))
	for name, v := range l.nbvaCounts {
		unit := "1/B"
		if name == "nbva.quiescent_byte_frac" {
			unit = "frac"
		}
		put(name, unit, v)
	}
	put("bvap.findall_ns_per_byte", "ns/B", set.nsPerByte("bvap.findall", "inproc", false))
	put("bvap.self_ns_per_byte", "ns/B", set.nsPerByte("bvap.findall", "inproc", true))
	put("bvap.findall_allocs_per_op", "count", l.allocsPerOp)

	var seamBytes, fallbacks float64
	for _, s := range l.parReg.Snapshot() {
		switch s.Name {
		case parascan.MetricSeamReplayBytes:
			seamBytes += s.Value
		case parascan.MetricFallbacks:
			fallbacks += s.Value
		}
	}
	put("parascan.ns_per_byte", "ns/B", set.nsPerByte("parascan.findall_parallel", "inproc", false))
	put("parascan.seam_replay_frac", "frac", seamBytes/float64(max(l.parBytes.Load(), 1)))
	put("parascan.fallbacks", "count", fallbacks)

	st := ip.simStats
	sym := float64(max(st.Symbols, 1))
	put("hwsim.host_ns_per_byte", "ns/B", set.nsPerByte("hwsim.run", "inproc", false))
	put("hwsim.cycles_per_byte", "cycles/B", float64(st.Cycles)/sym)
	put("hwsim.stall_frac", "frac", float64(st.StallCycles)/float64(max(st.Cycles, 1)))
	for _, e := range []struct {
		stage string
		pj    float64
	}{
		{"match", st.MatchEnergyPJ}, {"transition", st.TransitionEnergyPJ}, {"bvm", st.BVMEnergyPJ},
		{"counter", st.CounterEnergyPJ}, {"wire", st.WireEnergyPJ}, {"io", st.IOEnergyPJ},
		{"leakage", st.LeakageEnergyPJ},
	} {
		put("hwsim."+e.stage+"_pj_per_byte", "pJ/B", e.pj/sym)
	}

	put("serve.scan_us", "us", set.medianDurUS("serve.scan", "serve"))
	put("serve.overhead_us", "us", set.medianSelfUS("serve.scan", "serve"))
	put("tracing.overhead_us", "us", set.medianSelfUS("serve.scan.traced", "serve"))
	put("bvapd.http_us", "us", set.medianSelfUS("bvapd.scan", "serve"))
	put("bvapd.resp_bytes_per_req", "B", float64(sv.respBytes)/float64(max(sv.resps, 1)))
	// The tails of the two round trips, from the untraced rounds. They are
	// not end-to-end metrics: on a shared host they spread too widely from
	// run to run to hold a regression bound.
	put("bvapd.scan_p99_ms", "ms", quantile(durationsMS(sv.lat[untraced]), 0.99))
	put("cluster.checkpoint_p99_ms", "ms", quantile(durationsMS(fs.ckpt[untraced]), 0.99))

	put("serve.feed_us", "us", set.medianDurUS("serve.feed", "fleet"))
	put("cluster.feed_self_us", "us", set.medianSelfUS("cluster.feed", "fleet"))
	put("cluster.replica_put_us", "us", set.medianDurUS("cluster.replica_put", "fleet"))
	put("cluster.checkpoint_self_us", "us", set.medianSelfUS("cluster.checkpoint", "fleet"))
	put("cluster.record_bytes", "B", float64(fs.firstRecordBytes))
	// The forward hop: keyed scans sent to node a for a key node b owns,
	// less those for a key node a owns, taken in the same slots.
	put("cluster.forward_us", "us", 1e3*(quantile(durationsMS(fs.fwd[traced]), 0.5)-quantile(durationsMS(fs.local[traced]), 0.5)))
	put("cluster.forward_frac", "frac", float64(fs.forwarded)/float64(max(fs.keyed, 1)))

	// Tracing overhead: the median time of the op the workload is named
	// for in traced rounds over its median in the untraced rounds between
	// them.
	var overhead float64
	switch l.b.wl.name {
	case "snort-bulk":
		overhead = median(ip.scan.nsb[traced])/median(ip.scan.nsb[untraced]) - 1
	case "logs-serve":
		overhead = quantile(durationsMS(sv.lat[traced]), 0.5)/quantile(durationsMS(sv.lat[untraced]), 0.5) - 1
	default:
		overhead = quantile(durationsMS(fs.ckpt[traced]), 0.5)/quantile(durationsMS(fs.ckpt[untraced]), 0.5) - 1
	}
	put("trace.overhead_frac", "frac", overhead)
	put("trace.spans", "count", float64(len(set.spans)))

	// The end-to-end timings in the host's own units, from the untraced
	// rounds: they move with the host's speed, so they carry no bound.
	for name, v := range absoluteTimes(untraced, ip, sv, fs) {
		m[name] = v
	}
}
