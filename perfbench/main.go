// Command perfbench is the repository's layered end-to-end benchmark. It runs
// one seeded workload through every layer a scanned byte passes — compiler,
// AH-NBVA runner, FindAll, FindAllParallel, the BVAP simulator, Service.Scan
// and StreamSession, bvapd over HTTP, and the two-node cluster — checks every
// output against an independent expectation before it keeps a timing, and
// prints one JSON line of metrics. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"bvap"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bvapd    string // daemon binary built from the checkout under test
	root     string // checkout root: where testdata/ lives; run from it
	out      string // where daemon logs, pattern files and spans go
	// scale multiplies every generated input size; the smoke test runs at
	// a small fraction.
	scale float64
	// negative corrupts one expected answer, so a healthy tree must fail.
	negative bool
	setups   int // set-ups per run; setup_s is their median
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if addr := os.Getenv(echoEnv); addr != "" {
		// Started by a run as its reference echo server.
		if err := serveEcho(addr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench echo:", err)
			os.Exit(2)
		}
		return
	}
	cfg := config{root: ".", scale: 1, setups: 25}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: snort-bulk, logs-serve or fleet-stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds, shared between the workload's paths")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.bvapd, "bvapd", "", "bvapd binary built from the tree under test")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for daemon logs, pattern files and spans")
	flag.BoolVar(&cfg.negative, "negative-control", false, "corrupt one expected answer; the run must then fail")
	flag.Parse()
	cfg.trace = trace == 1
	// The load generator keeps its own collections rare, so that its pauses
	// add little to the round trips it times. The daemons keep the default.
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, err := run(ctx, cfg, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := res.line(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// line is the result's JSON line. A metric without samples (a path whose
// every answer was wrong) has no value and is left out, and noted on log;
// in a run whose answers were all right that is an error.
func (r *result) line(log io.Writer) ([]byte, error) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if r.Correct {
				return nil, fmt.Errorf("metric %s has no value (%v)", name, m.Value)
			}
			fmt.Fprintf(log, "perfbench: metric %s left out: no correct samples\n", name)
			delete(r.Metrics, name)
		}
	}
	return json.Marshal(r)
}

// bench holds one run's inputs, expectations and outcome counters.
type bench struct {
	cfg   config
	wl    *workloadSpec
	log   io.Writer
	nproc int // FindAllParallel's workers
	// clients is the number of closed-loop HTTP clients: half the CPUs, so
	// that the generator and the two daemons do not queue for the host.
	clients int
	t0      time.Time

	rules []string
	eng   *bvap.Engine
	fl    *fleet
	echo  *node // the reference echo server

	inputs    [][]byte // MiB-sized in-process inputs
	refs      [][]bvap.Match
	simSlices [][]byte // the head of each input, run on the simulator
	simRefs   []int    // FindAll match count of each slice
	bodies    [][]byte // POST /scan and keyed /cluster/scan bodies
	bodyRefs  [][]bvap.Match
	streams   [][]byte // one session stream per fleet client, replayed cyclically

	attempted atomic.Int64
	failed    atomic.Int64
	reported  atomic.Int64

	layers *layerState // non-nil in the traced run
}

// check counts one attempted op and, when ok is false, one failed op.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
		if b.reported.Add(1) <= 10 {
			fmt.Fprintf(b.log, "perfbench: wrong answer: "+format+"\n", args...)
		}
	}
	return ok
}

// fail counts one attempted op that returned an error.
func (b *bench) fail(err error) {
	b.check(false, "%v", err)
}

func (b *bench) size(n int) int {
	s := int(float64(n) * b.cfg.scale)
	if s < 1024 {
		s = 1024
	}
	return s
}

func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.bvapd == "" {
		return nil, errors.New("-bvapd is required; run the benchmark through perfbench/run.sh")
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, wl: wl, log: log, nproc: runtime.NumCPU(), t0: time.Now()}
	b.clients = max(1, b.nproc/2)
	if b.rules, err = wl.rules(cfg.root); err != nil {
		return nil, err
	}
	b.generate()

	rulesFile := filepath.Join(cfg.out, "rules-"+wl.name+".txt")
	if err := os.WriteFile(rulesFile, []byte(patternFile(b.rules)), 0o644); err != nil {
		return nil, err
	}
	// Every exit path below stops the daemons and the echo server, and
	// waits for them.
	defer func() { b.fl.stop() }()
	defer func() { b.echo.stop() }()

	phase := time.Now()
	setup, heap, err := b.setup(ctx, []string{"-patterns", rulesFile})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %d set-ups in %.2f s\n", cfg.setups, time.Since(phase).Seconds())
	if b.echo, err = startEcho(ctx, cfg.out); err != nil {
		return nil, err
	}
	phase = time.Now()
	if err := b.expect(); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: expected answers in %.2f s\n", time.Since(phase).Seconds())
	if cfg.trace {
		if b.layers, err = newLayerState(b); err != nil {
			return nil, err
		}
	}

	ip := b.newInprocLoad()
	defer ip.rs.close()
	sv := b.newServeLoad()
	defer closeLoadClients(sv.clients)
	fs, err := b.newFleetLoad(ctx)
	if err != nil {
		return nil, err
	}
	defer closeLoadClients(fs.clients)

	// The traced run alternates untraced and traced rounds, and needs one
	// of each.
	rounds := 1
	if cfg.trace {
		rounds = 2
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for r := 0; r < rounds || time.Now().Before(deadline); r++ {
		m := untraced
		if cfg.trace && r%2 == 1 {
			m = traced
		}
		share := func(f float64) time.Duration { return time.Duration(f * float64(wl.round)) }
		ip.slot(m, share(wl.inproc))
		sv.slot(ctx, m, share(wl.serve))
		fs.slot(ctx, m, share(wl.fleet))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	phase = time.Now()
	fs.finish(ctx)
	fmt.Fprintf(log, "perfbench: sessions checked in %.2f s\n", time.Since(phase).Seconds())

	res := &result{Metrics: map[string]metric{}}
	if cfg.trace {
		b.layers.report(res.Metrics, ip, sv, fs)
	} else {
		e2e := res.Metrics
		e2e["setup_s"] = metric{setup, "s"}
		e2e["engine_heap_mb"] = metric{heap, "MB"}
		e2e["sim_nj_per_byte"] = metric{ip.simEnergyNJ / float64(ip.simSymbols), "nJ/B"}
		for name, v := range relativeTimes(untraced, ip, sv, fs) {
			e2e[name] = metric{v, "x"}
		}
		b.summarize(ip, sv, fs)
	}
	res.Attempted, res.Failed = b.attempted.Load(), b.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(log, "perfbench: %s seed %d: %d ops, %d failed, fail_frac %g\n",
		wl.name, cfg.seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	printMetrics(log, res.Metrics)
	return res, nil
}

// relativeTimes gives the end-to-end timings of the rounds of mode m: the
// median time of each op of the program over the median time of the
// reference ops beside it (see reference.go).
func relativeTimes(m mode, ip *inprocLoad, sv *serveLoad, fs *fleetLoad) map[string]float64 {
	rel := func(ns, ref []int64) float64 { return medianNS(ns) / medianNS(ref) }
	return map[string]float64{
		"scan_time_vs_ref":      ip.scan.vsRef(m),
		"sim_time_vs_ref":       ip.sim.vsRef(m),
		"par_scan_time_vs_ref":  ip.par.vsRef(m),
		"req_rtt_vs_ref":        rel(sv.lat[m], sv.echo[m]),
		"commit_time_vs_ref":    rel(fs.commit[m], fs.commitEcho[m]),
		"checkpoint_rtt_vs_ref": rel(fs.ckpt[m], fs.ckptEcho[m]),
		"fwd_scan_rtt_vs_ref":   rel(fs.fwd[m], fs.scanEcho[m]),
	}
}

// absoluteTimes gives the same timings in the host's own units, which move
// with the host's speed.
func absoluteTimes(m mode, ip *inprocLoad, sv *serveLoad, fs *fleetLoad) map[string]metric {
	return map[string]metric{
		"abs.scan_mb_s":         {mbs(median(ip.scan.nsb[m])), "MB/s"},
		"abs.par_scan_mb_s":     {mbs(median(ip.par.nsb[m])), "MB/s"},
		"abs.sim_mb_s":          {mbs(median(ip.sim.nsb[m])), "MB/s"},
		"abs.req_per_s":         {float64(len(sv.lat[m])) / (sumNS(sv.lat[m]) / 1e9), "1/s"},
		"abs.req_p50_ms":        {medianNS(sv.lat[m]) / 1e6, "ms"},
		"abs.commit_mb_s":       {float64(fs.committed[m]) / 1e6 / (sumNS(fs.commit[m]) / 1e9), "MB/s"},
		"abs.checkpoint_p50_ms": {medianNS(fs.ckpt[m]) / 1e6, "ms"},
		"abs.fwd_scan_p50_ms":   {medianNS(fs.fwd[m]) / 1e6, "ms"},
		"ref.scan_mb_s":         {mbs(median(ip.scan.refs(m))), "MB/s"},
		"ref.echo_p50_ms":       {medianNS(sv.echo[m]) / 1e6, "ms"},
	}
}

// summarize prints each latency with its tail percentile and the median of
// its reference echo, and each throughput with its quartiles, with the
// sample count.
func (b *bench) summarize(ip *inprocLoad, sv *serveLoad, fs *fleetLoad) {
	for _, s := range []struct {
		name     string
		ns, echo []int64
	}{
		{"POST /scan", sv.lat[untraced], sv.echo[untraced]},
		{"feed + checkpoint", fs.commit[untraced], fs.commitEcho[untraced]},
		{"/cluster/session/checkpoint", fs.ckpt[untraced], fs.ckptEcho[untraced]},
		{"forwarded /cluster/scan", fs.fwd[untraced], fs.scanEcho[untraced]},
		{"owner /cluster/scan", fs.local[untraced], fs.scanEcho[untraced]},
	} {
		ms := durationsMS(s.ns)
		q, label := tailQuantile(len(ms))
		fmt.Fprintf(b.log, "perfbench: %-28s p50 %.3f ms  %s %.3f ms  (n=%d)  echo p50 %.3f ms\n",
			s.name, quantile(ms, 0.5), label, quantile(ms, q), len(ms), medianNS(s.echo)/1e6)
	}
	for _, s := range []struct {
		name string
		nsb  []float64
	}{
		{"FindAll", ip.scan.nsb[untraced]},
		{"FindAllParallel", ip.par.nsb[untraced]},
		{"simulator", ip.sim.nsb[untraced]},
		{"reference, one goroutine", ip.scan.refs(untraced)},
		{"reference, nproc at once", ip.par.refs(untraced)},
	} {
		fmt.Fprintf(b.log, "perfbench: %-28s p25 %.3f  p50 %.3f  p75 %.3f MB/s  (n=%d)\n",
			s.name, mbs(quantile(s.nsb, 0.75)), mbs(quantile(s.nsb, 0.5)), mbs(quantile(s.nsb, 0.25)), len(s.nsb))
	}
	printMetrics(b.log, absoluteTimes(untraced, ip, sv, fs))
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "perfbench:   %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// liveHeap is the heap in use after two collections: the second frees what
// the first only moved out of sync.Pools.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup compiles the rule set and starts the fleet cfg.setups times,
// keeping the last fleet and engine. It returns the median set-up time and
// the median heap the compiled engine retains, in MB.
func (b *bench) setup(ctx context.Context, daemonRules []string) (setupS, heapMB float64, err error) {
	var times, heaps []float64
	for i := 0; i < b.cfg.setups; i++ {
		if i > 0 {
			b.fl.stop()
			b.fl = nil
		}
		b.eng = nil
		before := liveHeap()
		start := time.Now()
		eng, err := bvap.Compile(b.rules)
		if err != nil {
			return 0, 0, fmt.Errorf("compile rules: %w", err)
		}
		compiled := time.Since(start)
		heaps = append(heaps, float64(int64(liveHeap())-int64(before))/1e6)
		b.eng = eng

		start = time.Now()
		if b.fl, err = startFleet(ctx, b.cfg.bvapd, b.cfg.out, daemonRules); err != nil {
			return 0, 0, err
		}
		times = append(times, (compiled + time.Since(start)).Seconds())
	}
	return median(times), median(heaps), nil
}
