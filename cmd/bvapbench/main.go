// Command bvapbench regenerates the tables and figures of the paper's
// evaluation (§8) and runs the canonical perf harness. Every experiment is
// declared once in the registry below; the -exp help text, the usage
// listing and the dispatch all derive from it.
//
// Usage:
//
//	bvapbench -exp <name>[,<name>...] [flags]
//	bvapbench -exp all            # every experiment except perf
//	bvapbench -exp perf -baseline testdata/bench_baseline.json
//
// Flags:
//
//	-sample N    regexes sampled per dataset (default 80; paper uses >300)
//	-inputlen N  corpus length per run (default 4096)
//	-datasets    comma-separated dataset subset (default all seven)
//
// The perf experiment writes a versioned BENCH_<n>.json report (schema in
// EXPERIMENTS.md) into the current directory (-bench-out overrides), and
// with -baseline compares the counted metrics against a previous report,
// exiting non-zero when any metric regresses beyond its threshold.
// -render adds ASCII tile-occupancy and stall heatmaps per dataset.
//
// Observability: -metrics writes the accrued telemetry counters (Prometheus
// text, or JSON with a .json suffix), -trace writes a structured trace with
// one span per experiment (Chrome trace_event JSON, or JSONL with a .jsonl
// suffix), and -pprof serves net/http/pprof, expvar and a live /metrics
// endpoint while the benchmarks run. The breakdown experiment attributes a
// run's energy to pipeline stages on the architecture chosen by -arch.
//
// The faults experiment sweeps a fault-injection rate over one dataset and
// reports what the resilience stack delivers: detection rate, window
// retries, software fallbacks, cross-check mismatches, and the energy
// overhead of parity protection plus re-execution (see -fault-* flags).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bvap"
	"bvap/internal/experiments"
	"bvap/internal/hwsim"
	"bvap/internal/obs"
	"bvap/internal/telemetry"
)

// experiment is one -exp registry entry. The registry is the single source
// of truth: usage text, the -exp help string and the dispatch loop are all
// generated from it, in declaration order (which is also the execution
// order of -exp all).
type experiment struct {
	name string
	desc string
	// inAll marks experiments included in -exp all. The perf harness is
	// excluded: its reports are only comparable at pinned parameters, so
	// it must be invoked deliberately.
	inAll bool
	run   func(a *app) error
}

func registry() []experiment {
	return []experiment{
		{"fig11", "r·a{n} micro-benchmark vs CAMA", true, (*app).runFig11},
		{"fig12", "r·a{64}·b{m} vs CNT and CAMA", true, (*app).runFig12},
		{"fig13", "design space exploration grid", true, (*app).runFig13},
		{"table5", "best-FoM parameters per dataset", true, (*app).runTable5},
		{"fig14", "real-world comparison across architectures", true, (*app).runFig14},
		{"summary", "headline aggregate claims", true, (*app).runSummary},
		{"ablation", "BVAP design-choice ablation", true, (*app).runAblation},
		{"stride2", "two-symbol stride variant", true, (*app).runStride2},
		{"faults", "fault-injection resilience sweep", true, (*app).runFaults},
		{"breakdown", "per-stage energy attribution on one dataset", true, (*app).runBreakdown},
		{"perf", "canonical perf harness → BENCH_<n>.json (+ -baseline compare)", false, (*app).runPerf},
		{"throughput", "parallel-vs-sequential scan throughput sweep → BENCH_<n>.json (+ -baseline compare)", false, (*app).runThroughput},
		{"soak", "service soak: crash/resume correctness + overload/reload churn → BENCH_<n>.json (+ -baseline compare)", false, (*app).runSoak},
		{"obs", "tracing overhead: disabled-path allocs, live throughput cost, energy-partition exactness → BENCH_<n>.json (+ -baseline compare)", false, (*app).runObs},
		{"fleetobs", "fleet observability gate: cross-node trace stitching, exact metrics federation, SLO burn-rate alerting, disabled-path allocs → BENCH_<n>.json (+ -baseline compare)", false, (*app).runFleetObs},
		{"heal", "fleet soak: gossip membership, replicated checkpoints, kill/join re-placement with NO driver-side migration, coordinated publishes, tenant quotas → BENCH_<n>.json (+ -baseline compare)", false, (*app).runHeal},
		{"rebar", "curated competitive conformance suite: verified per-engine match counts + BVAP-vs-regexp position → BENCH_<n>.json (+ -baseline compare)", false, (*app).runRebar},
	}
}

func expNames(includeAll bool) string {
	var names []string
	for _, e := range registry() {
		names = append(names, e.name)
	}
	if includeAll {
		names = append(names, "all")
	}
	return strings.Join(names, ", ")
}

// app carries the parsed flags and cross-experiment memoized state.
type app struct {
	// flags
	ablationDataset  string
	breakdownDataset string
	archName         string
	faultsDataset    string
	faultSeed        int64
	faultRates       string
	faultStreaming   bool
	faultNoParity    bool
	sample           int
	inputLen         int
	tpDataset        string
	tpInputs         int
	tpWorkers        string
	tpChunks         string
	soakDataset      string
	soakDuration     time.Duration
	soakScanners     int
	soakReloads      int
	soakRestarts     int
	obsDataset       string
	obsScans         int
	obsRounds        int
	fleetobsDataset  string
	fleetobsNodes    int
	fleetobsScans    int
	healDataset      string
	healNodes        int
	healStreams      int
	healKills        int
	healJoins        int
	healReplicas     int
	healInjectLoss   bool
	rebarDir         string
	rebarFilter      string
	rebarEngines     string
	rebarReps        int
	datasets         []string
	archs            []string
	baselinePath     string
	benchOut         string
	render           bool

	sess *obs.Session
	dump jsonResults

	// Memoized stages shared between experiments (fig13 → table5 →
	// fig14 → summary all build on the DSE).
	dse     []experiments.DSEPoint
	dseDone bool
	fig14   []experiments.Fig14Row
}

func main() {
	var a app
	exp := flag.String("exp", "all", "comma-separated experiments: "+expNames(true))
	flag.StringVar(&a.ablationDataset, "ablation-dataset", "Snort", "dataset for the -exp ablation run")
	flag.StringVar(&a.breakdownDataset, "breakdown-dataset", "Snort", "dataset for the -exp breakdown run")
	flag.StringVar(&a.archName, "arch", "bvap", "architecture for the -exp breakdown run: bvap, bvap-s, cama, ca, eap, cnt")
	flag.StringVar(&a.faultsDataset, "fault-dataset", "Snort", "dataset for the -exp faults sweep")
	flag.Int64Var(&a.faultSeed, "fault-seed", 1, "fault-injection seed for the -exp faults sweep")
	flag.StringVar(&a.faultRates, "fault-rates", "", "comma-separated per-site injection rates for -exp faults (default 0,1e-4,5e-4,2e-3,1e-2)")
	flag.BoolVar(&a.faultStreaming, "fault-streaming", false, "run the -exp faults sweep on BVAP-S (stream drop/dup faults)")
	flag.BoolVar(&a.faultNoParity, "fault-noparity", false, "disable the per-BV parity detection circuit in -exp faults")
	flag.IntVar(&a.sample, "sample", 80, "regexes sampled per dataset")
	flag.IntVar(&a.inputLen, "inputlen", 4096, "input corpus length")
	flag.StringVar(&a.tpDataset, "tp-dataset", "Snort", "dataset for the -exp throughput sweep")
	flag.IntVar(&a.tpInputs, "tp-inputs", 32, "batch pieces the -exp throughput corpus is split into")
	flag.StringVar(&a.tpWorkers, "tp-workers", "", "comma-separated worker counts for -exp throughput (default 1,2,4[,NumCPU])")
	flag.StringVar(&a.tpChunks, "tp-chunks", "", "comma-separated chunk sizes for -exp throughput (default 4096,16384)")
	flag.StringVar(&a.soakDataset, "soak-dataset", "Snort", "dataset for the -exp soak run")
	flag.DurationVar(&a.soakDuration, "soak-duration", 2*time.Second, "overload-phase wall bound for -exp soak")
	flag.IntVar(&a.soakScanners, "soak-scanners", 8, "concurrent scan goroutines for -exp soak")
	flag.IntVar(&a.soakReloads, "soak-reloads", 3, "concurrent hot reloads during the -exp soak overload phase")
	flag.IntVar(&a.soakRestarts, "soak-restarts", 4, "checkpoint/resume crash cycles in the -exp soak session phase")
	flag.StringVar(&a.obsDataset, "obs-dataset", "Snort", "dataset for the -exp obs overhead run")
	flag.IntVar(&a.obsScans, "obs-scans", 32, "timed scans per side per round in -exp obs")
	flag.IntVar(&a.obsRounds, "obs-rounds", 3, "alternating measurement rounds in -exp obs")
	flag.StringVar(&a.fleetobsDataset, "fleetobs-dataset", "Snort", "dataset for the -exp fleetobs gate")
	flag.IntVar(&a.fleetobsNodes, "fleetobs-nodes", 3, "in-process nodes in the -exp fleetobs fleet")
	flag.IntVar(&a.fleetobsScans, "fleetobs-scans", 24, "forced-forward ring-routed scans in -exp fleetobs")
	flag.StringVar(&a.healDataset, "heal-dataset", "Snort", "dataset for the -exp heal fleet soak")
	flag.IntVar(&a.healNodes, "heal-nodes", 3, "initial in-process nodes in the -exp heal fleet")
	flag.IntVar(&a.healStreams, "heal-streams", 6, "concurrent sessions in -exp heal")
	flag.IntVar(&a.healKills, "heal-kills", 1, "forced node kills during -exp heal (capped at nodes-1)")
	flag.IntVar(&a.healJoins, "heal-joins", 1, "standby nodes joining mid-stream during -exp heal")
	flag.IntVar(&a.healReplicas, "heal-replicas", 2, "checkpoint replication factor R in -exp heal")
	flag.BoolVar(&a.healInjectLoss, "heal-inject-loss", false, "force R=1 so a kill loses checkpoints; the soak must then fail (negative control)")
	flag.StringVar(&a.rebarDir, "rebar-dir", "testdata/rebar", "case-file directory for -exp rebar")
	flag.StringVar(&a.rebarFilter, "rebar-filter", "", "regexp selecting case names for -exp rebar")
	flag.StringVar(&a.rebarEngines, "rebar-engines", "", "comma-separated engine subset for -exp rebar (default: all registered engines)")
	flag.IntVar(&a.rebarReps, "rebar-reps", 2, "timed runs per (case, engine) cell in -exp rebar")
	datasetList := flag.String("datasets", "", "comma-separated dataset subset")
	archList := flag.String("archs", "", "comma-separated architecture subset for -exp perf (BVAP, BVAP-S, CAMA, CA, eAP, CNT)")
	jsonPath := flag.String("json", "", "also write the structured results as JSON to this file")
	flag.StringVar(&a.baselinePath, "baseline", "", "BENCH_<n>.json to compare the -exp perf run against (non-zero exit on regression)")
	flag.StringVar(&a.benchOut, "bench-out", "", "where -exp perf writes its report (default: next BENCH_<n>.json in the current directory)")
	flag.BoolVar(&a.render, "render", false, "print ASCII tile-occupancy and stall heatmaps during -exp perf")
	metricsPath := flag.String("metrics", "", "write telemetry metrics to this file (Prometheus text; .json for JSON)")
	tracePath := flag.String("trace", "", "write a structured trace to this file (Chrome trace_event JSON; .jsonl for JSONL)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar and /metrics on this address")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bvapbench -exp <name>[,<name>...] [flags]\n\nexperiments:\n")
		for _, e := range registry() {
			all := ""
			if !e.inAll {
				all = " (not in -exp all)"
			}
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s%s\n", e.name, e.desc, all)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *datasetList != "" {
		for _, d := range strings.Split(*datasetList, ",") {
			a.datasets = append(a.datasets, strings.TrimSpace(d))
		}
	}
	if *archList != "" {
		for _, ar := range strings.Split(*archList, ",") {
			a.archs = append(a.archs, strings.TrimSpace(ar))
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	known := map[string]bool{"all": true}
	for _, e := range registry() {
		known[e.name] = true
	}
	for name := range want {
		if !known[name] {
			fatal(fmt.Errorf("unknown experiment %q (want %s)", name, expNames(true)))
		}
	}

	sess, err := obs.Setup(*metricsPath, *tracePath, *pprofAddr)
	if err != nil {
		fatal(err)
	}
	a.sess = sess
	defer func() {
		if err := sess.Close(); err != nil {
			fatal(err)
		}
	}()

	for _, e := range registry() {
		if !(want[e.name] || (want["all"] && e.inAll)) {
			continue
		}
		end := a.span(e.name)
		err := e.run(&a)
		end()
		if err != nil {
			fatal(fmt.Errorf("%s: %v", e.name, err))
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a.dump); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// span wraps one experiment in a trace span (a no-op without -trace).
func (a *app) span(name string) func() {
	if a.sess == nil || a.sess.Tracer == nil {
		return func() {}
	}
	sp := a.sess.Tracer.Span(name, "bvapbench")
	return func() { sp.End() }
}

// ensureDSE memoizes the Fig. 13 exploration shared by fig13, table5,
// fig14 and summary.
func (a *app) ensureDSE() ([]experiments.DSEPoint, error) {
	if a.dseDone {
		return a.dse, nil
	}
	end := a.span("fig13-dse")
	defer end()
	dse, err := experiments.Fig13(experiments.DSEOptions{
		Sample:   a.sample,
		InputLen: a.inputLen / 2,
		Datasets: a.datasets,
	})
	if err != nil {
		return nil, err
	}
	a.dse, a.dseDone = dse, true
	return dse, nil
}

// ensureFig14 memoizes the real-world comparison shared by fig14 and
// summary.
func (a *app) ensureFig14() ([]experiments.Fig14Row, error) {
	if a.fig14 != nil {
		return a.fig14, nil
	}
	dse, err := a.ensureDSE()
	if err != nil {
		return nil, err
	}
	params := map[string]experiments.BestParams{}
	for _, b := range experiments.Table5(dse) {
		params[b.Dataset] = b
	}
	rows, err := experiments.Fig14(experiments.Fig14Options{
		Sample:   a.sample,
		InputLen: a.inputLen,
		Datasets: a.datasets,
		Params:   params,
	})
	if err != nil {
		return nil, err
	}
	a.fig14 = rows
	return rows, nil
}

func (a *app) runFig11() error {
	points, err := experiments.Fig11(experiments.Fig11Options{InputLen: a.inputLen * 4})
	if err != nil {
		return err
	}
	a.dump.Fig11 = points
	experiments.RenderFig11(os.Stdout, points)
	fmt.Println()
	return nil
}

func (a *app) runFig12() error {
	points, err := experiments.Fig12(experiments.Fig12Options{InputLen: a.inputLen * 4})
	if err != nil {
		return err
	}
	a.dump.Fig12 = points
	experiments.RenderFig12(os.Stdout, points)
	fmt.Println()
	return nil
}

func (a *app) runFig13() error {
	dse, err := a.ensureDSE()
	if err != nil {
		return err
	}
	a.dump.Fig13 = dse
	experiments.RenderFig13(os.Stdout, dse)
	fmt.Println()
	return nil
}

func (a *app) runTable5() error {
	dse, err := a.ensureDSE()
	if err != nil {
		return err
	}
	best := experiments.Table5(dse)
	a.dump.Table5 = best
	experiments.RenderTable5(os.Stdout, best)
	fmt.Println()
	return nil
}

func (a *app) runFig14() error {
	rows, err := a.ensureFig14()
	if err != nil {
		return err
	}
	a.dump.Fig14 = rows
	experiments.RenderFig14(os.Stdout, rows)
	fmt.Println()
	return nil
}

func (a *app) runSummary() error {
	rows, err := a.ensureFig14()
	if err != nil {
		return err
	}
	s := experiments.Summarize(rows)
	a.dump.Summary = &s
	experiments.RenderSummary(os.Stdout, s)
	fmt.Println()
	return nil
}

func (a *app) runAblation() error {
	rows, err := experiments.Ablation(experiments.AblationOptions{
		Dataset:  a.ablationDataset,
		Sample:   a.sample,
		InputLen: a.inputLen,
	})
	if err != nil {
		return err
	}
	a.dump.Ablation = rows
	experiments.RenderAblation(os.Stdout, a.ablationDataset, rows)
	return nil
}

func (a *app) runStride2() error {
	rows, err := experiments.Stride2(experiments.Stride2Options{
		Sample:   a.sample,
		InputLen: a.inputLen,
		Datasets: a.datasets,
	})
	if err != nil {
		return err
	}
	a.dump.Stride2 = rows
	fmt.Println()
	experiments.RenderStride2(os.Stdout, rows)
	return nil
}

func (a *app) runFaults() error {
	rates, err := parseRates(a.faultRates)
	if err != nil {
		return err
	}
	fopt := experiments.FaultsOptions{
		Dataset:   a.faultsDataset,
		Sample:    a.sample,
		InputLen:  a.inputLen,
		Rates:     rates,
		Seed:      a.faultSeed,
		Streaming: a.faultStreaming,
		NoParity:  a.faultNoParity,
	}
	rows, err := experiments.Faults(fopt)
	if err != nil {
		return err
	}
	a.dump.Faults = rows
	experiments.RenderFaults(os.Stdout, fopt, rows)
	fmt.Println()
	return nil
}

// runPerf runs the canonical perf harness, writes the versioned BENCH
// report, and — when -baseline names a previous report — compares the
// counted metrics and fails on any regression beyond the thresholds.
func (a *app) runPerf() error {
	opt := experiments.PerfOptions{
		Datasets: a.datasets,
		Archs:    a.archs,
		Sample:   a.sample,
		InputLen: a.inputLen,
	}
	if a.render {
		opt.RenderTo = os.Stdout
	}
	rep, err := experiments.Perf(opt)
	if err != nil {
		return err
	}
	a.dump.Perf = rep
	experiments.RenderPerf(os.Stdout, rep)
	return a.archiveBench(rep)
}

// runThroughput runs the parallel-scan throughput sweep, writes its
// BENCH-schema report, and — when -baseline names a previous throughput
// report — compares the counted metrics (symbols and matches exactly,
// allocations within the bounded threshold) against it.
func (a *app) runThroughput() error {
	workers, err := parseIntList(a.tpWorkers)
	if err != nil {
		return fmt.Errorf("-tp-workers: %v", err)
	}
	chunks, err := parseIntList(a.tpChunks)
	if err != nil {
		return fmt.Errorf("-tp-chunks: %v", err)
	}
	opt := experiments.ThroughputOptions{
		Dataset:  a.tpDataset,
		Sample:   a.sample,
		InputLen: a.inputLen,
		Inputs:   a.tpInputs,
		Workers:  workers,
		Chunks:   chunks,
	}
	res, rep, err := experiments.Throughput(opt)
	if err != nil {
		return err
	}
	a.dump.Throughput = res
	experiments.RenderThroughput(os.Stdout, res)
	return a.archiveBench(rep)
}

// runSoak exercises the long-lived scan service: a checkpoint/resume
// session interrupted by forced restarts (exact-report correctness), then
// an overload phase with concurrent scanners and hot reloads. The counted
// correctness cell goes into a BENCH-schema report; -baseline compares it
// against a previous soak run.
func (a *app) runSoak() error {
	opt := experiments.SoakOptions{
		Dataset:  a.soakDataset,
		Sample:   a.sample,
		InputLen: a.inputLen,
		Restarts: a.soakRestarts,
		Duration: a.soakDuration,
		Scanners: a.soakScanners,
		Reloads:  a.soakReloads,
	}
	res, rep, err := experiments.Soak(opt)
	if err != nil {
		return err
	}
	a.dump.Soak = res
	experiments.RenderSoak(os.Stdout, res)
	return a.archiveBench(rep)
}

// runObs measures the observability layer's own cost: the disabled-path
// allocation contract (counted, pinned at zero), the live throughput
// overhead of an attached flight recorder (informational), and the
// bit-exactness of the traced energy partition (counted). The report goes
// into a BENCH-schema file; -baseline compares a previous obs run.
func (a *app) runObs() error {
	opt := experiments.ObsOptions{
		Dataset:  a.obsDataset,
		Sample:   a.sample,
		InputLen: a.inputLen,
		Scans:    a.obsScans,
		Rounds:   a.obsRounds,
	}
	res, rep, err := experiments.Obs(opt)
	if err != nil {
		return err
	}
	a.dump.Obs = res
	experiments.RenderObs(os.Stdout, res)
	return a.archiveBench(rep)
}

// runHeal runs the self-healing soak: gossip membership with a standby
// joining and a node force-killed mid-stream, exactly-once delivery
// recovered purely through replicated checkpoints and session sync (no
// driver-side migration). With -heal-inject-loss the run MUST fail — CI
// pins the non-zero exit as the negative control.
func (a *app) runHeal() error {
	opt := experiments.HealSoakOptions{
		Dataset:    a.healDataset,
		Nodes:      a.healNodes,
		Streams:    a.healStreams,
		Kills:      a.healKills,
		Joins:      a.healJoins,
		Replicas:   a.healReplicas,
		InjectLoss: a.healInjectLoss,
		Sample:     a.sample,
		InputLen:   a.inputLen,
	}
	res, rep, err := experiments.HealSoak(opt)
	if err != nil {
		return err
	}
	a.dump.Heal = res
	experiments.RenderHealSoak(os.Stdout, res)
	return a.archiveBench(rep)
}

// runRebar runs the curated competitive conformance suite: every case's
// declared per-engine match count is asserted before any timing is
// trusted, the cells go into a BENCH-schema report, and any count
// mismatch fails the run after the report is rendered and written.
func (a *app) runRebar() error {
	var engines []string
	if strings.TrimSpace(a.rebarEngines) != "" {
		for _, e := range strings.Split(a.rebarEngines, ",") {
			engines = append(engines, strings.TrimSpace(e))
		}
	}
	res, rep, err := experiments.Rebar(experiments.RebarOptions{
		Dir:     a.rebarDir,
		Filter:  a.rebarFilter,
		Engines: engines,
		Reps:    a.rebarReps,
	})
	if err != nil && res == nil {
		return err // load/config error: nothing to render
	}
	a.dump.Rebar = res
	experiments.RenderRebar(os.Stdout, res)
	aerr := a.archiveBench(rep)
	if err != nil {
		return err // count mismatches: non-zero exit after archiving the run
	}
	return aerr
}

// archiveBench writes rep to -bench-out (default: the next BENCH_<n>.json
// in the current directory) and, when -baseline names a previous report,
// compares the counted metrics and fails on any regression beyond the
// thresholds.
func (a *app) archiveBench(rep *experiments.BenchReport) error {
	out := a.benchOut
	if out == "" {
		var err error
		if out, err = experiments.NextBenchPath("."); err != nil {
			return err
		}
	}
	if err := experiments.WriteBenchReport(out, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if a.baselinePath == "" {
		return nil
	}
	base, err := experiments.ReadBenchReport(a.baselinePath)
	if err != nil {
		return err
	}
	regs := experiments.CompareBench(rep, base, experiments.Thresholds{})
	experiments.RenderRegressions(os.Stdout, regs)
	if len(regs) > 0 {
		return fmt.Errorf("%d counted metric(s) regressed vs %s", len(regs), a.baselinePath)
	}
	return nil
}

// parseIntList parses a comma-separated list of positive ints; an empty
// string selects the experiment's defaults (nil).
func parseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad entry %q (want positive integers)", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// runFleetObs runs the fleet observability gate: cross-node trace
// stitching with zero orphans, exact metrics federation, SLO burn-rate
// fire/resolve on an injected regression, and the zero-alloc disabled
// tracing path.
func (a *app) runFleetObs() error {
	opt := experiments.FleetObsOptions{
		Dataset:  a.fleetobsDataset,
		Nodes:    a.fleetobsNodes,
		Scans:    a.fleetobsScans,
		Sample:   a.sample,
		InputLen: a.inputLen,
	}
	res, rep, err := experiments.FleetObs(opt)
	if err != nil {
		return err
	}
	a.dump.FleetObs = res
	experiments.RenderFleetObs(os.Stdout, res)
	return a.archiveBench(rep)
}

// jsonResults is the machine-readable form of a bvapbench run, for plotting
// the figures outside this repository.
type jsonResults struct {
	Fig11      []experiments.Fig11Point      `json:"fig11,omitempty"`
	Fig12      []experiments.Fig12Point      `json:"fig12,omitempty"`
	Fig13      []experiments.DSEPoint        `json:"fig13,omitempty"`
	Table5     []experiments.BestParams      `json:"table5,omitempty"`
	Fig14      []experiments.Fig14Row        `json:"fig14,omitempty"`
	Summary    *experiments.Summary          `json:"summary,omitempty"`
	Ablation   []experiments.AblationRow     `json:"ablation,omitempty"`
	Stride2    []experiments.Stride2Row      `json:"stride2,omitempty"`
	Faults     []experiments.FaultsRow       `json:"faults,omitempty"`
	Perf       *experiments.BenchReport      `json:"perf,omitempty"`
	Throughput *experiments.ThroughputResult `json:"throughput,omitempty"`
	Soak       *experiments.SoakResult       `json:"soak,omitempty"`
	Obs        *experiments.ObsResult        `json:"obs,omitempty"`
	FleetObs   *experiments.FleetObsResult   `json:"fleetobs,omitempty"`
	Heal       *experiments.HealSoakResult   `json:"heal,omitempty"`
	Rebar      *experiments.RebarResult      `json:"rebar,omitempty"`
}

// parseRates parses the -fault-rates list; an empty string selects the
// experiment's default sweep.
func parseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -fault-rates entry %q: %v", f, err)
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("bad -fault-rates entry %q: rate must be in [0, 1]", f)
		}
		out = append(out, r)
	}
	return out, nil
}

// runBreakdown replays one dataset on the architecture named by -arch with
// a per-stage telemetry sink attached and prints the energy attribution
// table: which pipeline stage (state match, transition, BVM read/swap,
// MFCB routing, I/O buffering, leakage...) consumed which share.
func (a *app) runBreakdown() error {
	arch, err := bvap.ParseArchitecture(a.archName)
	if err != nil {
		return err
	}
	d, err := bvap.DatasetByName(a.breakdownDataset)
	if err != nil {
		return err
	}
	patterns := d.Patterns(a.sample)
	input := d.Input(a.inputLen, patterns)

	var sim *bvap.Simulator
	switch arch {
	case bvap.ArchBVAP, bvap.ArchBVAPStreaming:
		engine, err := bvap.Compile(patterns,
			bvap.WithMetrics(a.sess.Registry), bvap.WithTracer(a.sess.Tracer))
		if err != nil {
			return err
		}
		sim, err = engine.NewSimulator(arch)
		if err != nil {
			return err
		}
	default:
		sim, err = bvap.NewBaselineSimulator(arch, patterns)
		if err != nil {
			return err
		}
	}

	reg := a.sess.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	sink := hwsim.NewTelemetrySink(reg)
	sim.SetSink(sink)
	sim.Run(input)
	r := sim.Result()

	total := sink.TotalStageEnergyPJ()
	fmt.Printf("energy attribution: %s over %s (%d regexes, %d bytes)\n",
		arch, a.breakdownDataset, len(patterns), len(input))
	fmt.Printf("%-14s %16s %8s\n", "stage", "energy(pJ)", "share")
	for s := hwsim.Stage(0); s < hwsim.NumStages; s++ {
		pj := sink.StageEnergyPJ(s)
		if pj == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * pj / total
		}
		fmt.Printf("%-14s %16.2f %7.2f%%\n", s, pj, share)
	}
	fmt.Printf("%-14s %16.2f\n", "total", total)
	fmt.Printf("%s\n", r)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bvapbench:", err)
	os.Exit(1)
}
