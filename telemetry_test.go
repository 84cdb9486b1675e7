package bvap

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"bvap/internal/hwsim"
	"bvap/internal/telemetry"
)

// TestArchitectureRoundTrip is the satellite round-trip test: parsing the
// String() form of every architecture yields the architecture back.
func TestArchitectureRoundTrip(t *testing.T) {
	if len(Architectures()) != 6 {
		t.Fatalf("Architectures() = %d entries, want 6", len(Architectures()))
	}
	for _, a := range Architectures() {
		got, err := ParseArchitecture(a.String())
		if err != nil {
			t.Errorf("ParseArchitecture(%q): %v", a.String(), err)
			continue
		}
		if got != a {
			t.Errorf("ParseArchitecture(%q) = %v, want %v", a.String(), got, a)
		}
		// Case-insensitive.
		if got, err := ParseArchitecture(strings.ToUpper(a.String())); err != nil || got != a {
			t.Errorf("ParseArchitecture(upper %q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseArchitecture("tpu"); err == nil {
		t.Error("unknown architecture accepted")
	}
}

// telemetryWorkload builds a small but stage-diverse workload: bounded
// repetitions (BVM read/swap traffic), an unfold-threshold pattern, and a
// split pattern whose bound exceeds K.
func telemetryWorkload(t *testing.T) ([]string, []byte) {
	t.Helper()
	patterns := []string{"ab{50}c", "x.{10}y", "a{3}b", "k{200}m"}
	d, err := DatasetByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	return patterns, d.Input(16384, patterns)
}

// TestStageEnergyConservation is the acceptance-criterion test: the
// per-stage energies streamed into a TelemetrySink must sum to the
// simulator's terminal Stats.TotalEnergyPJ() within 0.1%, and the sink's
// symbol/cycle/match counters must equal the Result's.
func TestStageEnergyConservation(t *testing.T) {
	patterns, input := telemetryWorkload(t)
	for _, arch := range Architectures() {
		t.Run(arch.String(), func(t *testing.T) {
			var sim *Simulator
			var err error
			switch arch {
			case ArchBVAP, ArchBVAPStreaming:
				engine, cerr := Compile(patterns)
				if cerr != nil {
					t.Fatal(cerr)
				}
				sim, err = engine.NewSimulator(arch)
			default:
				sim, err = NewBaselineSimulator(arch, patterns)
			}
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			sink := sim.Instrument(reg)
			sim.Run(input)
			r := sim.Result()

			var totalPJ float64
			if sim.bvapSys != nil {
				totalPJ = sim.bvapSys.Stats().TotalEnergyPJ()
			} else {
				totalPJ = sim.baseSys.Stats().TotalEnergyPJ()
			}
			stagePJ := sink.TotalStageEnergyPJ()
			if totalPJ <= 0 {
				t.Fatalf("no energy recorded (total = %v)", totalPJ)
			}
			if rel := math.Abs(stagePJ-totalPJ) / totalPJ; rel > 0.001 {
				t.Errorf("stage sum %.6f pJ vs total %.6f pJ (rel err %.5f > 0.1%%)",
					stagePJ, totalPJ, rel)
			}

			// The sink's step counters agree with the Result.
			snap := map[string]telemetry.Sample{}
			for _, s := range reg.Snapshot() {
				if len(s.Labels) == 0 {
					snap[s.Name] = s
				}
			}
			for name, want := range map[string]uint64{
				hwsim.MetricSymbols: r.Symbols,
				hwsim.MetricCycles:  r.Cycles,
				hwsim.MetricMatches: r.Matches,
			} {
				s, ok := snap[name]
				if !ok {
					t.Fatalf("metric %s missing from snapshot", name)
				}
				if uint64(s.Value) != want {
					t.Errorf("%s = %v, want %d", name, s.Value, want)
				}
			}
			if r.Matches == 0 {
				t.Error("workload produced no matches; conservation test is too weak")
			}
		})
	}
}

// TestSimulatorSinkRepeatedFinish pins the delta-reporting contract: the
// terminal stages (io_buffer, leakage) are reported to the sink as deltas,
// so repeated Finish calls keep the sink's stage totals consistent with
// Stats.TotalEnergyPJ() instead of double-charging.
func TestSimulatorSinkRepeatedFinish(t *testing.T) {
	patterns, input := telemetryWorkload(t)
	engine, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSimulator(ArchBVAP)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sink := sim.Instrument(reg)
	sim.Run(input)
	for i := 0; i < 3; i++ {
		sim.bvapSys.Finish()
		total := sim.bvapSys.Stats().TotalEnergyPJ()
		stage := sink.TotalStageEnergyPJ()
		if rel := math.Abs(stage-total) / total; rel > 0.001 {
			t.Fatalf("after Finish #%d: stage sum %.6f vs total %.6f (rel err %.5f)",
				i+1, stage, total, rel)
		}
	}
}

// TestCompileTelemetry exercises WithMetrics and WithTracer end to end:
// phase counters and rewrite decisions accrue, and the emitted Chrome trace
// is valid JSON with the pipeline's phase spans.
func TestCompileTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf, telemetry.FormatChrome)
	patterns := []string{"ab{50}c", "a{3}b", "k{200}m", "(unclosed"}
	if _, err := Compile(patterns, WithMetrics(reg), WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	byName := map[string]telemetry.Sample{}
	for _, s := range reg.Snapshot() {
		key := s.Name
		for _, v := range s.Labels {
			key += "/" + v
		}
		byName[key] = s
	}
	if got := byName["bvap_compile_patterns_total"].Value; got != 4 {
		t.Errorf("patterns_total = %v, want 4", got)
	}
	if got := byName["bvap_compile_unsupported_total"].Value; got != 1 {
		t.Errorf("unsupported_total = %v, want 1", got)
	}
	// a{3}b is below the default unfold threshold (8); k{200}m exceeds the
	// default K (64) and splits; ab{50}c and k{200}m keep BV-STEs.
	if got := byName["bvap_compile_rewrite_total/unfold"].Value; got < 1 {
		t.Errorf("unfold decisions = %v, want >= 1", got)
	}
	if got := byName["bvap_compile_rewrite_total/split"].Value; got < 1 {
		t.Errorf("split decisions = %v, want >= 1", got)
	}
	if got := byName["bvap_compile_rewrite_total/counted"].Value; got < 1 {
		t.Errorf("counted decisions = %v, want >= 1", got)
	}
	// Every phase accrued wall time.
	for _, phase := range []string{"parse", "rewrite", "glushkov", "ah", "instruction-selection", "tile-mapping"} {
		s, ok := byName["bvap_compile_phase_seconds_total/"+phase]
		if !ok {
			t.Errorf("phase %q missing", phase)
			continue
		}
		if s.Value < 0 {
			t.Errorf("phase %q seconds = %v", phase, s.Value)
		}
	}

	raw := buf.Bytes()
	if !json.Valid(raw) {
		t.Fatalf("invalid compile trace: %s", raw)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, want := range []string{"parse", "rewrite", "glushkov", "ah", "instruction-selection", "tile-mapping", "rewrite_decision", "tile_mapping"} {
		if !seen[want] {
			t.Errorf("compile trace missing %q event", want)
		}
	}
}

// TestStreamInstrument checks the engine-level counters: symbols, matches
// and the occupancy gauge accrue on an instrumented stream and match an
// uninstrumented reference run.
func TestStreamInstrument(t *testing.T) {
	patterns, input := telemetryWorkload(t)
	engine, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	wantMatches := engine.Count(input)

	reg := telemetry.NewRegistry()
	s := engine.NewStream()
	s.Instrument(reg)
	got := 0
	for _, b := range input {
		got += len(s.Step(b))
	}
	if got != wantMatches {
		t.Fatalf("instrumented stream found %d matches, reference %d", got, wantMatches)
	}
	byName := map[string]float64{}
	for _, smp := range reg.Snapshot() {
		byName[smp.Name] = smp.Value
	}
	if v := byName[MetricEngineSymbols]; v != float64(len(input)) {
		t.Errorf("%s = %v, want %d", MetricEngineSymbols, v, len(input))
	}
	if v := byName[MetricEngineMatches]; v != float64(wantMatches) {
		t.Errorf("%s = %v, want %d", MetricEngineMatches, v, wantMatches)
	}
	if _, ok := byName[MetricEngineActiveStates]; !ok {
		t.Errorf("%s missing", MetricEngineActiveStates)
	}
	// Runner steps: at least one per symbol that moved a machine, at most
	// one per supported machine per symbol.
	supported := len(patterns) - engine.Report().Unsupported
	if v := byName[MetricEngineRunnerSteps]; v <= 0 || v > float64(len(input)*supported) {
		t.Errorf("%s = %v, want in (0, %d]", MetricEngineRunnerSteps, v, len(input)*supported)
	}
	// Detach and keep stepping: counters freeze.
	s.Instrument(nil)
	s.Step('a')
	after := telemetry.Sample{}
	for _, smp := range reg.Snapshot() {
		if smp.Name == MetricEngineSymbols {
			after = smp
		}
	}
	if after.Value != float64(len(input)) {
		t.Errorf("detached stream still counting: %v", after.Value)
	}
}
