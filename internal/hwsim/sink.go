package hwsim

// Per-stage instrumentation of the simulated pipeline. The evaluation's
// attribution question — which stage (state match, state transition, BVM
// read/swap, MFCB routing, I/O buffering...) consumes which share of the
// energy and cycles — is answered by streaming per-step events into a Sink
// instead of only reading the terminal Stats aggregate.
//
// The contract is zero overhead when disabled: every emission site guards
// on a single nil check, and the simulators allocate nothing extra on the
// Step hot path when no sink is attached (pinned by
// BenchmarkTelemetryOverhead at the repository root).

import (
	"fmt"
	"strconv"

	"bvap/internal/telemetry"
)

// Stage identifies one pipeline stage of the modeled hardware for energy
// attribution. The stages partition Stats' energy breakdown exactly: the
// per-stage energies a Sink observes sum to Stats.TotalEnergyPJ().
type Stage int

const (
	// StageMatch is the state-matching circuit (CAM / SRAM rows).
	StageMatch Stage = iota
	// StageTransition is the state-transition crossbar (RCB or FCB).
	StageTransition
	// StageBVMRead is the Bit Vector Module's Read step.
	StageBVMRead
	// StageBVMSwap is the BVM's Swap step (vector transform + writeback).
	StageBVMSwap
	// StageBVMReset charges bit-vector resets on BV deactivation.
	StageBVMReset
	// StageBVMIdle is the idle BVM phase clocked in always-on modes
	// (BVAP-S, or the event-driven-clocking ablation).
	StageBVMIdle
	// StageRouting is the MFCB routing overhead of the Swap step beyond
	// the semi-parallel baseline (serial/parallel ablations).
	StageRouting
	// StageWire is the global wire energy.
	StageWire
	// StageCounter is the counter-element energy (CNT baseline only).
	StageCounter
	// StageIOBuffer is the bank/array input and report buffering energy.
	StageIOBuffer
	// StageLeakage is leakage over the run's cycle count.
	StageLeakage
	// StageParity is the per-BV parity protection surcharge (fault
	// detection; zero on unprotected runs).
	StageParity

	// NumStages is the number of attribution stages.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageMatch:
		return "match"
	case StageTransition:
		return "transition"
	case StageBVMRead:
		return "bvm_read"
	case StageBVMSwap:
		return "bvm_swap"
	case StageBVMReset:
		return "bvm_reset"
	case StageBVMIdle:
		return "bvm_idle"
	case StageRouting:
		return "mfcb_routing"
	case StageWire:
		return "wire"
	case StageCounter:
		return "counter"
	case StageIOBuffer:
		return "io_buffer"
	case StageLeakage:
		return "leakage"
	case StageParity:
		return "parity"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Sink observes per-step simulation events. Implementations must be cheap:
// the simulators call into the sink on every symbol of an instrumented
// run. A nil Sink disables instrumentation entirely.
//
// Sinks are driven from the simulator's goroutine only; they do not need
// to be safe for concurrent use by the simulator (TelemetrySink's backing
// metrics are nevertheless atomically updated, so concurrent *readers* —
// an expvar or pprof HTTP handler — are safe).
type Sink interface {
	// StageEnergy attributes pj picojoules to one pipeline stage. Called
	// zero or more times per Step, plus once per terminal stage
	// (io_buffer, leakage) from Finish.
	StageEnergy(stage Stage, pj float64)
	// StallCycles reports array's stall cycles for the current step
	// (zero included, so stall histograms have a denominator).
	StallCycles(array int, cycles int)
	// StepDone closes one symbol's accounting: the step's cycle cost
	// (1 + stalls), the active-state occupancy across machines, and the
	// number of pattern matches that ended at this symbol.
	StepDone(cycles int, activeStates float64, matches int)
}

// StallCause classifies why the pipeline lost cycles on a step.
type StallCause int

const (
	// StallBVM counts Global-Controller stalls for the BVM phase (§6):
	// whole-system cycles, set by the slowest array.
	StallBVM StallCause = iota
	// StallIOInput counts input-FIFO starvation, in array-cycles (several
	// arrays can starve on the same system cycle).
	StallIOInput
	// StallIOOutput counts report-path congestion, in array-cycles.
	StallIOOutput

	// NumStallCauses is the number of stall causes.
	NumStallCauses
)

func (c StallCause) String() string {
	switch c {
	case StallBVM:
		return "bvm"
	case StallIOInput:
		return "io_input"
	case StallIOOutput:
		return "io_output"
	}
	return fmt.Sprintf("StallCause(%d)", int(c))
}

// ProvenanceSink is an optional extension of Sink carrying the per-machine
// and per-tile provenance the activity profiler needs: which machine (and
// thereby which source pattern) and which tile each event belongs to.
// SetSink detects the extension with a one-time type assertion, so the
// per-step cost is the same single nil check as the base interface; the
// extra per-machine emissions run only when the attached sink implements
// this interface.
//
// The extended events carry *weights*, not an exact energy partition: the
// per-machine stage energies sum to the corresponding Sink.StageEnergy
// totals only up to float association error. Exact conservation is the
// attribution layer's job (profile.Attribute), which partitions the
// terminal Stats directly.
type ProvenanceSink interface {
	Sink
	// MachineStageEnergy attributes pj picojoules of one stage to machine
	// m (the config/machine index, which equals the source-pattern index).
	MachineStageEnergy(m int, stage Stage, pj float64)
	// MachineActivity reports machine m's post-step active-state count
	// and the ids of the active states. ids is the simulator's scratch
	// buffer: valid only for the duration of the call, in the runner's
	// deterministic commit order. It may be nil when the machine is idle.
	// BVAPSystem reports it for the machines stepped on a symbol (see
	// nbva.Dispatch); a machine it does not report had no active state.
	// MachineStageEnergy likewise arrives only for stepped machines.
	MachineActivity(m int, active int, ids []int)
	// TileActivity reports tile t's active-STE occupancy for this step
	// (fractional: machines spanning several tiles split their activity by
	// STE share).
	TileActivity(t int, active float64)
	// Stall reports this step's lost cycles by cause. StallBVM is in
	// system cycles; the I/O causes are in array-cycles (see StallCause).
	Stall(cause StallCause, cycles int)
}

// FanOut combines sinks into one: every event is forwarded to each member
// in order. Nil members are dropped; with zero non-nil members FanOut
// returns nil (= instrumentation off), and a single member is returned
// unwrapped. When at least one member implements ProvenanceSink the
// combined sink does too, forwarding the extended events to the members
// that accept them.
func FanOut(sinks ...Sink) Sink {
	var base []Sink
	var prov []ProvenanceSink
	for _, k := range sinks {
		if k == nil {
			continue
		}
		base = append(base, k)
		if pk, ok := k.(ProvenanceSink); ok {
			prov = append(prov, pk)
		}
	}
	switch {
	case len(base) == 0:
		return nil
	case len(base) == 1:
		return base[0]
	case len(prov) == 0:
		return &multiSink{sinks: base}
	}
	return &provMultiSink{multiSink{sinks: base}, prov}
}

type multiSink struct{ sinks []Sink }

func (m *multiSink) StageEnergy(stage Stage, pj float64) {
	for _, k := range m.sinks {
		k.StageEnergy(stage, pj)
	}
}

func (m *multiSink) StallCycles(array int, cycles int) {
	for _, k := range m.sinks {
		k.StallCycles(array, cycles)
	}
}

func (m *multiSink) StepDone(cycles int, activeStates float64, matches int) {
	for _, k := range m.sinks {
		k.StepDone(cycles, activeStates, matches)
	}
}

type provMultiSink struct {
	multiSink
	prov []ProvenanceSink
}

func (m *provMultiSink) MachineStageEnergy(mi int, stage Stage, pj float64) {
	for _, k := range m.prov {
		k.MachineStageEnergy(mi, stage, pj)
	}
}

func (m *provMultiSink) MachineActivity(mi int, active int, ids []int) {
	for _, k := range m.prov {
		k.MachineActivity(mi, active, ids)
	}
}

func (m *provMultiSink) TileActivity(t int, active float64) {
	for _, k := range m.prov {
		k.TileActivity(t, active)
	}
}

func (m *provMultiSink) Stall(cause StallCause, cycles int) {
	for _, k := range m.prov {
		k.Stall(cause, cycles)
	}
}

// Metric names exposed by TelemetrySink.
const (
	MetricStageEnergy  = "bvap_stage_energy_picojoules_total"
	MetricStallCycles  = "bvap_stall_cycles"
	MetricSymbols      = "bvap_sim_symbols_total"
	MetricCycles       = "bvap_sim_cycles_total"
	MetricMatches      = "bvap_sim_matches_total"
	MetricActiveStates = "bvap_sim_active_states"
	MetricOccupancy    = "bvap_sim_active_states_distribution"
)

// TelemetrySink adapts a telemetry.Registry (and optionally a Tracer) to
// the Sink interface: per-stage energy float counters, per-array stall
// histograms, step/cycle/match counters, an active-state occupancy gauge
// and distribution, and — when a tracer is attached — a per-cycle Chrome
// counter track of active-state occupancy on a virtual (cycle-number) time
// axis.
type TelemetrySink struct {
	stages [NumStages]*telemetry.FloatCounter

	stallVec *telemetry.HistogramVec
	stalls   []*telemetry.Histogram // resolved per array index

	symbols   *telemetry.Counter
	cycles    *telemetry.Counter
	matches   *telemetry.Counter
	active    *telemetry.Gauge
	occupancy *telemetry.Histogram

	tracer      *telemetry.Tracer
	sampleEvery uint64
	steps       uint64
	cycleClock  uint64
}

// NewTelemetrySink registers the simulator metric families on reg and
// returns a sink feeding them.
func NewTelemetrySink(reg *telemetry.Registry) *TelemetrySink {
	k := &TelemetrySink{
		stallVec: reg.HistogramVec(MetricStallCycles,
			"per-step BVM stall cycles by array", telemetry.DefaultStallBuckets, "array"),
		symbols: reg.Counter(MetricSymbols, "input symbols processed"),
		cycles:  reg.Counter(MetricCycles, "system-clock cycles including stalls"),
		matches: reg.Counter(MetricMatches, "pattern matches reported"),
		active:  reg.Gauge(MetricActiveStates, "active NFA states after the last step"),
		occupancy: reg.Histogram(MetricOccupancy,
			"distribution of per-step active-state occupancy", telemetry.DefaultStallBuckets),
	}
	stageVec := reg.FloatCounterVec(MetricStageEnergy,
		"energy attributed to each pipeline stage, in picojoules", "stage")
	for s := Stage(0); s < NumStages; s++ {
		k.stages[s] = stageVec.With(s.String())
	}
	return k
}

// TraceOccupancy attaches a tracer that receives a per-cycle counter track
// of active-state occupancy, sampled every `every` steps (every < 1 is
// treated as 1). The track's time axis is the simulated cycle count.
func (k *TelemetrySink) TraceOccupancy(tr *telemetry.Tracer, every int) {
	if every < 1 {
		every = 1
	}
	k.tracer = tr
	k.sampleEvery = uint64(every)
}

// StageEnergy implements Sink.
func (k *TelemetrySink) StageEnergy(stage Stage, pj float64) {
	if stage < 0 || stage >= NumStages {
		return
	}
	k.stages[stage].Add(pj)
}

// StageEnergyPJ returns the energy attributed to a stage so far.
func (k *TelemetrySink) StageEnergyPJ(stage Stage) float64 {
	if stage < 0 || stage >= NumStages {
		return 0
	}
	return k.stages[stage].Value()
}

// TotalStageEnergyPJ sums the per-stage energy counters; on a finished run
// it equals Stats.TotalEnergyPJ() up to float association error.
func (k *TelemetrySink) TotalStageEnergyPJ() float64 {
	total := 0.0
	for s := Stage(0); s < NumStages; s++ {
		total += k.stages[s].Value()
	}
	return total
}

// StallCycles implements Sink.
func (k *TelemetrySink) StallCycles(array int, cycles int) {
	for array >= len(k.stalls) {
		k.stalls = append(k.stalls, k.stallVec.With(strconv.Itoa(len(k.stalls))))
	}
	k.stalls[array].Observe(float64(cycles))
}

// StepDone implements Sink.
func (k *TelemetrySink) StepDone(cycles int, activeStates float64, matches int) {
	k.symbols.Inc()
	k.cycles.Add(uint64(cycles))
	if matches > 0 {
		k.matches.Add(uint64(matches))
	}
	k.active.Set(activeStates)
	k.occupancy.Observe(activeStates)
	k.cycleClock += uint64(cycles)
	k.steps++
	if k.tracer != nil && k.steps%k.sampleEvery == 0 {
		k.tracer.CounterAt(float64(k.cycleClock), "active_states",
			map[string]float64{"states": activeStates})
	}
}
