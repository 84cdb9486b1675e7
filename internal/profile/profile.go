// Package profile implements the hardware activity profiler: a
// hwsim.ProvenanceSink that accumulates per-tile occupancy and stall-cause
// heatmaps, per-STE activation counts with source-regex provenance (hot
// states), and per-machine stage-energy weights from which per-pattern
// energy attribution exactly partitions the terminal Stats.
//
// Attach one with Simulator.SetSink (or combine with other sinks through
// hwsim.FanOut). The profiler is driven from the simulator's goroutine and
// is not safe for concurrent mutation; read it after Finish.
package profile

import (
	"bvap/internal/hwconf"
	"bvap/internal/hwsim"
)

// Options configures a Profiler. The zero value selects the defaults.
type Options struct {
	// Buckets is the number of cycle buckets per heatmap row (default 64,
	// rounded up to even). Memory is O(rows × Buckets) regardless of run
	// length: buckets widen as the run grows.
	Buckets int
	// TopK is the default hot-state ranking depth (default 10).
	TopK int
}

const (
	defaultBuckets = 64
	defaultTopK    = 10
)

func (o Options) withDefaults() Options {
	if o.Buckets <= 0 {
		o.Buckets = defaultBuckets
	}
	if o.TopK <= 0 {
		o.TopK = defaultTopK
	}
	return o
}

// Profiler accumulates activity, stall and energy provenance from one
// simulated run. It implements hwsim.ProvenanceSink.
type Profiler struct {
	opt       Options
	patterns  []string
	supported []bool
	steCount  []int // static STE count per machine (0 when unknown)
	prov      *hwconf.ProvenanceIndex

	cycles  uint64 // virtual clock, advanced by StepDone
	symbols uint64
	matches uint64

	stageEnergy [hwsim.NumStages]float64
	stallTotals [hwsim.NumStallCauses]uint64

	occupancy *Heatmap // 1 row: aggregate active states per step
	tileHeat  *Heatmap // rows = tiles; nil when the image has no placement
	stallHeat *Heatmap // rows = stall causes

	// machineActivity[i] is the accumulated post-step active-state count
	// of machine i ("active-state steps"), the activity-share weight.
	machineActivity []uint64
	// machineStage[i][s] is the energy machine i's events attributed to
	// stage s (BVM, counter, parity...). Weights for attribution, not an
	// exact partition.
	machineStage [][]float64
	// steActivations[i][q] counts how often STE q of machine i was active
	// after a step; rows grow lazily to the highest id seen.
	steActivations [][]uint64
}

var _ hwsim.ProvenanceSink = (*Profiler)(nil)

// New builds a profiler for a compiled configuration: pattern names, static
// STE counts, tile rows and the pattern↔tile provenance decoder all come
// from the image.
func New(cfg *hwconf.Config, opt Options) *Profiler {
	opt = opt.withDefaults()
	p := &Profiler{
		opt:       opt,
		prov:      cfg.ProvenanceIndex(),
		occupancy: newHeatmap(1, opt.Buckets),
		stallHeat: newHeatmap(int(hwsim.NumStallCauses), opt.Buckets),
	}
	for i := range cfg.Machines {
		m := &cfg.Machines[i]
		p.patterns = append(p.patterns, m.Regex)
		p.supported = append(p.supported, m.Unsupported == "")
		p.steCount = append(p.steCount, len(m.STEs))
	}
	if len(cfg.Tiles) > 0 {
		p.tileHeat = newHeatmap(len(cfg.Tiles), opt.Buckets)
	}
	p.grow(len(p.patterns))
	// Pre-size the per-STE activation counters so the hot path never
	// appends for well-formed runs.
	for i, n := range p.steCount {
		if n > 0 {
			p.steActivations[i] = make([]uint64, n)
		}
	}
	return p
}

// NewForPatterns builds a profiler for runs without a hardware image (the
// baseline architectures): pattern provenance only, no tile heatmap and no
// STE→tile resolution.
func NewForPatterns(patterns []string, opt Options) *Profiler {
	opt = opt.withDefaults()
	p := &Profiler{
		opt:       opt,
		occupancy: newHeatmap(1, opt.Buckets),
		stallHeat: newHeatmap(int(hwsim.NumStallCauses), opt.Buckets),
	}
	for _, pat := range patterns {
		p.patterns = append(p.patterns, pat)
		p.supported = append(p.supported, true)
		p.steCount = append(p.steCount, 0)
	}
	p.grow(len(p.patterns))
	return p
}

// grow extends the per-machine accumulators to cover machine index n-1.
func (p *Profiler) grow(n int) {
	for len(p.machineActivity) < n {
		p.machineActivity = append(p.machineActivity, 0)
		p.machineStage = append(p.machineStage, make([]float64, hwsim.NumStages))
		p.steActivations = append(p.steActivations, nil)
	}
	for len(p.patterns) < n {
		p.patterns = append(p.patterns, "")
		p.supported = append(p.supported, true)
		p.steCount = append(p.steCount, 0)
	}
}

// StageEnergy implements hwsim.Sink.
func (p *Profiler) StageEnergy(stage hwsim.Stage, pj float64) {
	if stage < 0 || stage >= hwsim.NumStages {
		return
	}
	p.stageEnergy[stage] += pj
}

// StallCycles implements hwsim.Sink. Per-array stalls are already covered
// by the cause-resolved Stall events, so this is a no-op.
func (p *Profiler) StallCycles(array, cycles int) {}

// StepDone implements hwsim.Sink: it closes the step's accounting and
// advances the profiler's virtual cycle clock. All other events of a step
// arrive before StepDone and are stamped with the pre-step clock.
func (p *Profiler) StepDone(cycles int, activeStates float64, matches int) {
	p.symbols++
	if matches > 0 {
		p.matches += uint64(matches)
	}
	p.occupancy.add(0, p.cycles, activeStates)
	if cycles > 0 {
		p.cycles += uint64(cycles)
	}
}

// MachineStageEnergy implements hwsim.ProvenanceSink.
func (p *Profiler) MachineStageEnergy(m int, stage hwsim.Stage, pj float64) {
	if m < 0 || stage < 0 || stage >= hwsim.NumStages {
		return
	}
	p.grow(m + 1)
	p.machineStage[m][stage] += pj
}

// MachineActivity implements hwsim.ProvenanceSink.
func (p *Profiler) MachineActivity(m int, active int, ids []int) {
	if m < 0 {
		return
	}
	p.grow(m + 1)
	if active > 0 {
		p.machineActivity[m] += uint64(active)
	}
	if len(ids) == 0 {
		return
	}
	counts := p.steActivations[m]
	for _, q := range ids {
		if q < 0 {
			continue
		}
		for q >= len(counts) {
			counts = append(counts, 0)
		}
		counts[q]++
	}
	p.steActivations[m] = counts
}

// TileActivity implements hwsim.ProvenanceSink.
func (p *Profiler) TileActivity(t int, active float64) {
	p.tileHeat.add(t, p.cycles, active)
}

// Stall implements hwsim.ProvenanceSink.
func (p *Profiler) Stall(cause hwsim.StallCause, cycles int) {
	if cause < 0 || cause >= hwsim.NumStallCauses {
		return
	}
	if cycles > 0 {
		p.stallTotals[cause] += uint64(cycles)
	}
	p.stallHeat.add(int(cause), p.cycles, float64(cycles))
}

// Symbols returns the number of steps observed.
func (p *Profiler) Symbols() uint64 { return p.symbols }

// Cycles returns the accumulated cycle clock.
func (p *Profiler) Cycles() uint64 { return p.cycles }

// Matches returns the number of matches observed.
func (p *Profiler) Matches() uint64 { return p.matches }

// StageEnergyPJ returns the energy observed for one pipeline stage.
func (p *Profiler) StageEnergyPJ(stage hwsim.Stage) float64 {
	if stage < 0 || stage >= hwsim.NumStages {
		return 0
	}
	return p.stageEnergy[stage]
}

// StallTotal returns the accumulated cycles lost to one cause (StallBVM in
// system cycles, the I/O causes in array-cycles).
func (p *Profiler) StallTotal(cause hwsim.StallCause) uint64 {
	if cause < 0 || cause >= hwsim.NumStallCauses {
		return 0
	}
	return p.stallTotals[cause]
}

// Patterns returns the pattern list (machine index → source regex).
func (p *Profiler) Patterns() []string { return p.patterns }

// MachineActivitySteps returns machine m's accumulated active-state steps.
func (p *Profiler) MachineActivitySteps(m int) uint64 {
	if m < 0 || m >= len(p.machineActivity) {
		return 0
	}
	return p.machineActivity[m]
}

// MachineStageEnergyPJ returns the energy of one stage attributed to
// machine m (a weight, see hwsim.ProvenanceSink).
func (p *Profiler) MachineStageEnergyPJ(m int, stage hwsim.Stage) float64 {
	if m < 0 || m >= len(p.machineStage) || stage < 0 || stage >= hwsim.NumStages {
		return 0
	}
	return p.machineStage[m][stage]
}

// TileHeatmap returns the per-tile occupancy heatmap (nil when the run had
// no tile placement, e.g. the baseline architectures).
func (p *Profiler) TileHeatmap() *Heatmap { return p.tileHeat }

// StallHeatmap returns the stall-cause × cycle-bucket matrix; row indices
// are hwsim.StallCause values.
func (p *Profiler) StallHeatmap() *Heatmap { return p.stallHeat }

// OccupancyHeatmap returns the single-row aggregate active-state heatmap.
func (p *Profiler) OccupancyHeatmap() *Heatmap { return p.occupancy }
