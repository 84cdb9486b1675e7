package hwsim

import (
	"fmt"
	"math/bits"
	"slices"

	"bvap/internal/archmodel"
	"bvap/internal/faults"
	"bvap/internal/hwconf"
	"bvap/internal/nbva"
)

// BVAPSystem simulates a BVAP bank executing a compiled configuration.
// Construct one with NewBVAPSystem, feed it input with Run or Step, and read
// the accumulated Stats.
type BVAPSystem struct {
	stats    Stats
	machines []*bvapMachine
	// dispatch picks the machines a symbol can move; live holds the
	// machines stepCore must keep visiting and pending the ^-anchored ones
	// that have not consumed their first symbol (see nbva.Dispatch and
	// syncDispatch).
	dispatch nbva.Dispatch
	live     []uint64
	pending  []uint64
	// tiles mirrors the config placement; activity is attributed to
	// tiles in proportion to the STEs each tile hosts of a machine.
	tiles []bvapTile
	// arrayStall[i] accumulates stall cycles of array i this step. Each
	// step starts from staticStall[i], the stall the always-on-BVM
	// ablation charges every symbol for the BV machines of array i.
	arrayStall  []int
	staticStall []int
	arrays      int
	streaming   bool
	// maxWordsAll is the largest virtual word count across machines; in
	// streaming mode (BVAP-S) the system clock is set by this.
	maxWordsAll int
	// matchEnds, when enabled, records match end positions per machine.
	recordEnds bool
	ends       [][]int
	pos        int
	io         *ioModel
	ioPending  []bool
	ioReports  []int
	tileActive []float64 // per-step scratch
	// tileScale scales each tile's per-symbol SM/ST cost; 1 for whole
	// tiles, the occupancy fraction under custom sizing.
	tileScale []float64
	variant   Variant
	// sink, when non-nil, receives per-stage energy, stall and occupancy
	// events; the nil path adds no allocations to Step. xsink caches the
	// optional ProvenanceSink extension (resolved once in SetSink) so the
	// hot path never repeats the type assertion; activeScratch is the
	// reusable buffer MachineActivity id lists are built in.
	sink          Sink
	xsink         ProvenanceSink
	activeScratch []int
	// ioReportedPJ / leakReportedPJ track what the sink has already been
	// told, so repeated Finish calls emit deltas only.
	ioReportedPJ   float64
	leakReportedPJ float64

	// faults, when non-nil, injects hardware faults into Step; the nil
	// path pays a single nil check (mirroring sink). parityOn charges the
	// per-BV parity energy surcharge; parityCharged/parityAreaUm2 track
	// the area surcharge so SetFaults can be called repeatedly.
	faults        *faults.Injector
	parityOn      bool
	parityCharged bool
	parityAreaUm2 float64
	faultScratch  []int
}

// Variant selects design-ablation knobs on the BVAP simulator, modeling the
// alternatives the paper argues against (§3 naïve PE array, §5 routing
// strategies, §6 event-driven clocking, §5 virtual BV sizing).
type Variant struct {
	// Routing selects the Swap-step routing implementation.
	Routing archmodel.Routing
	// EventDriven gates the BVM on BV-STE activity (the adopted design);
	// when false the BVM phase runs on every symbol at full clock.
	EventDriven bool
	// VirtualSizing uses per-instruction virtual word counts; when false
	// every BV processes all 8 physical words.
	VirtualSizing bool
	// NaivePE replaces the BVM with the §3 per-transition PE array:
	// every enabled transition transforms a full vector before
	// aggregation, and the array area grows quadratically with the BVs
	// per tile.
	NaivePE bool
}

// DefaultVariant is the paper's BVAP design point.
func DefaultVariant() Variant {
	return Variant{Routing: archmodel.RoutingSemiParallel, EventDriven: true, VirtualSizing: true}
}

// SetVariant reconfigures the simulator's design point. Call before Run;
// it adjusts the area accounting for the variant's BVM implementation.
func (s *BVAPSystem) SetVariant(v Variant) {
	s.variant = v
	delta := v.Routing.MFCBAreaUm2() - archmodel.RoutingSemiParallel.MFCBAreaUm2()
	if v.NaivePE {
		delta += archmodel.NaivePEAreaUm2() - archmodel.BVMAreaUm2
	}
	s.stats.SetAreaUm2(s.stats.AreaUm2 + delta*1.05*float64(len(s.tiles)))

	// With event-driven clocking ablated, the Global Controller stalls
	// every BV machine's array for a BVM phase on every symbol, whether
	// or not the machine is stepped.
	clear(s.staticStall)
	if s.streaming || v.EventDriven {
		return
	}
	for _, m := range s.machines {
		if m == nil || m.bvStates == 0 {
			continue
		}
		stall := v.Routing.StallCycles(s.bvWords(m))
		for _, tile := range m.tiles {
			a := s.tiles[tile].array
			s.staticStall[a] = max(s.staticStall[a], stall)
		}
	}
}

// bvWords is the word count machine m's BVM phase processes under the
// current variant.
func (s *BVAPSystem) bvWords(m *bvapMachine) int {
	if !s.variant.VirtualSizing && m.bvStates > 0 {
		return archmodel.PhysicalBVWords
	}
	return m.words
}

type bvapMachine struct {
	index    int
	ah       *nbva.AHNBVA
	runner   *nbva.AHRunner
	words    int
	tiles    []int     // tiles hosting parts of this machine
	share    []float64 // fraction of the machine's STEs on each tile
	bvStates int
	// prevBVActive tracks the previous cycle's active BV count so BV
	// resets are charged once per deactivation.
	prevBVActive int
}

// live reports whether stepping m can charge anything: its frontier is
// non-empty, or a BV reset is still owed for its last active BV count (a
// Reset or a latch upset can empty the frontier first; BVAP-S charges the
// reset on the machine's next step).
func (m *bvapMachine) live() bool {
	return m.runner.ActiveStates() > 0 || m.prevBVActive != 0
}

type bvapTile struct {
	stes   int
	bvstes int
	array  int
	fcb    bool // tile pair in FCB mode (§6): 2× silicon, full crossbar
}

// NewBVAPSystem builds a simulator from a configuration. streaming selects
// the BVAP-S mode (§6): the BVM runs every symbol at a constant, lower
// system clock, and the SM/ST circuits run at reduced supply voltage.
func NewBVAPSystem(cfg *hwconf.Config, streaming bool) (*BVAPSystem, error) {
	arch := archmodel.BVAP
	if streaming {
		arch = archmodel.BVAPS
	}
	sys := &BVAPSystem{streaming: streaming}
	sys.stats.Arch = arch

	machineTiles := map[int][]int{}
	tileUnits := 0.0
	for _, tp := range cfg.Tiles {
		sys.tiles = append(sys.tiles, bvapTile{
			stes:   tp.STEs,
			bvstes: tp.BVSTEs,
			array:  tp.Tile / archmodel.TilesPerArray,
			fcb:    tp.FCBMode,
		})
		if tp.FCBMode {
			tileUnits += 2 // an FCB placement occupies a physical tile pair
		} else {
			tileUnits++
		}
		for _, m := range tp.Machines {
			machineTiles[m] = append(machineTiles[m], tp.Tile)
		}
	}
	sys.arrays = (len(sys.tiles) + archmodel.TilesPerArray - 1) / archmodel.TilesPerArray
	if sys.arrays == 0 {
		sys.arrays = 1
	}
	sys.arrayStall = make([]int, sys.arrays)
	sys.staticStall = make([]int, sys.arrays)

	prov := cfg.ProvenanceIndex()
	for i := range cfg.Machines {
		m := &cfg.Machines[i]
		if m.Unsupported != "" {
			sys.machines = append(sys.machines, nil)
			continue
		}
		ah, err := MachineFromConfig(m)
		if err != nil {
			return nil, err
		}
		bm := &bvapMachine{
			index:    i,
			ah:       ah,
			runner:   nbva.NewAHRunner(ah),
			words:    MaxWords(m),
			tiles:    machineTiles[i],
			bvStates: ah.BVStateCount(),
		}
		if len(bm.tiles) == 0 {
			return nil, fmt.Errorf("hwsim: machine %d (%q) is not placed on any tile", i, m.Regex)
		}
		// Activity splits across a machine's tiles by STE share. With a
		// provenance table the share is the actual STE count per tile;
		// otherwise (older images) it falls back to an equal split.
		perTile := prov.MachineTileSTEs(i)
		covered := 0
		for _, t := range bm.tiles {
			covered += perTile[t]
		}
		for _, t := range bm.tiles {
			if covered > 0 {
				bm.share = append(bm.share, float64(perTile[t])/float64(covered))
			} else {
				bm.share = append(bm.share, 1/float64(len(bm.tiles)))
			}
		}
		sys.machines = append(sys.machines, bm)
	}
	sys.stats.finalizeAreaF(tileUnits)
	ahs := make([]*nbva.AHNBVA, len(sys.machines))
	for i, m := range sys.machines {
		if m != nil {
			ahs[i] = m.ah
		}
	}
	sys.dispatch = nbva.NewDispatch(ahs)
	sys.live = make([]uint64, sys.dispatch.Words())
	sys.pending = slices.Clone(sys.dispatch.Anchored())
	sys.ends = make([][]int, len(cfg.Machines))
	sys.tileActive = make([]float64, len(sys.tiles))
	sys.tileScale = make([]float64, len(sys.tiles))
	for i := range sys.tileScale {
		sys.tileScale[i] = 1
	}
	sys.variant = DefaultVariant()
	if !streaming {
		// BVAP-S connects directly to the sensor and needs no input
		// buffering (§6); standard BVAP streams through the bank I/O
		// hierarchy.
		sys.io = newIOModel(sys.arrays)
		sys.ioPending = make([]bool, sys.arrays)
		sys.ioReports = make([]int, sys.arrays)
	}
	return sys, nil
}

// SetCustomSizing sizes the hardware to the STEs and BVs actually used (§8
// micro-benchmarks: "we customize the memory size for a single regex").
// Call before Run.
func (s *BVAPSystem) SetCustomSizing() {
	tilesF := 0.0
	area := 0.0
	for i, t := range s.tiles {
		steFrac := float64(t.stes) / archmodel.STEsPerTile
		bvFrac := float64(t.bvstes) / archmodel.BVsPerTile
		s.tileScale[i] = steFrac
		tilesF += steFrac
		area += archmodel.BVAPCustomTileAreaUm2(steFrac, bvFrac)
	}
	s.stats.finalizeAreaF(tilesF)
	s.stats.SetAreaUm2(area * 1.05)
}

// RecordMatchEnds enables per-machine match-position recording (used by the
// consistency checks; costs memory proportional to the match count).
func (s *BVAPSystem) RecordMatchEnds(on bool) { s.recordEnds = on }

// SetSink attaches a telemetry sink receiving per-stage energy, per-array
// stall and per-step occupancy events. Pass nil to detach; with no sink the
// Step hot path performs a single nil check and allocates nothing. Sinks
// additionally implementing ProvenanceSink (the activity profiler; combine
// several with FanOut) also receive per-machine and per-tile events.
func (s *BVAPSystem) SetSink(k Sink) {
	s.sink = k
	s.xsink, _ = k.(ProvenanceSink)
}

// MatchEnds returns the recorded match end positions of machine i.
func (s *BVAPSystem) MatchEnds(i int) []int { return s.ends[i] }

// Stats returns the accumulated statistics.
func (s *BVAPSystem) Stats() *Stats { return &s.stats }

// Reset clears the machine states and the position counter but keeps the
// accumulated statistics.
func (s *BVAPSystem) Reset() {
	for _, m := range s.machines {
		if m != nil {
			m.runner.Reset()
		}
	}
	s.syncDispatch()
	s.pos = 0
}

// syncDispatch rebuilds the live and pending sets from the machines, after
// Reset or Restore replaced their configurations.
func (s *BVAPSystem) syncDispatch() {
	clear(s.live)
	clear(s.pending)
	anchored := s.dispatch.Anchored()
	for i, m := range s.machines {
		if m == nil {
			continue
		}
		bit := uint64(1) << (i & 63)
		if m.live() {
			s.live[i>>6] |= bit
		}
		if anchored[i>>6]&bit != 0 && !m.runner.Started() {
			s.pending[i>>6] |= bit
		}
	}
}

// Run processes a byte stream.
func (s *BVAPSystem) Run(input []byte) {
	for _, b := range input {
		s.Step(b)
	}
}

// Step processes one input symbol: one full SM → bit-vector-processing → ST
// round across all tiles, with per-event energy and stall accounting. When
// a Sink is attached the same per-event energies are additionally streamed
// to it, attributed to pipeline stages; the Stats accumulation order is
// identical with and without a sink, so results do not depend on
// instrumentation. With a fault injector attached (SetFaults), pre-symbol
// fault injection runs first; the nil path pays a single nil check.
func (s *BVAPSystem) Step(b byte) {
	if s.faults != nil && s.faultStep(b) {
		return // symbol consumed by a stream-drop fault
	}
	s.stepCore(b)
}

// stepCore is the fault-free datapath of Step.
func (s *BVAPSystem) stepCore(b byte) {
	st := &s.stats
	st.Symbols++
	copy(s.arrayStall, s.staticStall)

	// Per-stage accumulators for the sink, summed locally and emitted
	// once per step. Every update is guarded on sinkOn so the
	// uninstrumented path pays predictable branches instead of float
	// dependency chains (pinned by BenchmarkTelemetryOverhead).
	sinkOn := s.sink != nil
	xsinkOn := s.xsink != nil
	var snkRead, snkSwap, snkRoute, snkReset, snkIdle float64
	var snkMatch, snkTrans, snkWire float64
	activeTotal := 0.0
	matchesThisStep := 0

	// Per-BV parity (fault detection): every BV storage access also reads
	// or writes its parity bits. Charged only while hardware injection is
	// live — the degraded replay path models the clean software engine.
	parityLive := s.parityOn && !s.faults.Suppressed()
	parityOps := 0

	tileActive := s.tileActive
	for i := range tileActive {
		tileActive[i] = 0
	}
	// Only the machines the symbol can move are stepped (see
	// nbva.Dispatch), in ascending machine index so matches, ends and I/O
	// reports keep their order. Every charge below is zero for a machine
	// that is not live and not triggered, so skipping it leaves every
	// figure bit-identical.
	trig := s.dispatch.Trigger(b)
	for w, live := range s.live {
		set := live | trig[w] | s.pending[w]
		s.pending[w] = 0
		for set != 0 {
			k := bits.TrailingZeros64(set)
			set &= set - 1
			m := s.machines[w<<6|k]
			matched := m.runner.Step(b)
			if matched {
				st.Matches++
				matchesThisStep++
				if s.recordEnds {
					s.ends[m.index] = append(s.ends[m.index], s.pos)
				}
				if s.io != nil {
					s.ioReports[s.tiles[m.tiles[0]].array]++
				}
			}
			active := float64(m.runner.ActiveStates())
			if sinkOn {
				activeTotal += active
			}
			if xsinkOn {
				s.activeScratch = m.runner.AppendActive(s.activeScratch[:0])
				s.xsink.MachineActivity(m.index, m.runner.ActiveStates(), s.activeScratch)
			}
			for ti, tile := range m.tiles {
				tileActive[tile] += active * m.share[ti]
			}
			// Bit-vector-processing phase: event-driven in BVAP mode,
			// every cycle in BVAP-S mode or with event-driven clocking
			// ablated.
			bvActive := m.runner.ActiveBVStates()
			words := s.bvWords(m)
			alwaysOn := s.streaming || (!s.variant.EventDriven && m.bvStates > 0)
			if bvActive > 0 || alwaysOn {
				reads := m.runner.ReadOps()
				if parityLive {
					mops := reads + m.runner.SwapOps()
					parityOps += mops
					if xsinkOn {
						s.xsink.MachineStageEnergy(m.index, StageParity,
							float64(mops)*parityOverheadFrac*archmodel.BitVector.EnergyPJ(1))
					}
				}
				bvFrac := 0.0
				if m.bvStates > 0 {
					bvFrac = float64(bvActive) / float64(m.bvStates)
				}
				e := archmodel.BVMReadEnergyPJ(reads)
				st.BVMEnergyPJ += e
				if sinkOn {
					snkRead += e
				}
				if xsinkOn {
					s.xsink.MachineStageEnergy(m.index, StageBVMRead, e)
				}
				if s.variant.NaivePE {
					e = archmodel.NaivePESwapEnergyPJ(m.runner.SwapOps(), words)
					st.BVMEnergyPJ += e
					if sinkOn {
						snkSwap += e
					}
					if xsinkOn {
						s.xsink.MachineStageEnergy(m.index, StageBVMSwap, e)
					}
				} else {
					base := archmodel.BVMSwapEnergyPJ(
						m.runner.ActiveStorageBVs(), m.runner.ActiveSet1BVs(),
						words, bvFrac)
					e = base * s.variant.Routing.MFCBEnergyScale()
					st.BVMEnergyPJ += e
					// Attribute the crossbar overhead beyond the
					// semi-parallel baseline to the routing stage.
					if sinkOn {
						if e > base {
							snkSwap += base
							snkRoute += e - base
						} else {
							snkSwap += e
						}
					}
					if xsinkOn {
						if e > base {
							s.xsink.MachineStageEnergy(m.index, StageBVMSwap, base)
							s.xsink.MachineStageEnergy(m.index, StageRouting, e-base)
						} else {
							s.xsink.MachineStageEnergy(m.index, StageBVMSwap, e)
						}
					}
				}
				e = archmodel.BVMResetEnergyPJ(m.prevBVActive - bvActive)
				st.BVMEnergyPJ += e
				if sinkOn {
					snkReset += e
				}
				if xsinkOn {
					s.xsink.MachineStageEnergy(m.index, StageBVMReset, e)
				}
				if bvActive > 0 && !s.streaming {
					// The Global Controller stalls the machine's
					// array for the BVM phase (§6); the always-on
					// ablation's stall is already in staticStall.
					stall := s.variant.Routing.StallCycles(words)
					for _, tile := range m.tiles {
						a := s.tiles[tile].array
						if stall > s.arrayStall[a] {
							s.arrayStall[a] = stall
						}
					}
				}
			}
			m.prevBVActive = bvActive
			if m.live() {
				live |= 1 << k
			} else {
				live &^= 1 << k
			}
		}
		s.live[w] = live
	}

	// Per-tile SM/ST/wire energy: every placed tile sees every symbol.
	// In always-on modes (BVAP-S, or event-driven clocking ablated) each
	// tile's BVM additionally clocks an idle phase when none of its
	// BV-STEs activated.
	alwaysOnBVM := s.streaming || !s.variant.EventDriven
	arch := st.Arch
	for ti := range s.tiles {
		scale := s.tileScale[ti]
		if xsinkOn {
			s.xsink.TileActivity(ti, tileActive[ti])
		}
		if alwaysOnBVM && s.tiles[ti].bvstes > 0 {
			e := archmodel.BVMIdlePhasePJ(archmodel.PhysicalBVWords) * scale
			st.BVMEnergyPJ += e
			if sinkOn {
				snkIdle += e
			}
		}
		capacity := float64(archmodel.STEsPerTile)
		if s.tiles[ti].fcb {
			capacity = float64(archmodel.FCBModeSTEs)
		}
		frac := 0.0
		if s.tiles[ti].stes > 0 {
			frac = tileActive[ti] / (capacity * scale)
		}
		e := arch.MatchEnergyPJ(frac) * scale
		st.MatchEnergyPJ += e
		if sinkOn {
			snkMatch += e
		}
		if s.tiles[ti].fcb {
			e = archmodel.FCBTransitionEnergyPJ(frac) * scale
		} else {
			e = arch.TransitionEnergyPJ(frac) * scale
		}
		st.TransitionEnergyPJ += e
		e2 := arch.WireEnergyPJ() * scale
		st.WireEnergyPJ += e2
		if sinkOn {
			snkTrans += e
			snkWire += e2
		}
	}

	// Parity surcharge: one parity bit per 8-bit BV word means every BV
	// storage access also accesses 12.5% extra SRAM (Table-4-style per-op
	// energy). Charged only when parity protection is enabled.
	if parityLive && parityOps > 0 {
		e := float64(parityOps) * parityOverheadFrac * archmodel.BitVector.EnergyPJ(1)
		st.ParityEnergyPJ += e
		if sinkOn {
			s.sink.StageEnergy(StageParity, e)
		}
	}

	// Timing: in BVAP mode the slowest array sets the symbol's cycle
	// cost (all arrays broadcast the same stream); BVAP-S has a constant
	// longer cycle already reflected in its lower symbol clock.
	maxStall := 0
	if !s.streaming {
		for _, stall := range s.arrayStall {
			if stall > maxStall {
				maxStall = stall
			}
		}
	}
	var ioIn0, ioOut0 uint64
	if xsinkOn && s.io != nil {
		ioIn0, ioOut0 = s.io.inputStalls, s.io.outputStalls
	}
	ioExtra := 0
	if s.io != nil {
		// BVM stall cycles let the FIFOs refill before the symbol is
		// consumed (§6's latency hiding).
		if maxStall > 0 {
			s.io.idle(maxStall, s.ioPending)
		}
		for a := range s.ioPending {
			s.ioPending[a] = true
		}
		for s.io.tick(s.ioPending, s.ioReports) > 0 {
			ioExtra++
			if ioExtra > 256 {
				break // pathological congestion; avoid livelock
			}
		}
		for a := range s.ioReports {
			s.ioReports[a] = 0
		}
	}
	st.Cycles += uint64(1 + maxStall + ioExtra)
	st.StallCycles += uint64(maxStall + ioExtra)
	if s.sink != nil {
		s.sink.StageEnergy(StageMatch, snkMatch)
		s.sink.StageEnergy(StageTransition, snkTrans)
		s.sink.StageEnergy(StageBVMRead, snkRead)
		s.sink.StageEnergy(StageBVMSwap, snkSwap)
		s.sink.StageEnergy(StageBVMReset, snkReset)
		s.sink.StageEnergy(StageBVMIdle, snkIdle)
		s.sink.StageEnergy(StageRouting, snkRoute)
		s.sink.StageEnergy(StageWire, snkWire)
		for a, stall := range s.arrayStall {
			s.sink.StallCycles(a, stall+ioExtra)
		}
		if xsinkOn {
			s.xsink.Stall(StallBVM, maxStall)
			ioIn, ioOut := 0, 0
			if s.io != nil {
				ioIn = int(s.io.inputStalls - ioIn0)
				ioOut = int(s.io.outputStalls - ioOut0)
			}
			s.xsink.Stall(StallIOInput, ioIn)
			s.xsink.Stall(StallIOOutput, ioOut)
		}
		s.sink.StepDone(1+maxStall+ioExtra, activeTotal, matchesThisStep)
	}
	s.pos++
}

// Finish closes the run: I/O observables are folded in and leakage is
// charged over the final cycle count. Call it once after the last Step/Run.
// The terminal stages (io_buffer, leakage) are reported to the sink here;
// repeated Finish calls emit deltas only, so the sink's stage totals stay
// consistent with Stats.
func (s *BVAPSystem) Finish() *Stats {
	if s.io != nil {
		s.stats.IOEnergyPJ = s.io.bufferPJ
		s.stats.InputStallCycles = s.io.inputStalls
		s.stats.OutputStallCycles = s.io.outputStalls
	}
	s.stats.addLeakage()
	if s.sink != nil {
		s.sink.StageEnergy(StageIOBuffer, s.stats.IOEnergyPJ-s.ioReportedPJ)
		s.sink.StageEnergy(StageLeakage, s.stats.LeakageEnergyPJ-s.leakReportedPJ)
	}
	s.ioReportedPJ = s.stats.IOEnergyPJ
	s.leakReportedPJ = s.stats.LeakageEnergyPJ
	return &s.stats
}
