package hwsim

// Fault-injection and resilience wiring of the BVAP simulator: narrow hook
// points in Step and the I/O model let a faults.Injector flip BVM bits,
// corrupt STE active latches, drop/duplicate BVAP-S input symbols and
// overflow the I/O buffers; Checkpoint/Restore give the resilience harness
// windowed rollback; and the per-BV parity option charges its Table-4-style
// energy/area surcharge so the protection/efficiency trade-off is
// measurable. The nil path mirrors the telemetry Sink: with no injector
// attached, Step pays a single nil check and allocates nothing.

import (
	"bvap/internal/archmodel"
	"bvap/internal/faults"
	"bvap/internal/nbva"
)

const (
	// parityOverheadFrac models per-BV parity as one parity bit per 8-bit
	// BV word: a 12.5% surcharge on BV storage accesses (Table 4's
	// BitVector energy) and on the BVM's SRAM area.
	parityOverheadFrac = 0.125
	// ioOverflowDMAHoldCycles is how long a corrupted DMA beat stalls the
	// bank refill: the ping-pong buffer must re-request the beat.
	ioOverflowDMAHoldCycles = 2
)

// SetFaults attaches (or with nil detaches) a fault injector. Call before
// Run; when the plan enables parity, the BVM area of every BV-carrying tile
// grows by the parity surcharge and every BV read/swap op charges parity
// energy. With no injector the Step hot path pays one nil check.
func (s *BVAPSystem) SetFaults(in *faults.Injector) {
	if s.parityCharged {
		s.stats.SetAreaUm2(s.stats.AreaUm2 - s.parityAreaUm2)
		s.parityCharged = false
		s.parityAreaUm2 = 0
	}
	s.faults = in
	s.parityOn = in != nil && in.ParityOn()
	if s.parityOn {
		area := 0.0
		for i, t := range s.tiles {
			if t.bvstes > 0 {
				area += archmodel.BVMAreaUm2 * parityOverheadFrac * s.tileScale[i] * 1.05
			}
		}
		s.parityAreaUm2 = area
		s.parityCharged = true
		s.stats.SetAreaUm2(s.stats.AreaUm2 + area)
	}
	if in != nil && s.faultScratch == nil {
		s.faultScratch = make([]int, 0, 64)
	}
}

// FaultStats returns the injector's counters (zero value with no injector).
func (s *BVAPSystem) FaultStats() faults.Stats {
	if s.faults == nil {
		return faults.Stats{}
	}
	return s.faults.Stats()
}

// Pos returns the committed stream position: symbols consumed since start,
// excluding rolled-back work. Part of the faults.Target surface.
func (s *BVAPSystem) Pos() int { return s.pos }

// NumMachines returns the number of configured machines (including
// unsupported placeholders). Part of the faults.Target surface.
func (s *BVAPSystem) NumMachines() int { return len(s.machines) }

// sysCheckpoint is the concrete checkpoint of a BVAPSystem: runner
// frontiers and vectors, stream position, per-machine BV-activity history,
// match-end high-water marks, and I/O occupancies. Monotone observables
// (energy, cycles, symbols, stall counts) are deliberately excluded —
// rolled-back work stays charged, which is the measured cost of recovery.
type sysCheckpoint struct {
	// owner pins the checkpoint to the system it was taken on: runner
	// snapshots index into that system's machines, so restoring onto a
	// different system would silently corrupt it. Restore checks identity.
	owner   *BVAPSystem
	pos     int
	runners []*runnerCk
	endsLen []int
	io      *ioCheckpoint
}

type runnerCk struct {
	snap   *nbva.RunnerSnapshot
	prevBV int
}

// Checkpoint implements faults.Target.
func (s *BVAPSystem) Checkpoint() faults.Checkpoint {
	ck := &sysCheckpoint{owner: s, pos: s.pos}
	for _, m := range s.machines {
		if m == nil {
			ck.runners = append(ck.runners, nil)
			continue
		}
		ck.runners = append(ck.runners, &runnerCk{
			snap:   m.runner.Snapshot(),
			prevBV: m.prevBVActive,
		})
	}
	ck.endsLen = make([]int, len(s.ends))
	for i := range s.ends {
		ck.endsLen[i] = len(s.ends[i])
	}
	if s.io != nil {
		ck.io = s.io.checkpoint()
	}
	return ck
}

// Restore implements faults.Target: it rewinds the functional state to a
// checkpoint taken on this system. Accumulated statistics are not rewound.
func (s *BVAPSystem) Restore(c faults.Checkpoint) {
	ck, ok := c.(*sysCheckpoint)
	if !ok || ck == nil {
		panic("hwsim: Restore with a checkpoint from a different system type")
	}
	if ck.owner != s {
		panic("hwsim: Restore with a checkpoint taken on a different system")
	}
	s.pos = ck.pos
	for i, m := range s.machines {
		if m == nil || ck.runners[i] == nil {
			continue
		}
		m.runner.Restore(ck.runners[i].snap)
		m.prevBVActive = ck.runners[i].prevBV
	}
	s.syncDispatch()
	for i := range s.ends {
		if ck.endsLen[i] <= len(s.ends[i]) {
			s.ends[i] = s.ends[i][:ck.endsLen[i]]
		}
	}
	if s.io != nil && ck.io != nil {
		s.io.restore(ck.io)
	}
}

// faultStep applies pre-symbol fault injection. It returns true when the
// symbol was consumed entirely by a fault (a dropped BVAP-S symbol) and
// stepCore must not run.
func (s *BVAPSystem) faultStep(b byte) bool {
	in := s.faults
	if in.Suppressed() {
		return false
	}
	pos := uint64(s.pos)
	if s.streaming {
		if in.Fire(faults.SiteStreamDrop, pos, 0) {
			in.Record(faults.Event{
				Pos: pos, Site: faults.SiteStreamDrop,
				Machine: -1, State: -1, Bit: -1, Array: -1,
			})
			// The symbol never reaches the pipeline: the system clock
			// still ticks, no match/transition work happens.
			s.stats.Symbols++
			s.stats.Cycles++
			if s.sink != nil {
				s.sink.StepDone(1, 0, 0)
			}
			s.pos++
			return true
		}
		if in.Fire(faults.SiteStreamDup, pos, 0) {
			in.Record(faults.Event{
				Pos: pos, Site: faults.SiteStreamDup,
				Machine: -1, State: -1, Bit: -1, Array: -1,
			})
			s.stepCore(b) // the duplicated copy; Step runs the original
		}
	}
	for mi, m := range s.machines {
		if m == nil || !in.MachineAllowed(mi) {
			continue
		}
		if in.Fire(faults.SiteBVBitFlip, pos, mi) {
			s.injectBitFlip(in, pos, mi, m)
		}
		if in.Fire(faults.SiteSTEActive, pos, mi) {
			s.injectSTECorrupt(in, pos, mi, m)
		}
	}
	if s.io != nil {
		for a := 0; a < s.arrays; a++ {
			if in.Fire(faults.SiteIOOverflow, pos, a) {
				s.io.injectOverflow(a)
				// Buffer full/empty flags are architecturally visible
				// (§6 stalls the array on them), so overflows are
				// always detected.
				in.Record(faults.Event{
					Pos: pos, Site: faults.SiteIOOverflow,
					Machine: -1, State: -1, Bit: -1, Array: a,
					Detected: true,
				})
			}
		}
	}
	return false
}

// injectBitFlip flips one bit of a deterministically chosen active BV
// vector of machine mi. With parity the flip is detected (the next word
// access fails its parity check); without it the corruption is silent.
func (s *BVAPSystem) injectBitFlip(in *faults.Injector, pos uint64, mi int, m *bvapMachine) {
	s.faultScratch = s.faultScratch[:0]
	for _, q := range m.runner.ActiveList() {
		if m.ah.States[q].Width > 0 {
			s.faultScratch = append(s.faultScratch, q)
		}
	}
	if len(s.faultScratch) == 0 {
		return // no SRAM content to corrupt this cycle
	}
	q := s.faultScratch[in.Pick(faults.SiteBVBitFlip, pos, mi, 1, len(s.faultScratch))]
	width := m.ah.States[q].Width
	bit := 1 + in.Pick(faults.SiteBVBitFlip, pos, mi, 2, width)
	if !m.runner.FlipBit(q, bit) {
		return
	}
	in.Record(faults.Event{
		Pos: pos, Site: faults.SiteBVBitFlip,
		Machine: mi, State: q, Bit: bit, Array: -1,
		Detected: in.ParityOn(),
	})
}

// injectSTECorrupt upsets an active-bit latch of machine mi: half the draws
// silently deactivate an active state, the other half spuriously activate
// an idle one. Neither is covered by BV parity — these are the silent
// corruptions only the end-to-end cross-check can surface.
func (s *BVAPSystem) injectSTECorrupt(in *faults.Injector, pos uint64, mi int, m *bvapMachine) {
	active := m.runner.ActiveList()
	kind := in.Pick(faults.SiteSTEActive, pos, mi, 1, 2)
	if kind == 0 && len(active) > 0 {
		q := active[in.Pick(faults.SiteSTEActive, pos, mi, 2, len(active))]
		if m.runner.Deactivate(q) {
			in.Record(faults.Event{
				Pos: pos, Site: faults.SiteSTEActive,
				Machine: mi, State: q, Bit: -1, Array: -1,
			})
		}
		return
	}
	q := in.Pick(faults.SiteSTEActive, pos, mi, 3, m.ah.Size())
	if m.runner.ForceActive(q) {
		// The upset may wake an idle machine, which stepCore must now
		// visit.
		s.live[mi>>6] |= 1 << (mi & 63)
		in.Record(faults.Event{
			Pos: pos, Site: faults.SiteSTEActive,
			Machine: mi, State: q, Bit: -1, Array: -1,
		})
	}
}
