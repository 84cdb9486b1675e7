package bvap

// First-byte runner dispatch: the software counterpart of BVAP's
// state-matching stage. In hardware an input symbol activates only the STEs
// whose class contains it, and only active STEs pay for transition and BV
// work (§3, §5). Stream.Step does the same at machine granularity: it steps
// a runner only if the byte can move it.
//
// A runner can change state on byte b only if
//
//   - its frontier is non-empty (the stream's live set), or
//   - it is unanchored and one of its initial states' classes holds b
//     (the trigger set of b's byte class), or
//   - it is ^-anchored and has not consumed its first byte yet (the
//     stream's pending set): the first step arms its initial states and
//     sets the runner's started flag, which a checkpoint records.
//
// Skipping any other runner is exact, not approximate: with an empty
// frontier and no armed initial state whose class holds b, AHRunner.Step
// finds no candidate that survives matching, so it would return false and
// leave the frontier empty. Its occupancy counters are already zero, so
// snapshots, checkpoints and the instrumented active-state gauge read the
// same either way.
//
// The hardware simulator (internal/hwsim) still steps every runner: its
// energy and cycle model charges each runner's per-step counters, and
// those are what the paper's figures measure.

import (
	"slices"

	"bvap/internal/nbva"
)

// runnerDispatch is the engine-wide dispatch table, built once by
// newEngine and read-only afterwards.
type runnerDispatch struct {
	// words is the length of one runner bitset (one bit per machine).
	words int
	// byteClass maps each byte to its equivalence class: bytes in one
	// class lie in exactly the same unanchored machines' initial classes.
	byteClass [256]uint8
	// trig holds one runner bitset per byte class, flattened: class c's
	// set is trig[c*words : (c+1)*words].
	trig []uint64
	// anchored is the set of ^-anchored machines — a fresh stream's
	// pending set.
	anchored []uint64
}

// newRunnerDispatch builds the dispatch table for machines (nil entries are
// unsupported patterns and are never stepped).
func newRunnerDispatch(machines []*nbva.AHNBVA) runnerDispatch {
	d := runnerDispatch{words: (len(machines) + 63) / 64}
	d.anchored = make([]uint64, d.words)
	sigs := make([]uint64, 256*d.words) // per byte: machines it triggers
	for i, m := range machines {
		if m == nil {
			continue
		}
		if m.Anchored {
			d.anchored[i>>6] |= 1 << (i & 63)
			continue
		}
		for _, q := range m.Initial {
			cls := m.States[q].Class
			for b := 0; b < 256; b++ {
				if cls.Contains(byte(b)) {
					sigs[b*d.words+(i>>6)] |= 1 << (i & 63)
				}
			}
		}
	}
	// Number the distinct signatures in first-byte order; at most 256
	// exist, so a class id fits a uint8.
	nclass := 0
	for b := 0; b < 256; b++ {
		sig := sigs[b*d.words : (b+1)*d.words]
		id := 0
		for id < nclass && !slices.Equal(d.trig[id*d.words:(id+1)*d.words], sig) {
			id++
		}
		if id == nclass {
			d.trig = append(d.trig, sig...)
			nclass++
		}
		d.byteClass[b] = uint8(id)
	}
	return d
}

// syncDispatch rebuilds the stream's live and pending sets from its
// runners, after a Restore replaced their configurations.
func (s *Stream) syncDispatch() {
	clear(s.live)
	clear(s.pending)
	for i, r := range s.runners {
		if r == nil {
			continue
		}
		bit := uint64(1) << (i & 63)
		if r.ActiveStates() > 0 {
			s.live[i>>6] |= bit
		}
		if s.engine.dispatch.anchored[i>>6]&bit != 0 && !r.Started() {
			s.pending[i>>6] |= bit
		}
	}
}
