package nbva

// First-byte dispatch: the software counterpart of BVAP's state-matching
// stage. In hardware an input symbol activates only the STEs whose class
// contains it, and only active STEs pay for transition and BV work (§3,
// §5). A Dispatch lets a set of runners do the same at machine
// granularity: a driver steps a runner only if the byte can move it.
//
// A runner can change state on byte b only if
//
//   - its frontier is non-empty (the driver's live set), or
//   - it is unanchored and one of its initial states' classes holds b
//     (Trigger(b)), or
//   - it is ^-anchored and has not consumed its first byte yet (the
//     driver's pending set, seeded from Anchored): the first step arms its
//     initial states and sets the runner's Started flag.
//
// Skipping any other runner is exact, not approximate: with an empty
// frontier and no armed initial state whose class holds b, AHRunner.Step
// finds no candidate that survives matching, so it would return false,
// leave the frontier empty and zero every per-step counter (ReadOps,
// SwapOps, the active counts). The skipped runner's counters already read
// zero for the active counts, and its stale ReadOps/SwapOps are only read
// after a Step.
//
// Two drivers share this table: the root package's Stream and the hardware
// simulator's BVAPSystem. Each keeps its own live and pending bitsets (one
// bit per machine, 64 machines per word), steps live | Trigger(b) |
// pending in ascending machine index, clears pending, and sets or clears
// each stepped machine's live bit.

import "slices"

// Dispatch is the read-only dispatch table of a machine set, built once by
// NewDispatch and safe for concurrent use. Drivers hold it by value: it is
// read on every byte, and a value field saves a dependent load.
type Dispatch struct {
	// words is the length of one machine bitset.
	words int
	// byteClass maps each byte to its equivalence class: bytes in one
	// class lie in exactly the same unanchored machines' initial classes.
	byteClass [256]uint8
	// trig holds one machine bitset per byte class, flattened: class c's
	// set is trig[c*words : (c+1)*words].
	trig []uint64
	// anchored is the set of ^-anchored machines — a fresh driver's
	// pending set.
	anchored []uint64
}

// NewDispatch builds the dispatch table for machines (nil entries are
// unsupported patterns and are never triggered).
func NewDispatch(machines []*AHNBVA) Dispatch {
	d := Dispatch{words: (len(machines) + 63) / 64}
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

// Words returns the length of one machine bitset.
func (d *Dispatch) Words() int { return d.words }

// Trigger returns the set of unanchored machines one of whose initial
// classes holds b. Callers must not modify it.
func (d *Dispatch) Trigger(b byte) []uint64 {
	c := int(d.byteClass[b]) * d.words
	return d.trig[c : c+d.words]
}

// Anchored returns the set of ^-anchored machines. Callers must not modify
// it.
func (d *Dispatch) Anchored() []uint64 { return d.anchored }
