package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"bvap"
	"bvap/internal/hwsim"
	"bvap/internal/swmatch"
)

const (
	inputCount  = 4       // in-process inputs, scanned in turn; their size is the workload's
	bodyCount   = 128     // request bodies, sent in turn
	streamBytes = 1 << 20 // one session stream, replayed cyclically
	chunkBytes  = 1 << 10 // one session feed
)

// seedFor derives the seed of one generated input from the run's seed, so
// inputs of different roles never share bytes.
func (b *bench) seedFor(role, i int64) int64 { return b.cfg.seed*1_000_003 + role*1_009 + i }

// generate builds every input of the run from the seed.
func (b *bench) generate() {
	for i := 0; i < inputCount; i++ {
		b.inputs = append(b.inputs, b.wl.corpus(b.seedFor(1, int64(i)), b.size(b.wl.inputBytes), b.rules))
	}
	for _, in := range b.inputs {
		// One simulator op runs over the head quarter of an input.
		b.simSlices = append(b.simSlices, in[:len(in)/4])
	}
	b.bodies = b.wl.bodies(b.seedFor(2, 0), bodyCount, b.rules)
	for c := 0; c < b.clients; c++ {
		s := b.wl.corpus(b.seedFor(3, int64(c)), b.size(streamBytes), b.rules)
		b.streams = append(b.streams, s[:len(s)/chunkBytes*chunkBytes])
	}
}

// expect computes every expected answer before anything is timed: FindAll
// of each input and body, and the simulator's match count per slice. FindAll
// itself is checked against the independent swmatch matchers on a seeded
// slice of the first input.
func (b *bench) expect() error {
	for _, in := range b.inputs {
		b.refs = append(b.refs, b.eng.FindAll(in))
	}
	// The slice ends just after a seeded match, when there is one, so the
	// comparison is rarely between two empty answers.
	r := rand.New(rand.NewSource(b.cfg.seed))
	in := b.inputs[0]
	n := min(b.wl.swmatchSlice, len(in))
	off := r.Intn(len(in) - n + 1)
	if ms := b.refs[0]; len(ms) > 0 {
		off = max(0, min(ms[r.Intn(len(ms))].End+1, len(in))-n)
	}
	if err := b.swmatchAgrees(in[off:off+n], off); err != nil {
		return err
	}
	for _, s := range b.simSlices {
		b.simRefs = append(b.simRefs, len(b.eng.FindAll(s)))
	}
	for _, body := range b.bodies {
		b.bodyRefs = append(b.bodyRefs, b.eng.FindAll(body))
	}
	if b.cfg.negative {
		// Wrong expectations: the first input's in-process scans must now
		// fail, and so must every POST /scan and keyed scan, which leaves
		// their latencies without a single sample.
		b.refs[0] = append(b.refs[0], bvap.Match{Pattern: 0, End: -1})
		for i := range b.bodyRefs {
			b.bodyRefs[i] = append(b.bodyRefs[i], bvap.Match{Pattern: 0, End: -1})
		}
	}
	return nil
}

// swmatchAgrees checks FindAll on one slice against per-pattern swmatch
// matchers, which share no code with the AH-NBVA runner.
func (b *bench) swmatchAgrees(slice []byte, off int) error {
	got := map[int][]int{}
	for _, m := range b.eng.FindAll(slice) {
		got[m.Pattern] = append(got[m.Pattern], m.End)
	}
	for p, re := range b.rules {
		sm, err := swmatch.New(re)
		if err != nil {
			return fmt.Errorf("swmatch reference for pattern %d: %w", p, err)
		}
		want := sm.MatchEnds(slice)
		b.check(len(want) == len(got[p]) && (len(want) == 0 || reflect.DeepEqual(want, got[p])),
			"FindAll vs swmatch, pattern %d, slice at %d: %d vs %d matches",
			p, off, len(got[p]), len(want))
	}
	return nil
}

func equalMatches(a, b []bvap.Match) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// inprocLoad runs FindAll, FindAllParallel and the simulator in process,
// one op at a time on one goroutine, each beside a reference scan.
type inprocLoad struct {
	b     *bench
	ref   *reference
	log   *spanLog
	rs    *replayer
	popts *bvap.ParallelOptions
	i     int // triples run, so inputs and slices keep cycling

	scan, sim, par timedOps
	// The modeled energy and symbols of the first simulator op on each
	// slice, which repeat exactly for a seed, and the statistics of the
	// first op of all.
	simEnergyNJ float64
	simSymbols  uint64
	simStats    hwsim.Stats
}

// timedOps holds, per mode, the time per byte of each op and of the
// reference scans run just before and just after it.
type timedOps struct {
	nsb, refBefore, refAfter [2][]float64
}

func (t *timedOps) add(m mode, nsb, before, after float64) {
	t.nsb[m] = append(t.nsb[m], nsb)
	t.refBefore[m] = append(t.refBefore[m], before)
	t.refAfter[m] = append(t.refAfter[m], after)
}

// vsRef is the median, over ops, of each op's time over the mean time of
// the two reference scans around it.
func (t *timedOps) vsRef(m mode) float64 {
	r := make([]float64, len(t.nsb[m]))
	for i, v := range t.nsb[m] {
		r[i] = 2 * v / (t.refBefore[m][i] + t.refAfter[m][i])
	}
	return median(r)
}

// refs is every reference time per byte taken around the ops.
func (t *timedOps) refs(m mode) []float64 {
	return append(append([]float64(nil), t.refBefore[m]...), t.refAfter[m]...)
}

func (b *bench) newInprocLoad() *inprocLoad {
	l := &inprocLoad{b: b, ref: newReference(), rs: b.layers.newReplayer(),
		popts: &bvap.ParallelOptions{Workers: b.nproc}}
	if b.layers != nil {
		l.log = b.layers.newSpanLog("inproc")
		l.popts.Metrics = b.layers.parReg
	}
	return l
}

func nsPerByte(n int, dt time.Duration) float64 { return float64(dt) / float64(n) }

// mbs converts ns per byte to MB/s.
func mbs(nsb float64) float64 { return 1e3 / nsb }

// slot runs triples of FindAll, FindAllParallel and a simulator op until d
// has passed, at least one triple.
func (l *inprocLoad) slot(m mode, d time.Duration) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		l.triple(m)
		l.i++
	}
}

// triple runs FindAll, the simulator and FindAllParallel, each between two
// reference scans of the same kind: on one goroutine for the first two, on
// nproc goroutines at once for FindAllParallel.
func (l *inprocLoad) triple(m mode) {
	b := l.b
	log := l.log
	if m == untraced {
		log = nil
	}
	k := l.i % len(b.inputs)
	in, ref := b.inputs[k], b.refs[k]

	before := l.ref.nsPerByte()
	op := b.layers.nextOp()
	sp := log.begin("bvap.findall", op, 0, len(in))
	start := time.Now()
	got := b.eng.FindAll(in)
	dt := time.Since(start)
	id := log.end(sp)
	after := l.ref.nsPerByte()
	if b.check(equalMatches(got, ref), "FindAll of input %d: %d matches, want %d", k, len(got), len(ref)) {
		l.scan.add(m, nsPerByte(len(in), dt), before, after)
		l.rs.replayRunners(log, op, id, in, len(ref))
	} else {
		log.drop(sp)
	}

	if nsb, ok := l.simulate(log); ok {
		l.sim.add(m, nsb, after, l.ref.nsPerByte())
	}

	before = l.ref.parallelNSPerByte(b.nproc)
	sp = log.begin("parascan.findall_parallel", b.layers.nextOp(), 0, len(in))
	start = time.Now()
	got, err := b.eng.FindAllParallel(context.Background(), in, l.popts)
	dt = time.Since(start)
	log.end(sp)
	after = l.ref.parallelNSPerByte(b.nproc)
	switch {
	case err != nil:
		log.drop(sp)
		b.fail(fmt.Errorf("FindAllParallel of input %d: %w", k, err))
	case !b.check(equalMatches(got, ref), "FindAllParallel of input %d differs from FindAll: %d vs %d matches",
		k, len(got), len(ref)):
		log.drop(sp)
	default:
		b.layers.addParBytes(len(in))
		l.par.add(m, nsPerByte(len(in), dt), before, after)
	}
}

// simulate runs a fresh ArchBVAP simulator over the next slice and returns
// its time per byte, if its answer was right.
func (l *inprocLoad) simulate(log *spanLog) (float64, bool) {
	b := l.b
	j := l.i % len(b.simSlices)
	slice := b.simSlices[j]
	sp := log.begin("hwsim.run", b.layers.nextOp(), 0, len(slice))
	start := time.Now()
	sim, err := b.eng.NewSimulator(bvap.ArchBVAP)
	if err != nil {
		log.drop(sp)
		b.fail(fmt.Errorf("NewSimulator: %w", err))
		return 0, false
	}
	sim.Run(slice)
	r := sim.Result()
	dt := time.Since(start)
	log.end(sp)
	if !b.check(r.Matches == uint64(b.simRefs[j]), "simulator on slice %d: %d matches, FindAll %d",
		j, r.Matches, b.simRefs[j]) {
		log.drop(sp)
		return 0, false
	}
	if l.i < len(b.simSlices) {
		l.simEnergyNJ += r.EnergyPerSymbolNJ * float64(r.Symbols)
		l.simSymbols += r.Symbols
	}
	if l.i == 0 {
		l.simStats = *sim.Stats()
	}
	return nsPerByte(len(slice), dt), true
}
