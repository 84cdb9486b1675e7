package bvap

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
)

// checkpointInput builds a deterministic stream with matches sprinkled
// through it for the given seed.
func checkpointInput(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 0, n)
	for len(buf) < n {
		switch rng.Intn(4) {
		case 0:
			buf = append(buf, []byte("abbc")...)
		case 1:
			buf = append(buf, []byte("abbbbbc")...)
		default:
			buf = append(buf, byte('a'+rng.Intn(4)))
		}
	}
	return buf[:n]
}

// A restored stream continues exactly where the checkpoint was taken: the
// suffix matches of the interrupted run equal the reference run's.
func TestStreamCheckpointRestore(t *testing.T) {
	e := MustCompile([]string{"ab{2}c", "ab{2,5}c", "c{3}"})
	input := checkpointInput(7, 40<<10)
	cut := len(input) / 3

	want := e.FindAll(input)

	s := e.NewStream()
	var got []Match
	pre, err := s.ScanContext(context.Background(), input[:cut])
	if err != nil {
		t.Fatalf("prefix scan: %v", err)
	}
	got = append(got, pre...)
	ck := s.Checkpoint()
	if ck.Symbols() != int64(cut) {
		t.Fatalf("checkpoint Symbols() = %d, want %d", ck.Symbols(), cut)
	}

	// Wander off: scan garbage, corrupting the live state.
	if _, err := s.ScanContext(context.Background(), bytes.Repeat([]byte("abbcz"), 100)); err != nil {
		t.Fatalf("garbage scan: %v", err)
	}

	// Rewind and run the true suffix.
	if err := s.Restore(ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	suf, err := s.ScanContext(context.Background(), input[cut:])
	if err != nil {
		t.Fatalf("suffix scan: %v", err)
	}
	for _, m := range suf {
		got = append(got, Match{Pattern: m.Pattern, End: m.End + cut})
	}

	if len(got) != len(want) {
		t.Fatalf("interrupted run: %d matches, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: %+v != reference %+v", i, got[i], want[i])
		}
	}
}

// The symbol cursor counts every consumed symbol, whether it came through
// Step or ScanContext, exactly once, and the symbol budget meters the same
// cursor.
func TestStreamSymbolCursor(t *testing.T) {
	e := MustCompile([]string{"ab{2}c"})
	s := e.NewStream()
	for _, b := range []byte("abbcab") {
		s.Step(b)
	}
	if got := s.Checkpoint().Symbols(); got != 6 {
		t.Fatalf("after six Steps, checkpoint Symbols() = %d, want 6", got)
	}
	if _, err := s.ScanContext(context.Background(), []byte("bc")); err != nil {
		t.Fatal(err)
	}
	if got := s.Checkpoint().Symbols(); got != 8 {
		t.Fatalf("after six Steps and a 2-byte scan, Symbols() = %d, want 8", got)
	}

	// A budget of 10 leaves room for exactly two more symbols.
	s.SetBudget(Budget{MaxSymbols: 10})
	ms, err := s.ScanContext(context.Background(), []byte("abbc"))
	var be *BudgetError
	if !errors.As(err, &be) || be.Used != 10 {
		t.Fatalf("budget stop: err %v, want a BudgetError at 10 symbols", err)
	}
	if len(ms) != 0 || s.Checkpoint().Symbols() != 10 {
		t.Fatalf("budgeted scan: %v matches at cursor %d, want none at 10", ms, s.Checkpoint().Symbols())
	}

	s.Reset()
	if got := s.Checkpoint().Symbols(); got != 0 {
		t.Fatalf("after Reset, Symbols() = %d, want 0", got)
	}
}

// A checkpoint restores onto any stream of the same engine — including a
// freshly built one, the restart scenario.
func TestStreamCheckpointCrossStream(t *testing.T) {
	e := MustCompile([]string{"ab{3}c"})
	input := checkpointInput(11, 8<<10)
	cut := len(input) / 2
	want := e.FindAll(input)

	s1 := e.NewStream()
	pre, err := s1.ScanContext(context.Background(), input[:cut])
	if err != nil {
		t.Fatal(err)
	}
	ck := s1.Checkpoint()

	s2 := e.NewStream() // "new process"
	if err := s2.Restore(ck); err != nil {
		t.Fatalf("cross-stream Restore: %v", err)
	}
	suf, err := s2.ScanContext(context.Background(), input[cut:])
	if err != nil {
		t.Fatal(err)
	}
	got := append([]Match{}, pre...)
	for _, m := range suf {
		got = append(got, Match{Pattern: m.Pattern, End: m.End + cut})
	}
	if len(got) != len(want) {
		t.Fatalf("resumed run: %d matches, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// Restoring a checkpoint across engines is rejected, as is a nil one.
func TestStreamCheckpointWrongEngine(t *testing.T) {
	e1 := MustCompile([]string{"ab{2}c"})
	e2 := MustCompile([]string{"ab{2}c"})
	ck := e1.NewStream().Checkpoint()
	if err := e2.NewStream().Restore(ck); err == nil {
		t.Error("Restore accepted a checkpoint from a different engine")
	}
	if err := e1.NewStream().Restore(nil); err == nil {
		t.Error("Restore accepted a nil checkpoint")
	}
}

// The simulator checkpoint rewinds functional state: matches produced after
// a restore equal the uninterrupted run's suffix, even though the work
// discarded by the rollback stays on the meter.
func TestSimulatorCheckpointRestore(t *testing.T) {
	patterns := []string{"ab{2}c", "ab{2,5}c"}
	input := checkpointInput(13, 16<<10)
	cut := len(input) / 2

	ref := MustCompile(patterns)
	rsim, err := ref.NewSimulator(ArchBVAPStreaming)
	if err != nil {
		t.Fatal(err)
	}
	rsim.Run(input)
	wantMatches := rsim.Stats().Matches

	e := MustCompile(patterns)
	sim, err := e.NewSimulator(ArchBVAPStreaming)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(input[:cut])
	atCut := sim.Stats().Matches
	ck, err := sim.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	sim.Run(bytes.Repeat([]byte("abbc"), 200)) // doomed work
	afterGarbage := sim.Stats().Matches
	if err := sim.Restore(ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	sim.Run(input[cut:])
	total := sim.Stats().Matches

	if got := atCut + (total - afterGarbage); got != wantMatches {
		t.Errorf("prefix+suffix matches = %d, uninterrupted reference %d", got, wantMatches)
	}
}

// Baselines cannot checkpoint; foreign checkpoints are rejected.
func TestSimulatorCheckpointErrors(t *testing.T) {
	base, err := NewBaselineSimulator(ArchCAMA, []string{"ab{2}c"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Checkpoint(); err == nil {
		t.Error("baseline Checkpoint() succeeded")
	}

	e := MustCompile([]string{"ab{2}c"})
	s1, _ := e.NewSimulator(ArchBVAP)
	s2, _ := e.NewSimulator(ArchBVAP)
	ck, err := s1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(ck); err == nil {
		t.Error("Restore accepted another simulator's checkpoint")
	}
	if err := s1.Restore(nil); err == nil {
		t.Error("Restore accepted a nil checkpoint")
	}
}
