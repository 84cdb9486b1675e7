package bvap

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"bvap/internal/telemetry"
)

// dispatchPatterns mixes ^-anchored and unanchored machines so that the
// live, trigger and pending sets all take part.
var dispatchPatterns = []string{
	"^ab{2,4}c",  // 0: anchored, matches at the stream start
	"b{3}c",      // 1
	"^x",         // 2: anchored, dies on the first byte
	"(?i)ab{2}",  // 3
	"c{2}d",      // 4
	"^(?i)q{2}z", // 5: anchored, never matches
}

const dispatchInput = "abbbc-abbc-ccd-bbbc-ABB-abbbbc-abbbc-ccd"

// TestDispatchCheckpointResume pins the stream's dispatch state across
// checkpoints: restored in memory (Stream.Restore onto a stream that has
// already scanned other bytes) and over the wire (MarshalBinary →
// ResumeSessionBytes), every cut delivers exactly the matches of an
// uninterrupted FindAll, and the restored live and pending sets equal those
// of a stream that ran straight to the cut.
func TestDispatchCheckpointResume(t *testing.T) {
	e := MustCompile(dispatchPatterns)
	input := []byte(dispatchInput)
	want := e.FindAll(input)
	anchored := e.dispatch.Anchored()[0]
	if anchored != 1<<0|1<<2|1<<5 {
		t.Fatalf("anchored set %b, want machines 0, 2 and 5", anchored)
	}

	cases := []struct {
		name string
		cut  int
		// anchoredLive is the live subset of the anchored machines at
		// the cut; pending is the whole pending set.
		anchoredLive, pending uint64
	}{
		{name: "symbol-0", cut: 0, anchoredLive: 0, pending: anchored},
		{name: "mid-match", cut: 3, anchoredLive: 1 << 0, pending: 0},
		{name: "anchored-died", cut: 8, anchoredLive: 0, pending: 0},
	}
	ctx := context.Background()
	for _, tc := range cases {
		ref := e.NewStream()
		for _, b := range input[:tc.cut] {
			ref.Step(b)
		}
		if got := ref.live[0] & anchored; got != tc.anchoredLive {
			t.Fatalf("%s: anchored live %b at the cut, want %b", tc.name, got, tc.anchoredLive)
		}
		if ref.pending[0] != tc.pending {
			t.Fatalf("%s: pending %b at the cut, want %b", tc.name, ref.pending[0], tc.pending)
		}

		t.Run(tc.name+"/memory", func(t *testing.T) {
			s := e.NewStream()
			got, err := s.ScanContext(ctx, input[:tc.cut])
			if err != nil {
				t.Fatal(err)
			}
			ck := s.Checkpoint()
			if ck.Symbols() != int64(tc.cut) {
				t.Fatalf("checkpoint at symbol %d, want %d", ck.Symbols(), tc.cut)
			}
			dirty := e.NewStream()
			if _, err := dirty.ScanContext(ctx, []byte("xabbbcc")); err != nil {
				t.Fatal(err)
			}
			if err := dirty.Restore(ck); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dirty.live, ref.live) || !slices.Equal(dirty.pending, ref.pending) {
				t.Fatalf("restored live/pending %x/%x, uninterrupted %x/%x", dirty.live, dirty.pending, ref.live, ref.pending)
			}
			rest, err := dirty.ScanContext(ctx, input[tc.cut:])
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rest {
				got = append(got, Match{Pattern: m.Pattern, End: m.End + tc.cut})
			}
			if !matchesEqual(got, want) {
				t.Fatalf("resumed %v\nFindAll %v", got, want)
			}
		})

		t.Run(tc.name+"/wire", func(t *testing.T) {
			svc, err := NewService(dispatchPatterns, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			wire, got := wireSessionCheckpoint(t, svc, input[:tc.cut], 1<<20)
			rs, err := svc.ResumeSessionBytes(wire, &SessionConfig{
				CheckpointInterval: 1 << 20,
				OnMatch:            func(m Match) { got = append(got, m) },
			})
			if err != nil {
				t.Fatalf("ResumeSessionBytes: %v", err)
			}
			if rs.Pos() != int64(tc.cut) {
				t.Fatalf("resumed at %d, want %d", rs.Pos(), tc.cut)
			}
			if !slices.Equal(rs.stream.live, ref.live) || !slices.Equal(rs.stream.pending, ref.pending) {
				t.Fatalf("resumed live/pending %x/%x, uninterrupted %x/%x", rs.stream.live, rs.stream.pending, ref.live, ref.pending)
			}
			if err := rs.Feed(nil, input[tc.cut:]); err != nil {
				t.Fatal(err)
			}
			rs.Close()
			if !matchesEqual(got, want) {
				t.Fatalf("resumed %v\nFindAll %v", got, want)
			}
		})
	}
}

// TestDispatchStepsOnlyMovableRunners pins what Step moves, through the
// instrumented runner-step counter: the first byte steps the pending
// anchored runner, a byte in no machine's initial class steps nothing, a
// trigger byte steps only the machines it can start, and a live runner
// keeps stepping until its frontier empties.
func TestDispatchStepsOnlyMovableRunners(t *testing.T) {
	e := MustCompile([]string{"ab", "xy", "^q"})
	reg := telemetry.NewRegistry()
	s := e.NewStream()
	s.Instrument(reg)
	steps := reg.Counter(MetricEngineRunnerSteps, "")
	var hits []int
	for i, tc := range []struct {
		b    byte
		want uint64 // runners this byte steps
	}{
		{'z', 1}, {'z', 0}, {'a', 1}, {'b', 1}, {'z', 1},
		{'x', 1}, {'a', 2}, {'y', 1}, {'q', 0}, {'b', 0},
	} {
		before := steps.Value()
		for _, p := range s.Step(tc.b) {
			hits = append(hits, i<<8|p)
		}
		if got := steps.Value() - before; got != tc.want {
			t.Fatalf("byte %d (%q) stepped %d runners, want %d", i, tc.b, got, tc.want)
		}
	}
	if fmt.Sprint(hits) != fmt.Sprint([]int{3<<8 | 0}) {
		t.Fatalf("hits %v, want only ab at byte 3", hits)
	}
}
