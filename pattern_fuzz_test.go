package bvap

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bvap/internal/swmatch"
)

// patternGen derives a bounded-repetition regex from fuzz bytes. Every
// choice reads one byte; an exhausted source reads zeros, which picks the
// smallest production, so generation always terminates.
type patternGen struct {
	src []byte
	pos int
}

func (g *patternGen) pick(n int) int {
	if g.pos >= len(g.src) {
		return 0
	}
	b := g.src[g.pos]
	g.pos++
	return int(b) % n
}

// genLiterals and genClasses draw from the same small alphabet as the
// fuzzed input (fuzzInputAlphabet), so generated patterns actually match.
var (
	genLiterals = []string{"a", "b", "c", "A", "1", "-"}
	genClasses  = []string{"[ab]", "[^a]", "[a-c]", "[0-9]", `\w`, "[A-Ca]"}
)

// fuzzInputAlphabet is what fuzzed input bytes are folded onto.
const fuzzInputAlphabet = "aabbcA1-\n\xe9"

// pattern emits [(?i)][^]alt.
func (g *patternGen) pattern() string {
	var sb strings.Builder
	flags := g.pick(4)
	if flags&1 != 0 {
		sb.WriteString("(?i)")
	}
	if flags&2 != 0 {
		sb.WriteByte('^')
	}
	g.alt(&sb, 0)
	return sb.String()
}

func (g *patternGen) alt(sb *strings.Builder, depth int) {
	n := 1
	if depth < 2 {
		n += g.pick(3)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte('|')
		}
		g.seq(sb, depth)
	}
}

func (g *patternGen) seq(sb *strings.Builder, depth int) {
	for n := 1 + g.pick(4); n > 0; n-- {
		g.atom(sb, depth)
		g.repeat(sb)
	}
}

func (g *patternGen) atom(sb *strings.Builder, depth int) {
	switch g.pick(6) {
	case 0, 1:
		sb.WriteString(genLiterals[g.pick(len(genLiterals))])
	case 2:
		sb.WriteString(genClasses[g.pick(len(genClasses))])
	case 3:
		sb.WriteByte('.')
	default:
		if depth >= 2 {
			sb.WriteString(genLiterals[g.pick(len(genLiterals))])
			return
		}
		sb.WriteByte('(')
		g.alt(sb, depth+1)
		sb.WriteByte(')')
	}
}

// repeat appends an optional quantifier: mostly bounded counters, with the
// occasional ?, + or {n,} so unbounded reach (the FindAllParallel
// fallback) is covered too.
func (g *patternGen) repeat(sb *strings.Builder) {
	switch g.pick(10) {
	case 3, 4:
		fmt.Fprintf(sb, "{%d}", 1+g.pick(8))
	case 5, 6:
		lo := g.pick(5)
		fmt.Fprintf(sb, "{%d,%d}", lo, lo+1+g.pick(8))
	case 7:
		fmt.Fprintf(sb, "{%d,}", 1+g.pick(4))
	case 8:
		sb.WriteByte('?')
	case 9:
		sb.WriteByte('+')
	}
}

// maxFuzzUnfolded bounds the unfolded size of a generated pattern: swmatch
// unfolds every counter and keeps a quadratic follow relation.
const maxFuzzUnfolded = 256

// FuzzPatternsAgainstReference fuzzes patterns as well as inputs: the
// grammar bytes become one to three bounded-repetition regexes (nested
// counters, classes, alternation, (?i), a leading ^), compiled as one set.
// The fuzzed input is folded onto the patterns' alphabet, and the match
// ends must agree across FindAll, per-pattern swmatch, the BVAP and BVAP-S
// simulators, FindAllParallel, and a Stream fed in two parts around a
// Checkpoint/Restore onto a fresh stream. Run with `go test -fuzz FuzzPatternsAgainstReference .` for a
// longer campaign; CI runs a 15-second smoke.
func FuzzPatternsAgainstReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, []byte("abcabc"), uint16(3))
	f.Add([]byte{2, 0, 1, 0, 0, 5, 2, 0}, []byte("aaabbbccc"), uint16(1))
	f.Add([]byte{1, 2, 5, 3, 1, 4, 2, 6, 3, 9, 0, 1}, []byte("AbAbaBcc11--"), uint16(7))
	f.Add([]byte{3, 1, 4, 2, 2, 3, 0, 1, 5, 3, 6, 1, 1, 4, 7}, []byte("a1b2c3a1b2c3\n"), uint16(0))
	f.Add([]byte{0, 2, 4, 1, 1, 0, 0, 2, 5, 0, 1, 3, 3, 1, 2, 7, 9, 8}, make([]byte, 64), uint16(40))

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, grammar, raw []byte, cut uint16) {
		if len(grammar) > 256 {
			grammar = grammar[:256]
		}
		if len(raw) > 1<<10 {
			raw = raw[:1<<10]
		}
		g := &patternGen{src: grammar}
		var patterns []string
		for n := 1 + g.pick(3); n > 0; n-- {
			p := g.pattern()
			if _, _, unfolded, err := AnalyzePattern(p); err != nil {
				t.Fatalf("generator produced unparsable %q: %v", p, err)
			} else if unfolded <= maxFuzzUnfolded {
				patterns = append(patterns, p)
			}
		}
		if len(patterns) == 0 {
			return
		}
		input := make([]byte, len(raw))
		for i, b := range raw {
			input[i] = fuzzInputAlphabet[int(b)%len(fuzzInputAlphabet)]
		}

		e, err := Compile(patterns)
		if err != nil {
			t.Fatalf("Compile must isolate per-pattern failures, got %v", err)
		}
		want := e.FindAll(input)

		// FindAll against swmatch, pattern by pattern. Unsupported
		// patterns never match.
		ends := make([][]int, len(patterns))
		for _, m := range want {
			ends[m.Pattern] = append(ends[m.Pattern], m.End)
		}
		rep := e.Report()
		for i, p := range patterns {
			var ref []int
			if rep.Patterns[i].Supported {
				ref = swmatch.MustNew(p).MatchEnds(input)
			}
			if fmt.Sprint(ends[i]) != fmt.Sprint(ref) {
				t.Fatalf("set %q, pattern %q on %q:\nFindAll %v\nswmatch %v", patterns, p, input, ends[i], ref)
			}
		}

		// The BVAP and BVAP-S simulators run the machines rebuilt from the
		// hardware image under their own dispatch; each supported
		// machine's ends must be FindAll's for its pattern.
		for _, arch := range []Architecture{ArchBVAP, ArchBVAPStreaming} {
			sim, err := e.NewSimulator(arch)
			if err != nil {
				t.Fatal(err)
			}
			sim.bvapSys.RecordMatchEnds(true)
			sim.Run(input)
			for i, p := range patterns {
				if !rep.Patterns[i].Supported {
					continue
				}
				if got := sim.bvapSys.MatchEnds(i); fmt.Sprint(got) != fmt.Sprint(ends[i]) {
					t.Fatalf("set %q, pattern %q on %q:\n%v %v\nFindAll %v", patterns, p, input, arch, got, ends[i])
				}
			}
		}

		chunk := 1 + int(cut)%17
		par, err := e.FindAllParallel(ctx, input, &ParallelOptions{Workers: 2, ChunkSize: chunk})
		if err != nil {
			t.Fatalf("FindAllParallel: %v", err)
		}
		if !matchesEqual(par, want) {
			t.Fatalf("set %q on %q (chunk %d):\nFindAllParallel %v\nFindAll         %v", patterns, input, chunk, par, want)
		}

		k := 0
		if len(input) > 0 {
			k = int(cut) % (len(input) + 1)
		}
		s := e.NewStream()
		got, err := s.ScanContext(ctx, input[:k])
		if err != nil {
			t.Fatal(err)
		}
		ck := s.Checkpoint()
		s.Step('a') // disturb the original stream; the checkpoint must not care
		resumed := e.NewStream()
		if err := resumed.Restore(ck); err != nil {
			t.Fatal(err)
		}
		rest, err := resumed.ScanContext(ctx, input[k:])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rest {
			got = append(got, Match{Pattern: m.Pattern, End: m.End + k})
		}
		if !matchesEqual(got, want) {
			t.Fatalf("set %q on %q (cut %d):\nresumed Stream %v\nFindAll        %v", patterns, input, k, got, want)
		}
	})
}
