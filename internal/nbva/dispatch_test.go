package nbva

import (
	"testing"

	"bvap/internal/regex"
)

// TestDispatchTable checks the table against its definition over more
// than 64 machines (two bitset words), with nil entries: a machine is in
// Trigger(b) exactly when it is unanchored and one of its initial classes
// holds b, and Anchored holds exactly the ^-anchored machines. It also
// checks the rule both drivers rely on: an idle runner that Trigger(b)
// leaves out stays idle, reports no match and counts no work on b.
func TestDispatchTable(t *testing.T) {
	pats := []string{"ab{2}c", "^xy", "[a-c]d{3}", "(?i)q.{2}z", "^[0-9]{2}", "(x|[0-3])a{2,4}"}
	machines := make([]*AHNBVA, 70)
	for i := range machines {
		if i%7 == 3 {
			continue // unsupported pattern
		}
		machines[i] = MustTransform(MustBuild(regex.MustParse(pats[i%len(pats)])))
	}
	d := NewDispatch(machines)
	if d.Words() != 2 {
		t.Fatalf("Words() = %d, want 2", d.Words())
	}
	for i, m := range machines {
		bit := d.Anchored()[i>>6] >> (i & 63) & 1
		if want := m != nil && m.Anchored; (bit == 1) != want {
			t.Fatalf("machine %d: anchored bit %d, want %v", i, bit, want)
		}
	}
	for b := 0; b < 256; b++ {
		trig := d.Trigger(byte(b))
		if len(trig) != d.Words() {
			t.Fatalf("Trigger(%d) has %d words", b, len(trig))
		}
		for i, m := range machines {
			want := false
			if m != nil && !m.Anchored {
				for _, q := range m.Initial {
					want = want || m.States[q].Class.Contains(byte(b))
				}
			}
			if got := trig[i>>6]>>(i&63)&1 == 1; got != want {
				t.Fatalf("byte %#x, machine %d (%q): triggered %v, want %v", b, i, pats[i%len(pats)], got, want)
			}
			if m == nil || m.Anchored || want {
				continue
			}
			r := NewAHRunner(m)
			if r.Step(byte(b)) || r.ActiveStates() != 0 || r.ReadOps() != 0 || r.SwapOps() != 0 {
				t.Fatalf("byte %#x moved untriggered idle machine %d (%q)", b, i, pats[i%len(pats)])
			}
		}
	}
}
