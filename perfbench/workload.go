package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"bvap/internal/datasets"
	"bvap/internal/rebar"
	"bvap/internal/workload"
)

// A workload fixes a rule set, the generators of its inputs, and how the
// measured seconds are shared between the three paths every run measures:
// the in-process library scan, POST /scan on one daemon, and the two-node
// session stream. Every path runs on every workload so that each run reports
// every metric, but each workload spends most of its time on the path it is
// named for.
type workloadSpec struct {
	name string
	// rules loads the rule set; the daemons read the same rules from a
	// pattern file, one per line.
	rules func(root string) ([]string, error)
	// corpus generates n bytes of the workload's input from seed.
	corpus func(seed int64, n int, rules []string) []byte
	// bodies generates the request bodies sent to POST /scan and keyed
	// /cluster/scan.
	bodies func(seed int64, count int, rules []string) [][]byte
	// inputBytes is the size of one in-process input, scanned by one op.
	inputBytes int
	// A run is a sequence of rounds of this length; each round runs the
	// three paths in turn for these shares of it, so every path samples the
	// whole run and drifts of the host's speed reach all paths alike.
	round                time.Duration
	inproc, serve, fleet float64
	// swmatchSlice is the size of the seeded slice checked against the
	// independent swmatch reference; swmatch is ~50x slower than FindAll.
	swmatchSlice int
}

const (
	snortRules = 40
	// logRuleNames are the literal-led log rules of corpus-logs.toml.
	logRuleFile = "testdata/rebar/corpus-logs.toml"
)

var logRuleNames = []string{"req-id", "status-5xx", "level-alt", "timestamp", "dur-band"}

func snortProfile() datasets.Profile {
	p, err := datasets.ByName("Snort")
	if err != nil {
		panic(err) // the profile table is compiled in
	}
	return p
}

func snortCorpus(seed int64, n int, rules []string) []byte {
	p := snortProfile()
	return workload.Corpus(seed, n, p.Alphabet, rules, p.MatchRate)
}

func logRules(root string) ([]string, error) {
	s, err := rebar.LoadFile(filepath.Join(root, logRuleFile))
	if err != nil {
		return nil, fmt.Errorf("load log rules: %w", err)
	}
	byName := map[string]string{}
	for _, c := range s.Cases {
		byName[c.Name] = c.Regex
	}
	var out []string
	for _, n := range logRuleNames {
		re, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("log rule %q missing from %s", n, logRuleFile)
		}
		out = append(out, re)
	}
	return out, nil
}

func logCorpus(seed int64, n int, _ []string) []byte { return workload.LogLines(seed, n) }

// logBodies cuts whole log lines into bodies of two to four lines, a few
// hundred bytes each: what a log shipper sends per batch.
func logBodies(seed int64, count int, _ []string) [][]byte {
	text := workload.LogLines(seed, count*4*200)
	lines := bytes.SplitAfter(text, []byte("\n"))
	lines = lines[:len(lines)-1] // the generator cuts its last line short
	r := rand.New(rand.NewSource(seed))
	var out [][]byte
	for len(out) < count && len(lines) >= 4 {
		k := 2 + r.Intn(3)
		out = append(out, bytes.Join(lines[:k], nil))
		lines = lines[k:]
	}
	return out
}

// snortBodies cuts a Snort-profile corpus into 512-byte packets.
func snortBodies(seed int64, count int, rules []string) [][]byte {
	const size = 512
	text := snortCorpus(seed, count*size, rules)
	out := make([][]byte, count)
	for i := range out {
		out[i] = text[i*size : (i+1)*size]
	}
	return out
}

var workloads = []*workloadSpec{
	// MiB-sized library scans of 40 Snort rules: the runner dominates and
	// automata are rarely quiescent.
	{
		name: "snort-bulk",
		rules: func(string) ([]string, error) {
			return snortProfile().Generate(snortRules), nil
		},
		corpus:       snortCorpus,
		bodies:       snortBodies,
		inputBytes:   256 << 10, // one FindAll takes about a quarter second
		round:        2 * time.Second,
		inproc:       0.7,
		serve:        0.15,
		fleet:        0.15,
		swmatchSlice: 4 << 10,
	},
	// Small log batches over POST /scan: per-request cost dominates and
	// automata are quiescent after half the bytes.
	{
		name:         "logs-serve",
		rules:        logRules,
		corpus:       logCorpus,
		bodies:       logBodies,
		inputBytes:   1 << 20,
		round:        2 * time.Second,
		inproc:       0.55,
		serve:        0.3,
		fleet:        0.15,
		swmatchSlice: 64 << 10,
	},
	// Log streams through two-node sessions: replicated checkpoints and
	// forwarded keyed scans, the write path beside logs-serve's reads.
	{
		name:         "fleet-stream",
		rules:        logRules,
		corpus:       logCorpus,
		bodies:       logBodies,
		inputBytes:   1 << 20,
		round:        2 * time.Second,
		inproc:       0.55,
		serve:        0.1,
		fleet:        0.35,
		swmatchSlice: 64 << 10,
	},
}

// patternFile writes rules as a bvapd pattern file, one rule per line. The
// daemon trims each line and skips lines that start with '#', so a rule's
// whitespace at either end, and a leading '#', are written as \xHH escapes,
// which the parser reads as the same bytes. The gates on every daemon answer
// check that the daemons run the same rules.
func patternFile(rules []string) string {
	var sb strings.Builder
	for _, re := range rules {
		body := strings.TrimLeft(re, fileSpace)
		head := re[:len(re)-len(body)]
		if head == "" && strings.HasPrefix(body, "#") {
			head, body = "#", body[1:]
		}
		rest := strings.TrimRight(body, fileSpace)
		tail := body[len(rest):]
		// A trailing space after an odd run of backslashes was escaped;
		// its \xHH form replaces the escape.
		if tail != "" && (len(rest)-len(strings.TrimRight(rest, `\`)))%2 == 1 {
			rest = rest[:len(rest)-1]
		}
		for _, c := range []byte(head) {
			fmt.Fprintf(&sb, `\x%02x`, c)
		}
		sb.WriteString(rest)
		for _, c := range []byte(tail) {
			fmt.Fprintf(&sb, `\x%02x`, c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// fileSpace is what strings.TrimSpace trims, in ASCII.
const fileSpace = " \t\n\v\f\r"

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
