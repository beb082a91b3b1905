package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/oracle"
)

// inputDigest renders every seeded input of a seed: the first requests
// of both editor streams, the session buffers with their first edits,
// and the repository layout.
func inputDigest(t *testing.T, seed int64) []byte {
	t.Helper()
	samples, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	cold := newColdStream(seed, "", samples)
	hot := newHotStream(seed, "", streamHot, samples)
	for i := 0; i < 300; i++ {
		c, h := cold.next(), hot.next()
		fmt.Fprintf(&b, "%s %s\n%s %s\n", c.verb, c.body, h.verb, h.body)
	}
	for i, s := range sessionBuffers(seed, samples, 4) {
		rng := subRand(seed, streamEdits+int64(i))
		cur := s.text
		fmt.Fprintf(&b, "session %d\n%s", s.base, cur)
		for k := 0; k < 50; k++ {
			start, end, repl := nextEdit(rng, cur)
			fmt.Fprintf(&b, "edit %d %d %q\n", start, end, repl)
			cur = cur[:start] + repl + cur[end:]
		}
	}
	for _, f := range repoLayout(seed, samples, 40) {
		fmt.Fprintf(&b, "file %s %v\n%s", f.path, f.bases, f.text)
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := inputDigest(t, 7), inputDigest(t, 7), inputDigest(t, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different inputs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestRepoSizesDoNotDependOnSeed(t *testing.T) {
	samples, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	total := func(seed int64) (n int) {
		for _, f := range repoLayout(seed, samples, repoFiles) {
			n += len(f.text)
		}
		return n
	}
	a, b := total(1), total(2)
	if d := float64(a-b) / float64(a); d > 0.05 || d < -0.05 {
		t.Fatalf("repository size moves %.1f%% between seeds (%d vs %d bytes)", 100*d, a, b)
	}
}

// TestTagKeepsQuality checks that the uniquifying comment line changes
// neither any sample's verdict and rules nor the corpus-level precision,
// recall and repair rate, so tagged traffic measures the paper's numbers.
func TestTagKeepsQuality(t *testing.T) {
	samples, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	engine := core.New()
	engine.SetCacheBytes(0)
	orc := oracle.New()
	type score struct{ tp, fp, fn, vuln, fixed int }
	var raw, tagged score
	tally := func(s *score, truth bool, out core.FixOutcome, repaired bool) {
		det := out.Report.Vulnerable
		switch {
		case det && truth:
			s.tp++
		case det:
			s.fp++
		case truth:
			s.fn++
		}
		if truth {
			s.vuln++
			if det && repaired {
				s.fixed++
			}
		}
	}
	for i, s := range samples {
		code := tag(3, "", i, s.Code)
		a, b := engine.Fix(s.Code), engine.Fix(code)
		if a.Report.Vulnerable != b.Report.Vulnerable || ruleIDs(a) != ruleIDs(b) {
			t.Fatalf("sample %d: tag changed the verdict: %s vs %s", i, ruleIDs(a), ruleIDs(b))
		}
		if !strings.Contains(b.Result.Source, "# pipbench 3-") {
			t.Fatalf("sample %d: patch dropped the tag line", i)
		}
		truth := orc.Vulnerable(s)
		tally(&raw, truth, a, orc.Repaired(s, a.Result.Source))
		tally(&tagged, truth, b, orc.Repaired(s, b.Result.Source))
	}
	if raw != tagged {
		t.Fatalf("tag changed the corpus scores: raw %+v, tagged %+v", raw, tagged)
	}
	if raw.tp == 0 || raw.fixed == 0 {
		t.Fatalf("degenerate scores %+v", raw)
	}
}

func ruleIDs(o core.FixOutcome) string {
	ids := make([]string, len(o.Report.Findings))
	for i, f := range o.Report.Findings {
		ids[i] = f.Rule.ID
	}
	return strings.Join(ids, ",")
}
