package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/prompts"
)

// The benchmark's inputs are all derived from the fixed evaluation corpus
// (generator.Corpus, 609 samples) and the seed. The seed drives the
// permutation, the Zipf draws, the uniquifying tags, the edit streams and
// the repository layout; the program under test only ever sees the
// generated texts.

var (
	corpusOnce    sync.Once
	corpusSamples []generator.Sample
	corpusErr     error
)

// loadCorpus returns the evaluation corpus, generated once per process.
func loadCorpus() ([]generator.Sample, error) {
	corpusOnce.Do(func() {
		corpusSamples, corpusErr = generator.Corpus(prompts.All())
		if corpusErr == nil && len(corpusSamples) == 0 {
			corpusErr = fmt.Errorf("generator returned an empty corpus")
		}
	})
	return corpusSamples, corpusErr
}

// subRand returns the random source for one named input stream of a
// seed, so that streams stay independent: drawing more warm-up requests
// never shifts the measured ones.
func subRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// Input stream identifiers for subRand.
const (
	streamPerm = iota + 1
	streamHot
	streamHotWarm
	streamBuffers
	streamRepo
	streamEdits = 1000 // + session index
)

// tag prefixes code with a unique comment line, so that no cache can
// answer the request while the detector, which masks comments, sees the
// same code one line lower.
func tag(seed int64, ns string, n int, code string) string {
	return fmt.Sprintf("# pipbench %d-%s%d\n%s", seed, ns, n, code)
}

// editorReq is one stateless editor request: a verb on a corpus sample,
// raw or tagged.
type editorReq struct {
	verb string
	base int // corpus index
	code string
	body []byte
}

func newEditorReq(verb string, base int, code string) editorReq {
	body, err := json.Marshal(core.Request{Code: code})
	if err != nil {
		panic(err) // a string field always marshals
	}
	return editorReq{verb: verb, base: base, code: code, body: body}
}

// flowVerbs is the paper's Fig. 1 popup flow: findings, then fix
// previews, then the patch the user accepted.
var flowVerbs = [...]string{"detect", "suggest", "patch"}

// coldStream yields editor-cold traffic: flow n is a tagged corpus sample
// taken from the seeded permutation, sent as detect, suggest, patch.
type coldStream struct {
	seed    int64
	ns      string
	perm    []int
	samples []generator.Sample
	i       int
	flow    editorReq
}

func newColdStream(seed int64, ns string, samples []generator.Sample) *coldStream {
	return &coldStream{seed: seed, ns: ns, perm: subRand(seed, streamPerm).Perm(len(samples)), samples: samples}
}

func (s *coldStream) next() editorReq {
	n, step := s.i/len(flowVerbs), s.i%len(flowVerbs)
	s.i++
	if step == 0 {
		base := s.perm[n%len(s.perm)]
		s.flow = newEditorReq(flowVerbs[0], base, tag(s.seed, s.ns, n, s.samples[base].Code))
		return s.flow
	}
	r := s.flow
	r.verb = flowVerbs[step]
	return r
}

// hotZipfS is the Zipf exponent of editor-hot's popularity draw.
const hotZipfS = 1.1

// hotUniqueShare is the share of editor-hot requests that are tagged and
// so unique. At 5% the latency p90 falls inside the cache hits; at 10% it
// sat on the edge between hits and misses and jumped between runs.
const hotUniqueShare = 0.05

// hotStream yields editor-hot traffic: mostly raw corpus sources drawn by
// Zipf rank over the seeded permutation, some tagged, detect or patch
// with equal odds.
type hotStream struct {
	seed    int64
	ns      string
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int
	samples []generator.Sample
	unique  int
}

func newHotStream(seed int64, ns string, stream int64, samples []generator.Sample) *hotStream {
	rng := subRand(seed, stream)
	return &hotStream{
		seed:    seed,
		ns:      ns,
		rng:     rng,
		zipf:    rand.NewZipf(rng, hotZipfS, 1, uint64(len(samples)-1)),
		perm:    subRand(seed, streamPerm).Perm(len(samples)),
		samples: samples,
	}
}

func (s *hotStream) next() editorReq {
	verb := "detect"
	if s.rng.Intn(2) == 1 {
		verb = "patch"
	}
	if s.rng.Float64() < hotUniqueShare {
		base := s.perm[s.unique%len(s.perm)]
		r := newEditorReq(verb, base, tag(s.seed, s.ns, s.unique, s.samples[base].Code))
		s.unique++
		return r
	}
	base := s.perm[s.zipf.Uint64()]
	return newEditorReq(verb, base, s.samples[base].Code)
}

// safeSamples returns the indexes of the truth-safe samples, the filler
// of session buffers and repository files.
func safeSamples(samples []generator.Sample) []int {
	var out []int
	for i, s := range samples {
		if !s.Truth.Vulnerable {
			out = append(out, i)
		}
	}
	return out
}

// withNewline returns code ending in a newline, so concatenated samples
// stay on their own lines.
func withNewline(code string) string {
	if strings.HasSuffix(code, "\n") {
		return code
	}
	return code + "\n"
}

// sessionBytes is the size an edit-stream buffer is padded to.
const sessionBytes = 16 << 10

// session is one edit-stream buffer: a base corpus sample padded with
// truth-safe samples.
type session struct {
	base int
	text string
}

// sessionBuffers builds n edit-stream buffers. Each holds one sample
// from the seeded permutation, padded with truth-safe samples in seeded
// order to sessionBytes: a file where findings are sparse, the regime
// incremental rescanning targets.
func sessionBuffers(seed int64, samples []generator.Sample, n int) []session {
	rng := subRand(seed, streamBuffers)
	perm := subRand(seed, streamPerm).Perm(len(samples))
	safe := safeSamples(samples)
	out := make([]session, n)
	for i := range out {
		var b strings.Builder
		base := perm[i%len(perm)]
		b.WriteString(withNewline(samples[base].Code))
		for b.Len() < sessionBytes {
			b.WriteString(withNewline(samples[safe[rng.Intn(len(safe))]].Code))
		}
		out[i] = session{base: base, text: b.String()}
	}
	return out
}

// Repository layout of repo-audit.
const (
	repoFiles    = 200
	repoMinBytes = 0.3 * 1024
	repoMaxBytes = 19 * 1024
)

// repoFile is one file of the audited repository.
type repoFile struct {
	path  string // slash-separated, relative to the repository root
	bases []int  // corpus samples embedded, in order
	text  string
}

// repoLayout builds the repo-audit repository. File sizes are the
// repoFiles quantiles of the log-uniform distribution between
// repoMinBytes and repoMaxBytes, dealt to files in seeded order, so the
// size mix is the same for every seed while contents and paths differ.
// Each file holds 1-3 corpus samples followed by truth-safe filler up to
// its size.
func repoLayout(seed int64, samples []generator.Sample, files int) []repoFile {
	rng := subRand(seed, streamRepo)
	safe := safeSamples(samples)
	sizes := make([]int, files)
	for i := range sizes {
		q := (float64(i) + 0.5) / float64(files)
		sizes[i] = int(repoMinBytes * math.Pow(repoMaxBytes/repoMinBytes, q))
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	out := make([]repoFile, files)
	for i := range out {
		depth := rng.Intn(4)
		parts := make([]string, 0, depth+1)
		for d := 0; d < depth; d++ {
			parts = append(parts, fmt.Sprintf("pkg%d", rng.Intn(6)))
		}
		parts = append(parts, fmt.Sprintf("mod%03d.py", i))
		f := repoFile{path: filepath.ToSlash(filepath.Join(parts...))}
		var b strings.Builder
		for k := 1 + rng.Intn(3); k > 0; k-- {
			base := rng.Intn(len(samples))
			f.bases = append(f.bases, base)
			b.WriteString(withNewline(samples[base].Code))
		}
		for {
			filler := withNewline(samples[safe[rng.Intn(len(safe))]].Code)
			if b.Len()+len(filler) > sizes[i] {
				break
			}
			b.WriteString(filler)
		}
		f.text = b.String()
		out[i] = f
	}
	return out
}

// editKeystrokes are in-line single insertions, the dominant event in a
// real editing stream.
var editKeystrokes = []string{"x", " ", "_", "0", "n", "v"}

// editSnippets are structural insertions that change line counts or
// indent profiles. All are quote-free: a quoted snippet landing inside a
// docstring would flip string balance for the rest of the buffer.
var editSnippets = []string{
	"# note\n", "pass\n", "a = 1\n", "def f():\n    return 1\n",
}

// editVulnSnippets create findings; they are mixed in at a low rate so a
// buffer does not grow denser than any editor file.
var editVulnSnippets = []string{
	"os.system(cmd)\n", "h = hashlib.md5(data)\n", "cfg = yaml.load(s)\n",
}

// nextEdit picks the next edit against cur: mostly single keystrokes
// inside a line, with occasional snippet inserts and whole-line deletes.
// Edits are line-aware (snippets land at line starts; keystrokes and
// deletes avoid lines carrying quotes or continuations), so the stream
// keeps the buffer tokenizable the way coherent human editing does. The
// stream is the one cmd/loadgen types, drawn from a seeded source.
func nextEdit(rng *rand.Rand, cur string) (start, end int, repl string) {
	for try := 0; try < 8; try++ {
		off := rng.Intn(len(cur) + 1)
		ls, le := lineSpanAt(cur, off)
		switch {
		case rng.Intn(8) == 0 && len(cur) > 4<<10:
			if !quoteFree(cur[ls:le]) {
				continue
			}
			start, end = ls, le
			if end < len(cur) {
				end++ // take the newline with the line
			}
			return start, end, ""
		case rng.Intn(4) == 0:
			if rng.Intn(8) == 0 {
				return ls, ls, editVulnSnippets[rng.Intn(len(editVulnSnippets))]
			}
			return ls, ls, editSnippets[rng.Intn(len(editSnippets))]
		default:
			if !quoteFree(cur[ls:le]) {
				continue
			}
			// Keystrokes land after the leading whitespace: touching a
			// line's indent dedents some later line onto a level that no
			// longer exists, and the stream never types the fix.
			ie := ls
			for ie < le && cur[ie] == ' ' {
				ie++
			}
			if ie == le && ie > ls {
				continue
			}
			if off < ie {
				off = ie
			}
			repl = editKeystrokes[rng.Intn(len(editKeystrokes))]
			if repl == " " && off <= ie {
				if ie == le {
					continue
				}
				off = ie + 1
			}
			return off, off, repl
		}
	}
	// Every probed line carried a quote; append a safe statement line.
	return len(cur), len(cur), "a = 1\n"
}

// lineSpanAt returns the [start, end) span of the line containing off,
// excluding the trailing newline.
func lineSpanAt(s string, off int) (int, int) {
	ls := strings.LastIndexByte(s[:off], '\n') + 1
	le := strings.IndexByte(s[off:], '\n')
	if le < 0 {
		le = len(s)
	} else {
		le += off
	}
	return ls, le
}

// quoteFree reports whether editing inside s cannot split a string
// delimiter or a backslash continuation.
func quoteFree(s string) bool {
	return !strings.ContainsAny(s, `'"\`)
}
