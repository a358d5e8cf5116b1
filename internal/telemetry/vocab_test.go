package telemetry

// Vocabulary-sync test: the span/metric/prune-reason constants declared in
// telemetry.go and the tables in docs/TELEMETRY.md must agree, in both
// directions, so the docs never drift from the code. The constants are
// read from the AST (not from a hand-maintained list) so adding a constant
// without documenting it fails here.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docPath is the vocabulary reference the constants must stay in sync with.
const docPath = "../../docs/TELEMETRY.md"

// vocabPrefixes are the constant-name prefixes that make up the public
// telemetry vocabulary.
var vocabPrefixes = []string{"Span", "Ctr", "Gauge", "Hist", "Prune", "Event"}

// telemetryConsts extracts every vocabulary constant (name -> string
// value) from telemetry.go's AST.
func telemetryConsts(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "telemetry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				matched := false
				for _, p := range vocabPrefixes {
					if strings.HasPrefix(name.Name, p) {
						matched = true
						break
					}
				}
				if !matched || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatalf("const %s: %v", name.Name, err)
				}
				out[name.Name] = v
			}
		}
	}
	if len(out) < 20 {
		t.Fatalf("suspiciously few vocabulary constants parsed: %d", len(out))
	}
	return out
}

// TestVocabularyDocumented asserts the code -> docs direction: every
// Span*/Ctr*/Gauge*/Hist* name and every Prune* reason declared in
// telemetry.go appears in docs/TELEMETRY.md.
func TestVocabularyDocumented(t *testing.T) {
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for name, value := range telemetryConsts(t) {
		needle := value
		if strings.HasPrefix(name, "Prune") || strings.HasPrefix(name, "Event") {
			// Prune reasons and event types are documented as bare
			// backticked words.
			needle = "`" + value + "`"
		}
		if !strings.Contains(text, needle) {
			t.Errorf("constant %s = %q is not documented in %s", name, value, docPath)
		}
	}
}

// dottedName matches the backticked dotted telemetry names the docs use
// (`discovery.paths_explored`, `relational.left_join`, ...). Placeholder
// forms like `discovery.pruned.<reason>` or `serve.http_seconds.<route>`
// contain '<' and do not match; the prefix constants they are composed
// from are covered by TestVocabularyDocumented instead.
var dottedName = regexp.MustCompile("`((?:discovery|relational|fselect|ml|serve|lake|cluster)\\.[a-z0-9_.]+)`")

// TestDocsMatchVocabulary asserts the docs -> code direction: every dotted
// telemetry name referenced in docs/TELEMETRY.md resolves to a declared
// constant — directly, or as a declared trailing-dot prefix constant
// (discovery.pruned., serve.http_requests., lake.tables., ...) plus a
// suffix; pruned compositions additionally require a declared reason.
func TestDocsMatchVocabulary(t *testing.T) {
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	consts := telemetryConsts(t)
	values := map[string]bool{}
	reasons := map[string]bool{}
	var prefixes []string
	for name, v := range consts {
		values[v] = true
		if strings.HasPrefix(name, "Prune") {
			reasons[v] = true
		}
		if strings.HasSuffix(v, ".") {
			prefixes = append(prefixes, v)
		}
	}
	composed := func(name string) bool {
		for _, p := range prefixes {
			if !strings.HasPrefix(name, p) || len(name) == len(p) {
				continue
			}
			if p == CtrPrunedPrefix {
				return reasons[strings.TrimPrefix(name, p)]
			}
			return true
		}
		return false
	}
	for _, m := range dottedName.FindAllStringSubmatch(string(doc), -1) {
		name := m[1]
		if values[name] || composed(name) {
			continue
		}
		t.Errorf("docs reference %q, which is not a telemetry constant (stale docs or missing constant?)", name)
	}
}

// bucketLine is the literal histogram bucket-bounds declaration in
// docs/TELEMETRY.md, e.g. "bounds: `1e-05, 2.5e-05, ..., 10` seconds".
var bucketLine = regexp.MustCompile("bounds: `([^`]+)` seconds")

// TestHistogramBucketsDocumented asserts the documented histogram bucket
// bounds equal DefaultBuckets exactly, in both directions: the doc must
// declare the literal list once, and every bound must round-trip.
func TestHistogramBucketsDocumented(t *testing.T) {
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	m := bucketLine.FindStringSubmatch(string(doc))
	if m == nil {
		t.Fatalf("%s does not declare the histogram bucket bounds (want a line with \"bounds: `...` seconds\")", docPath)
	}
	parts := strings.Split(m[1], ",")
	if len(parts) != len(DefaultBuckets) {
		t.Fatalf("docs list %d bucket bounds, code has %d", len(parts), len(DefaultBuckets))
	}
	for i, p := range parts {
		got, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			t.Fatalf("documented bound %q: %v", p, err)
		}
		if got != DefaultBuckets[i] {
			t.Errorf("documented bound %d = %g, code has %g", i, got, DefaultBuckets[i])
		}
	}
}

// TestPruneReasonsTracked asserts PruneReasons lists exactly the Prune*
// constants, each once, and that every reason round-trips through
// PrunedCounter and back through Snapshot.Pruning, so no reason can be
// silently dropped from the breakdown.
func TestPruneReasonsTracked(t *testing.T) {
	declared := map[string]bool{}
	for name, v := range telemetryConsts(t) {
		if strings.HasPrefix(name, "Prune") {
			declared[v] = true
		}
	}
	c := New()
	listed := map[string]bool{}
	for _, r := range PruneReasons {
		if listed[r] {
			t.Errorf("reason %q listed twice in PruneReasons", r)
		}
		listed[r] = true
		if !declared[r] {
			t.Errorf("PruneReasons has %q, which no Prune* constant declares", r)
		}
		c.Meter().Inc(PrunedCounter(r))
	}
	for r := range declared {
		if !listed[r] {
			t.Errorf("Prune* reason %q missing from PruneReasons", r)
		}
	}
	got := c.Snapshot().Pruning()
	for r := range declared {
		if got[r] != 1 {
			t.Errorf("reason %q lost in Pruning(): %v", r, got)
		}
	}
	if len(got) != len(declared) {
		t.Errorf("Pruning() has %d entries, want %d", len(got), len(declared))
	}
}
