package lint

// The analyzer tests follow the x/tools analysistest convention:
// fixture packages under testdata/src/<analyzer> annotate the lines
// where findings are expected with
//
//	expr // want "regexp"
//	// wantbelow "regexp"     (expectation for the next //lint: line
//	                           below, for findings on marker lines)
//
// and the runner diffs reported diagnostics against the
// expectations in both directions.

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fixtureImporter resolves the handful of std imports fixtures use,
// plus the module's checkpoint framing package, from compiler export
// data, shared across tests.
var fixtureImporter = sync.OnceValues(func() (map[string]string, error) {
	listed, err := goList("time", "sync", "sync/atomic", "encoding/binary", "errors", "math/rand", "context", "repro/internal/blob")
	if err != nil {
		return nil, err
	}
	packageFile := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
	}
	return packageFile, nil
})

// runFixture type-checks testdata/src/<dir> under the given import
// path, runs exactly one analyzer plus marker filtering, and matches
// diagnostics against the fixture's expectations.
func runFixture(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	packageFile, err := fixtureImporter()
	if err != nil {
		t.Fatalf("resolving std export data: %v", err)
	}
	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(root, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", root)
	}
	fset := token.NewFileSet()
	pkg, err := TypeCheck(fset, importPath, files, ExportImporter(fset, nil, packageFile))
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	wants := collectWants(t, files)
	matchDiags(t, diags, wants)
}

// want is one expectation: a diagnostic matching re at file:line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var (
	wantRe   = regexp.MustCompile(`// want(below)?( "(?:[^"\\]|\\.)*")+`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

func collectWants(t *testing.T, files []string) []*want {
	t.Helper()
	var wants []*want
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			lineNo := i + 1
			if m[1] == "below" {
				// Target the next //lint: marker line (gofmt may pad
				// the gap with a bare "//" separator).
				for j := i + 1; j < len(lines); j++ {
					if strings.HasPrefix(strings.TrimSpace(lines[j]), "//lint:") {
						lineNo = j + 1
						break
					}
				}
				if lineNo == i+1 {
					t.Fatalf("%s:%d: wantbelow with no //lint: line below", file, i+1)
				}
			}
			for _, q := range quotedRe.FindAllString(m[0], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", file, i+1, q, err)
				}
				wants = append(wants, &want{file: file, line: lineNo, re: regexp.MustCompile(pat)})
			}
		}
	}
	return wants
}

func matchDiags(t *testing.T, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestTreeClean is the burn-down pinned as a test: the whole module
// must stay at zero hybridlint findings. New violations fail here
// (and in the CI vet step) with the same message a developer sees
// from `make lint`.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	pkgs, err := LoadPatterns("repro/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := Run(pkg, All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.ImportPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestPathExempt pins the allowlist shape: cmd/ and examples/
// segments anywhere in the path are exempt, vet's test-variant
// suffix is ignored, and substring lookalikes are not exempt.
func TestPathExempt(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro", false},
		{"repro/client", false},
		{"repro/cmd/randd", true},
		{"repro/examples/basic", true},
		{"repro [repro.test]", false},
		{"repro/cmd/randd [x]", true},
		{"repro/commander", false},
		{"repro/internal/lint", false},
	}
	for _, c := range cases {
		if got := pathExempt(c.path); got != c.want {
			t.Errorf("pathExempt(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
