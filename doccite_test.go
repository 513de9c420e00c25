package asdb

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// citedTest matches a test, fuzz target or benchmark name; a trailing
	// * makes it a prefix, as in BenchmarkFig5c*.
	citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	// citedFile matches a Go file path, optionally with :N or :N–M.
	citedFile = regexp.MustCompile(`[\w./-]*\w\.go(?::(\d+)(?:[–-](\d+))?)?\b`)
)

// TestDocCitations holds DESIGN.md and README.md to the tree: every test,
// fuzz target and benchmark they name is declared in some _test.go file of
// the repository (the bench module included), and every Go file they cite
// exists, with a cited line inside it. A bare or partial path matches any
// file whose path ends with it.
func TestDocCitations(t *testing.T) {
	tests := map[string]bool{}
	lines := map[string]int{} // slash path -> line count
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines[filepath.ToSlash(path)] = bytes.Count(src, []byte("\n"))
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				tests[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTest.FindAllString(string(text), -1) {
			if !declared(tests, name) {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
		for _, m := range citedFile.FindAllStringSubmatchIndex(string(text), -1) {
			if m[0] > 0 && text[m[0]-1] == '*' {
				continue // a glob such as *_test.go
			}
			cite := string(text[m[0]:m[1]])
			path, _, _ := strings.Cut(cite, ":")
			last := 0
			for _, g := range [][2]int{{m[2], m[3]}, {m[4], m[5]}} {
				if g[0] >= 0 {
					last, _ = strconv.Atoi(string(text[g[0]:g[1]]))
				}
			}
			if !fileHasLine(lines, path, last) {
				t.Errorf("%s cites %s, which is no file of the tree or has fewer lines", doc, cite)
			}
		}
	}
}

// declared reports whether name, or with a trailing * any name it
// prefixes, is a declared test function.
func declared(tests map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return tests[name]
	}
	for n := range tests {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// fileHasLine reports whether some file whose path ends with path has at
// least line lines.
func fileHasLine(lines map[string]int, path string, line int) bool {
	for p, n := range lines {
		if (p == path || strings.HasSuffix(p, "/"+path)) && line <= n {
			return true
		}
	}
	return false
}
