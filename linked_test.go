package asdb

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptUnlinked names the code that may stay although no binary links it,
// each with its reason: (a) the fault-injection seam, (b) the protocol's Go
// client, (c) the public API asdb.go exports, (d) references tests compare
// against, (e) the paper's power functions, (f) methods that satisfy an
// interface, (g) read-only observers tests assert through. An entry is a
// package path, a type (covering its methods) or a function, written as the
// linker spells it without receiver stars, and must cover at least one
// function no binary links. Every function asdb.go declares or names is
// kept as well, read from its syntax.
var keptUnlinked = []struct{ name, reason string }{
	{"repro/internal/fault", "(a) the injection seam tests substitute"},

	{"repro/internal/server.Client", "(b) the protocol's Go client, which the exactly-once suites drive"},
	{"repro/internal/server.Dial", "(b) the protocol's Go client"},
	{"repro/internal/server.FormatInsert", "(b) the protocol's Go client"},
	{"repro/internal/server.FormatStreamDef", "(b) the protocol's Go client"},
	{"repro/internal/server.Retrier.NextReqID", "(b) the protocol's Go client"},

	{"repro/internal/learn.KDELearner", "(c) exported by asdb.go; its methods satisfy Learner"},
	{"repro/internal/dist.NewMixture", "(c) the distribution KDELearner.Learn builds"},

	{"repro/internal/stream.Aggregate", "(d) the reference the window kernels are compared against"},

	{"repro/internal/hypothesis.MTestPower", "(e) the paper's §IV power function"},
	{"repro/internal/hypothesis.MDTestPower", "(e) the paper's §IV power function"},
	{"repro/internal/hypothesis.PTestPower", "(e) the paper's §IV power function"},

	{"repro/internal/learn.HistogramLearner.Name", "(f) satisfies Learner"},
	{"repro/internal/sql.BinaryExpr.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.CallExpr.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.CmpExpr.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.ColumnRef.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.LogicalExpr.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.NotExpr.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.NumberLit.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.Star.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.StringLit.exprNode", "(f) marks an Expr"},
	{"repro/internal/sql.UnaryExpr.exprNode", "(f) marks an Expr"},

	{"repro/internal/wal.Log.Pins", "(g) observer the checkpoint-pin tests assert through"},
	{"repro/internal/wal.Log.Wedged", "(g) observer the fault tests assert through"},
	{"repro/internal/plan.Registry.Hits", "(g) observer the sharing tests assert through"},
	{"repro/internal/plan.Registry.Misses", "(g) observer the sharing tests assert through"},
	{"repro/internal/plan.Registry.Groups", "(g) observer the sharing tests assert through"},
	{"repro/internal/core.Engine.Bound", "(g) observer the engine tests assert through"},
	{"repro/internal/core.Engine.Planner", "(g) observer the engine tests assert through"},
	{"repro/internal/core.Query.OutSchema", "(g) observer the engine tests assert through"},
	{"repro/internal/cluster.FailoverManager.Promoted", "(g) observer the failover tests assert through"},
	{"repro/internal/cluster.Follower.WaitCaughtUp", "(g) observer the replication tests wait on"},
	{"repro/internal/server.Server.ReadOnly", "(g) observer the replication tests assert through"},
	{"repro/internal/server.dedupWindow.len", "(g) observer the dedup tests assert through"},
	{"repro/internal/sketch.Quantile.ErrorBound", "(g) observer the sketch tests assert through"},
	{"repro/internal/sketch.Quantile.EstRank", "(g) observer the sketch tests assert through"},
	{"repro/internal/sketch.Quantile.Count", "(g) observer the sketch tests assert through"},
	{"repro/internal/sketch.Quantile.Query", "(g) observer the sketch tests assert through"},
	{"repro/internal/sketch.Window.ItemCount", "(g) observer the sketch tests assert through"},
	{"repro/internal/sql.ParseExpr", "(g) the expression parser the SQL tests drive"},
}

// TestEveryFunctionLinked holds the rule that library code is either part
// of a program or kept for a stated reason: it builds every command, example
// and the benchmark without inlining, reads their symbols, and names each
// non-test function outside bench/ that none of them links, and each
// keptUnlinked entry that no longer keeps such a function.
func TestEveryFunctionLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	out := t.TempDir()
	goCmd(t, ".", "build", "-gcflags=all=-l", "-o", out+"/", "./cmd/...", "./examples/...")
	goCmd(t, "bench", "build", "-gcflags=all=-l", "-o", filepath.Join(out, "bench.bin"), ".")

	mainPkg := map[string]string{} // binary name -> import path of its main package
	for _, line := range strings.Fields(goCmd(t, ".", "list", "-f", "{{.ImportPath}}", "./cmd/...", "./examples/...")) {
		mainPkg[line[strings.LastIndex(line, "/")+1:]] = line
	}
	linked := map[string]bool{}
	bins, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		for _, line := range strings.Split(goCmd(t, ".", "tool", "nm", filepath.Join(out, b.Name())), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := strings.Join(f[2:], " ")
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				if mainPkg[b.Name()] == "" {
					continue // the benchmark's own main package
				}
				sym = mainPkg[b.Name()] + "." + rest
			}
			linked[normalizeSym(sym)] = true
		}
	}

	kept := map[string]bool{}
	for _, k := range keptUnlinked {
		kept[k.name] = true
	}
	facade := facadeNames(t)
	used := map[string]bool{}
	var missing []string
	for _, fn := range declaredFuncs(t) {
		if linked[fn] || facade[fn] {
			continue
		}
		if k := keptBy(kept, fn); k != "" {
			used[k] = true
			continue
		}
		missing = append(missing, fn)
	}
	if len(missing) > 0 {
		t.Errorf("%d functions are linked into no binary and kept for no reason; delete them, or add them to keptUnlinked with one:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
	var stale []string
	for _, k := range keptUnlinked {
		if !used[k.name] {
			stale = append(stale, k.name)
		}
	}
	if len(stale) > 0 {
		t.Errorf("%d keptUnlinked entries keep no unlinked function; delete them:\n\t%s",
			len(stale), strings.Join(stale, "\n\t"))
	}
}

func goCmd(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	b, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(b)
}

var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// normalizeSym turns a linker symbol into the pkg.Func or pkg.Type.Method
// form declaredFuncs uses: no type arguments, no receiver stars, no .abi0
// suffix the linker gives an assembly function, and a closure or wrapper
// counted as its enclosing function.
func normalizeSym(sym string) string {
	sym = strings.TrimSuffix(sym, ".abi0")
	for strings.Contains(sym, "[") {
		s := typeArgs.ReplaceAllString(sym, "")
		if s == sym {
			break
		}
		sym = s
	}
	sym = strings.NewReplacer("(*", "", ")", "").Replace(sym)
	slash := strings.LastIndex(sym, "/")
	parts := strings.Split(sym[slash+1:], ".")
	for i, p := range parts[1:] {
		if strings.HasPrefix(p, "func") || strings.HasPrefix(p, "gowrap") || strings.HasPrefix(p, "deferwrap") {
			parts = parts[:i+1]
			break
		}
	}
	return sym[:slash+1] + strings.Join(parts, ".")
}

// TestNormalizeSym holds normalizeSym to the symbol shapes go tool nm
// prints.
func TestNormalizeSym(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"repro/internal/stream.scan8", "repro/internal/stream.scan8"},
		{"repro/internal/stream.scan8AVX2.abi0", "repro/internal/stream.scan8AVX2"},
		{"repro/internal/stream.(*ColumnWindow).Push", "repro/internal/stream.ColumnWindow.Push"},
		{"repro/internal/core.(*Engine).IngestBatch.func2", "repro/internal/core.Engine.IngestBatch"},
		{"repro/internal/server.(*Server).Serve.gowrap1", "repro/internal/server.Server.Serve"},
		{"repro/internal/plan.Registry[go.shape.int].Hits", "repro/internal/plan.Registry.Hits"},
		{"main.run.deferwrap1", "main.run"},
	} {
		if got := normalizeSym(c.sym); got != c.want {
			t.Errorf("normalizeSym(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}

// declaredFuncs lists every function and method declared in the module's
// non-test Go files outside bench/, as import path, receiver type and name.
func declaredFuncs(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				name = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// facadeNames holds the functions of the root package and every
// package-qualified name asdb.go refers to: the library's public API. A
// method is in it only when the root package declares it, so methods
// reachable only through an aliased type are not.
func facadeNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "asdb.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		imports[path[strings.LastIndex(path, "/")+1:]] = path
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			names["repro."+x.Name.Name] = true
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
				names[imports[id.Name]+"."+x.Sel.Name] = true
			}
		}
		return true
	})
	return names
}

// keptBy returns the entry that keeps fn — fn itself, its receiver type or
// its package — or "" if none does.
func keptBy(kept map[string]bool, fn string) string {
	for name := fn; ; {
		if kept[name] {
			return name
		}
		i := strings.LastIndex(name, ".")
		if i <= strings.LastIndex(name, "/") {
			return ""
		}
		name = name[:i]
	}
}
