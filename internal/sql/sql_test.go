package sql

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 1.5e-2 FROM s WHERE x >= 3 AND y <> 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "a", ",", "1.5e-2", "FROM", "s", "WHERE", "x", ">=", "3", "AND", "y", "<>", "it's"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string: want error")
	}
	if _, err := Lex("a # b"); err == nil {
		t.Error("bad character: want error")
	}
	if _, err := Lex("a ! b"); err == nil {
		t.Error("lone '!': want error")
	}
	// != lexes to <>.
	toks, err := Lex("a != b")
	if err != nil || toks[1].Text != "<>" {
		t.Errorf("!=: %v, %v", toks, err)
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("SELECT Road_ID FROM t WHERE Delay > 50")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.From != "t" || len(stmt.Items) != 1 {
		t.Fatalf("stmt = %+v", stmt)
	}
	col, ok := stmt.Items[0].Expr.(*ColumnRef)
	if !ok || col.Name != "Road_ID" {
		t.Fatalf("item = %v", stmt.Items[0])
	}
	cmp, ok := stmt.Where.(*CmpExpr)
	if !ok || cmp.Op != ">" {
		t.Fatalf("where = %v", stmt.Where)
	}
}

func TestParseStar(t *testing.T) {
	stmt, err := Parse("SELECT * FROM stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.Items[0].Expr.(*Star); !ok {
		t.Fatalf("items = %v", stmt.Items)
	}
}

func TestParseExpressionSelect(t *testing.T) {
	// Example 4's query shape.
	stmt, err := Parse("SELECT (A+B)/2 AS halfsum FROM S WHERE C > 80")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Items[0].Alias != "halfsum" {
		t.Errorf("alias = %q", stmt.Items[0].Alias)
	}
	bin, ok := stmt.Items[0].Expr.(*BinaryExpr)
	if !ok || bin.Op != "/" {
		t.Fatalf("expr = %v", stmt.Items[0].Expr)
	}
	inner, ok := bin.L.(*BinaryExpr)
	if !ok || inner.Op != "+" {
		t.Fatalf("inner = %v", bin.L)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * c")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(a + (b * c))" {
		t.Errorf("precedence: %s", e)
	}
	e, err = ParseExpr("(a + b) * c")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "((a + b) * c)" {
		t.Errorf("parens: %s", e)
	}
	e, err = ParseExpr("-a + b")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(-a + b)" {
		t.Errorf("unary: %s", e)
	}
	// Negative literal folds.
	e, err = ParseExpr("-3.5")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := e.(*NumberLit); !ok || n.Value != -3.5 {
		t.Errorf("folded literal: %v", e)
	}
}

func TestParseLogical(t *testing.T) {
	e, err := ParseExpr("a > 1 AND b < 2 OR NOT c > 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := e.(*LogicalExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", e)
	}
	and, ok := or.L.(*LogicalExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("left = %v", or.L)
	}
	if _, ok := or.R.(*NotExpr); !ok {
		t.Fatalf("right = %v", or.R)
	}
}

func TestParseProbThreshold(t *testing.T) {
	// The introduction's "Delay >{2/3} 50".
	stmt, err := Parse("SELECT Road_ID FROM t WHERE PROB(Delay > 50) >= 0.667")
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := stmt.Where.(*CmpExpr)
	if !ok || cmp.Op != ">=" {
		t.Fatalf("where = %v", stmt.Where)
	}
	call, ok := cmp.L.(*CallExpr)
	if !ok || call.Func != "PROB" || len(call.Args) != 1 {
		t.Fatalf("call = %v", cmp.L)
	}
	if _, ok := call.Args[0].(*CmpExpr); !ok {
		t.Fatalf("prob arg = %v", call.Args[0])
	}
}

func TestParseSignificancePredicates(t *testing.T) {
	// Example 9's predicates.
	stmt, err := Parse("SELECT temperature FROM s WHERE MTEST(temperature, '>', 97, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	call, ok := stmt.Where.(*CallExpr)
	if !ok || call.Func != "MTEST" || len(call.Args) != 4 {
		t.Fatalf("mtest = %v", stmt.Where)
	}
	if s, ok := call.Args[1].(*StringLit); !ok || s.Value != ">" {
		t.Fatalf("op arg = %v", call.Args[1])
	}
	stmt, err = Parse("SELECT x FROM s WHERE PTEST(x > 100, 0.5, 0.05, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	call = stmt.Where.(*CallExpr)
	if call.Func != "PTEST" || len(call.Args) != 4 {
		t.Fatalf("ptest = %v", call)
	}
	stmt, err = Parse("SELECT x FROM s WHERE MDTEST(x, y, '>', 0, 0.05, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	call = stmt.Where.(*CallExpr)
	if call.Func != "MDTEST" || len(call.Args) != 6 {
		t.Fatalf("mdtest = %v", call)
	}
}

func TestParseWindow(t *testing.T) {
	stmt, err := Parse("SELECT AVG(speed) FROM s WINDOW 1000 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Window == nil || stmt.Window.Rows != 1000 {
		t.Fatalf("window = %+v", stmt.Window)
	}
	call, ok := stmt.Items[0].Expr.(*CallExpr)
	if !ok || call.Func != "AVG" {
		t.Fatalf("item = %v", stmt.Items[0].Expr)
	}
}

func TestParseTrailingSemicolonAndErrors(t *testing.T) {
	if _, err := Parse("SELECT a FROM s;"); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM s",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM s WHERE",
		"SELECT a FROM s WINDOW x ROWS",
		"SELECT a FROM s WINDOW 0 ROWS",
		"SELECT a FROM s WINDOW 5",
		"SELECT a FROM s extra",
		"SELECT a AS FROM s",
		"SELECT f(a FROM s",
		"UPDATE t SET x = 1",
		"SELECT a FROM select",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): want error", q)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, s := range []string{"", "a +", "(a", "f(", "1 2", "a > > b", "NOT"} {
		if _, err := ParseExpr(s); err == nil {
			t.Errorf("ParseExpr(%q): want error", s)
		}
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT Road_ID FROM t WHERE PROB(Delay > 50) >= 0.667",
		"SELECT (A + B) / 2 AS h FROM S WHERE C > 80 WINDOW 10 ROWS",
		"SELECT SQRT(ABS(a - b)) FROM s",
		"SELECT x FROM s WHERE MTEST(x, '>', 97, 0.05) AND y < 3",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		// Re-parse the rendered form; it must parse and render identically.
		stmt2, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", stmt.String(), err)
		}
		if stmt.String() != stmt2.String() {
			t.Errorf("round trip: %q != %q", stmt.String(), stmt2.String())
		}
	}
}

func TestColumns(t *testing.T) {
	e, err := ParseExpr("(a + b)/2 + SQRT(ABS(a)) + c.d")
	if err != nil {
		t.Fatal(err)
	}
	cols := Columns(e)
	want := []string{"a", "b", "c.d"}
	if len(cols) != len(want) {
		t.Fatalf("columns = %v", cols)
	}
	for i := range want {
		if !strings.EqualFold(cols[i], want[i]) {
			t.Errorf("column %d = %q, want %q", i, cols[i], want[i])
		}
	}
	if got := Columns(nil); got != nil {
		t.Errorf("Columns(nil) = %v", got)
	}
}

func TestWalkCoversAllNodes(t *testing.T) {
	e, err := ParseExpr("NOT (a > 1 AND -b < f(c, 'x') OR a + 2 * 3 <> 4)")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *NotExpr:
			kinds["not"] = true
		case *LogicalExpr:
			kinds["logical"] = true
		case *CmpExpr:
			kinds["cmp"] = true
		case *UnaryExpr:
			kinds["unary"] = true
		case *BinaryExpr:
			kinds["binary"] = true
		case *CallExpr:
			kinds["call"] = true
		case *ColumnRef:
			kinds["col"] = true
		case *NumberLit:
			kinds["num"] = true
		case *StringLit:
			kinds["str"] = true
		}
	})
	for _, k := range []string{"not", "logical", "cmp", "unary", "binary", "call", "col", "num", "str"} {
		if !kinds[k] {
			t.Errorf("Walk did not visit %s nodes", k)
		}
	}
}

func TestParseGroupBy(t *testing.T) {
	stmt, err := Parse("SELECT road_id, AVG(delay) FROM t GROUP BY road_id WINDOW 10 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.GroupBy != "road_id" {
		t.Errorf("GroupBy = %q", stmt.GroupBy)
	}
	if _, err := Parse("SELECT a FROM t GROUP road_id"); err == nil {
		t.Error("GROUP without BY: want error")
	}
	if _, err := Parse("SELECT a FROM t GROUP BY"); err == nil {
		t.Error("GROUP BY without column: want error")
	}
	if _, err := Parse("SELECT a FROM t GROUP BY select"); err == nil {
		t.Error("GROUP BY keyword: want error")
	}
}

func TestParseSecondsWindow(t *testing.T) {
	stmt, err := Parse("SELECT AVG(x) FROM s WINDOW 30 SECONDS")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Window == nil || stmt.Window.Seconds != 30 || stmt.Window.Rows != 0 {
		t.Errorf("window = %+v", stmt.Window)
	}
	if _, err := Parse("SELECT AVG(x) FROM s WINDOW 30 MINUTES"); err == nil {
		t.Error("unknown unit: want error")
	}
}

func TestParseJoin(t *testing.T) {
	stmt, err := Parse("SELECT a.x, b.y FROM a JOIN b ON a.k = b.k WHERE a.x > 5")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Join == nil || stmt.Join.Right != "b" ||
		stmt.Join.LeftKey != "a.k" || stmt.Join.RightKey != "b.k" {
		t.Fatalf("join = %+v", stmt.Join)
	}
	if stmt.Where == nil {
		t.Error("WHERE lost after JOIN")
	}
	bad := []string{
		"SELECT x FROM a JOIN",
		"SELECT x FROM a JOIN b",
		"SELECT x FROM a JOIN b ON",
		"SELECT x FROM a JOIN b ON k",
		"SELECT x FROM a JOIN b ON k = ",
		"SELECT x FROM a JOIN select ON k = k",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): want error", q)
		}
	}
}

func TestExtendedStringRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT road_id, AVG(delay) AS d FROM t GROUP BY road_id WINDOW 10 ROWS",
		"SELECT AVG(x) FROM s WINDOW 30 SECONDS",
		"SELECT a.x FROM a JOIN b ON a.k = b.k WHERE a.x > 5",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		stmt2, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", stmt.String(), err)
		}
		if stmt.String() != stmt2.String() {
			t.Errorf("round trip: %q != %q", stmt.String(), stmt2.String())
		}
	}
}
