package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a parsed expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColumnRef references a stream column by name.
type ColumnRef struct {
	Name string
}

func (*ColumnRef) exprNode()        {}
func (e *ColumnRef) String() string { return e.Name }

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
}

func (*NumberLit) exprNode() {}
func (e *NumberLit) String() string {
	return strconv.FormatFloat(e.Value, 'g', -1, 64)
}

// StringLit is a single-quoted string literal (used for operator arguments
// of significance predicates, e.g. MTEST(x, '>', 97, 0.05)).
type StringLit struct {
	Value string
}

func (*StringLit) exprNode()        {}
func (e *StringLit) String() string { return "'" + strings.ReplaceAll(e.Value, "'", "''") + "'" }

// UnaryExpr is unary negation.
type UnaryExpr struct {
	Op string // "-"
	X  Expr
}

func (*UnaryExpr) exprNode()        {}
func (e *UnaryExpr) String() string { return e.Op + operand(e.X) }

// BinaryExpr is an arithmetic expression: +, -, *, /.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) exprNode() {}
func (e *BinaryExpr) String() string {
	return "(" + operand(e.L) + " " + e.Op + " " + operand(e.R) + ")"
}

// CmpExpr is a comparison: >, <, >=, <=, =, <>.
type CmpExpr struct {
	Op   string
	L, R Expr
}

func (*CmpExpr) exprNode() {}
func (e *CmpExpr) String() string {
	return operand(e.L) + " " + e.Op + " " + operand(e.R)
}

// operand renders x as the operand of an arithmetic or comparison
// operator. A comparison or NOT binds looser than either, so it is
// parenthesized; rendered unparenthesized, "(0>0)*0" would re-parse as
// "0 > (0*0)".
func operand(x Expr) string {
	switch x.(type) {
	case *CmpExpr, *NotExpr:
		return "(" + x.String() + ")"
	}
	return x.String()
}

// LogicalExpr combines boolean expressions with AND/OR.
type LogicalExpr struct {
	Op   string // "AND" or "OR"
	L, R Expr
}

func (*LogicalExpr) exprNode() {}
func (e *LogicalExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	X Expr
}

func (*NotExpr) exprNode()        {}
func (e *NotExpr) String() string { return "NOT " + e.X.String() }

// CallExpr is a function call: scalar functions (SQRT, ABS, SQUARE),
// aggregates (AVG, SUM, COUNT, MIN, MAX), the probability function PROB,
// and the significance predicates MTEST, MDTEST, PTEST. The planner
// (internal/core) resolves the name.
type CallExpr struct {
	Func string // upper-cased at parse time
	Args []Expr
}

func (*CallExpr) exprNode() {}
func (e *CallExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Func + "(" + strings.Join(args, ", ") + ")"
}

// Star is the "*" select list.
type Star struct{}

func (*Star) exprNode()        {}
func (e *Star) String() string { return "*" }

// SelectItem is one entry of the select list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional AS alias
}

func (it SelectItem) String() string {
	if it.Alias != "" {
		return it.Expr.String() + " AS " + it.Alias
	}
	return it.Expr.String()
}

// WindowSpec is the sliding window clause: WINDOW n ROWS (count-based) or
// WINDOW n SECONDS (time-based over tuple timestamps). Exactly one of Rows
// and Seconds is set.
type WindowSpec struct {
	Rows    int
	Seconds int64
}

// DefaultJoinWindowRows is the symmetric per-side count window applied to
// join queries that omit a WINDOW clause. The planner normalizes the
// default into the statement at compile time, so EXPLAIN output, statement
// round-trip printing, and checkpointed SQL all show the effective window
// explicitly instead of an invisible fallback.
const DefaultJoinWindowRows = 128

// JoinSpec is the window equi-join clause:
// FROM left JOIN right ON left.key = right.key.
type JoinSpec struct {
	Right    string
	LeftKey  string // column of the left stream (may be qualified)
	RightKey string // column of the right stream (may be qualified)
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Items   []SelectItem
	From    string
	Join    *JoinSpec // nil when absent
	Where   Expr      // nil when absent
	GroupBy string    // empty when absent
	Window  *WindowSpec
	// Backend overrides the engine's accuracy backend for this query:
	// "ANALYTICAL", "BOOTSTRAP", or "SKETCH" (upper-cased at parse time);
	// empty uses the engine default.
	Backend string
}

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(s.From)
	if s.Join != nil {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", s.Join.Right, s.Join.LeftKey, s.Join.RightKey)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if s.GroupBy != "" {
		b.WriteString(" GROUP BY ")
		b.WriteString(s.GroupBy)
	}
	if s.Window != nil {
		if s.Window.Seconds > 0 {
			fmt.Fprintf(&b, " WINDOW %d SECONDS", s.Window.Seconds)
		} else {
			fmt.Fprintf(&b, " WINDOW %d ROWS", s.Window.Rows)
		}
	}
	if s.Backend != "" {
		b.WriteString(" BACKEND ")
		b.WriteString(s.Backend)
	}
	return b.String()
}
