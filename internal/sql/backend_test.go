package sql

import (
	"strings"
	"testing"
)

func TestParseBackendClause(t *testing.T) {
	for raw, want := range map[string]string{
		"SELECT AVG(x) FROM s WINDOW 5 ROWS BACKEND SKETCH":     "SKETCH",
		"select avg(x) from s window 5 rows backend sketch":     "SKETCH",
		"SELECT AVG(x) FROM s WINDOW 5 ROWS BACKEND analytical": "ANALYTICAL",
		"SELECT AVG(x) FROM s WINDOW 5 ROWS BACKEND Bootstrap":  "BOOTSTRAP",
		"SELECT AVG(x) FROM s WINDOW 5 ROWS":                    "",
		"SELECT AVG(x) FROM s WINDOW 10 SECONDS BACKEND SKETCH": "SKETCH",
	} {
		stmt, err := Parse(raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		if stmt.Backend != want {
			t.Errorf("Parse(%q).Backend = %q, want %q", raw, stmt.Backend, want)
		}
	}
}

func TestParseBackendRoundTrip(t *testing.T) {
	raw := "SELECT AVG(x) AS a FROM s WINDOW 5 ROWS BACKEND SKETCH"
	stmt, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	printed := stmt.String()
	if !strings.Contains(printed, "BACKEND SKETCH") {
		t.Fatalf("String() = %q lost the backend clause", printed)
	}
	again, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", printed, err)
	}
	if again.Backend != "SKETCH" {
		t.Errorf("round trip lost backend: %q", again.Backend)
	}
	if again.String() != printed {
		t.Errorf("String() not a fixed point: %q vs %q", again.String(), printed)
	}
	// No clause: String() must not invent one (golden transcripts depend on
	// unchanged rendering of pre-existing queries).
	plain, err := Parse("SELECT AVG(x) AS a FROM s WINDOW 5 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "BACKEND") {
		t.Errorf("String() invented a backend clause: %q", plain.String())
	}
}

func TestParseBackendErrors(t *testing.T) {
	for _, raw := range []string{
		"SELECT AVG(x) FROM s WINDOW 5 ROWS BACKEND",        // missing name
		"SELECT AVG(x) FROM s WINDOW 5 ROWS BACKEND TURBO",  // unknown name
		"SELECT AVG(x) FROM s WINDOW 5 ROWS BACKEND 7",      // not an identifier
		"SELECT AVG(x) FROM s BACKEND SKETCH WINDOW 5 ROWS", // wrong position
		"SELECT backend FROM s",                             // reserved word as column
	} {
		if _, err := Parse(raw); err == nil {
			t.Errorf("Parse(%q): want error", raw)
		}
	}
}
