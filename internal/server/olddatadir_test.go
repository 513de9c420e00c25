package server

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/randvar"
	"repro/internal/wal"
)

// Data directories written by the standalone asdb shell that predates
// asdb's in-process server. That shell journaled each tuple as
// "<stream> <ts> <spec>...", which this server's replay cannot read. A WAL
// suffix holding such a record is refused at open, naming its LSN, and is
// never applied. A directory that shell closed cleanly (its final
// checkpoint covers every record) opens, with its queries detached.
func TestOldShellDataDirs(t *testing.T) {
	config := func(dir string) core.Config {
		return core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1,
			DataDir: dir, FsyncPolicy: "none", CheckpointEvery: 1024}
	}
	// writeOld journals what the old shell journaled for one stream, one
	// query and one insert, as LSNs 1..3.
	writeOld := func(t *testing.T, dir string) *wal.Log {
		t.Helper()
		w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []struct {
			typ     wal.RecordType
			payload string
		}{
			{wal.RecStream, "temps key val:dist"},
			{wal.RecQuery, "q1 SELECT val FROM temps"},
			{wal.RecInsert, "temps 0 7 N(10.5,2.25,20)"},
		} {
			if _, err := w.Append(rec.typ, []byte(rec.payload)); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	open := func(dir string) (*Server, error) {
		eng, err := core.NewEngine(config(dir))
		if err != nil {
			t.Fatal(err)
		}
		return NewDurable(eng, nil)
	}

	t.Run("insert suffix", func(t *testing.T) {
		dir := t.TempDir()
		if err := writeOld(t, dir).Close(); err != nil {
			t.Fatal(err)
		}
		const want = `wal replay: lsn 3 (INSERT): core: batch row 0: stream: schema "temps" has 2 columns, got 3 fields`
		for range 2 { // refusing leaves the directory as it was
			if _, err := open(dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("NewDurable over an old-format insert: %v, want %q", err, want)
			}
		}
	})

	t.Run("closed cleanly", func(t *testing.T) {
		dir := t.TempDir()
		w := writeOld(t, dir)
		// The old shell's close: checkpoint the state the three records
		// built, at LSN 3, then truncate the WAL it covers.
		eng, err := core.NewEngine(config(""))
		if err != nil {
			t.Fatal(err)
		}
		schema, err := ParseStreamDef("temps", []string{"key", "val:dist"})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterStream(schema); err != nil {
			t.Fatal(err)
		}
		q, err := eng.Compile("SELECT val FROM temps")
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Bind("q1", q); err != nil {
			t.Fatal(err)
		}
		val, err := ParseFieldSpec("N(10.5,2.25,20)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.IngestBatch("temps", []core.IngestRow{{Fields: []randvar.Field{randvar.Det(7), val}}}, nil); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Capture(eng, 3, []checkpoint.QueryDef{{ID: "q1", SQL: q.String(), Query: q}})
		if err != nil {
			t.Fatal(err)
		}
		ckm, err := checkpoint.NewManagerFS(filepath.Join(dir, "checkpoints"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckm.Save(snap); err != nil {
			t.Fatal(err)
		}
		if err := w.TruncateThrough(3); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		s, err := open(dir)
		if err != nil {
			t.Fatalf("NewDurable over a cleanly closed old directory: %v", err)
		}
		defer s.Close()
		if got := s.DetachedQueries(); !slices.Equal(got, []string{"q1"}) {
			t.Fatalf("detached queries = %q, want [q1]", got)
		}
		if st := s.queries["q1"].query.Stats(); st.In != 1 || st.Out != 1 {
			t.Fatalf("recovered q1 stats = %+v, want the checkpointed insert", st)
		}
	})
}
