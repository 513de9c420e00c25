// Command asdb is the interactive shell of the accuracy-aware uncertain
// stream database. It speaks the line protocol of repro/internal/server:
// with -addr it dials a running asdbd; without it, it runs the same server
// in process and serves one session over net.Pipe. Either way every verb,
// every refusal and every DATA line comes from the daemon's code.
//
// Usage:
//
//	asdb [-addr HOST:PORT] [-f script.asdb] [-batch]
//	     [-level 0.9] [-method analytical] [-seed 1] [-drop-unsure]
//	     [-data-dir DIR] [-fsync always|interval|none] [-checkpoint-every N]
//	     [-debug-addr ADDR]
//
// The engine flags are asdbd's and configure the in-process server; with
// -addr the daemon's own configuration applies.
//
// Output is protocol lines: "DATA <id> {...}" per result, then the
// command's OK or ERR reply. Two commands stay client-side: HELP, and LOAD,
// which learns per-key distributions from a CSV (internal/ingest) and sends
// them as INSERTBATCH lines of at most 128 tuples.
//
// With -f, commands are read from the file before the prompt, and the
// first ERR aborts with "asdb: file:line: ..." and exit status 1; -batch
// exits after the script.
//
// With -data-dir the in-process session is durable. At end of input asdb
// detaches its queries and writes a final checkpoint; the next run over
// the same directory (and the same engine flags) ATTACHes every recovered
// query and resumes exactly where this one stopped.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engineflags"
	"repro/internal/ingest"
	"repro/internal/randvar"
	"repro/internal/server"
)

// loadChunk bounds the tuples of one INSERTBATCH line LOAD sends: enough
// to amortize a round trip and a WAL record, few enough to keep DATA
// flowing during a long load.
const loadChunk = 128

// embeddedOpTimeout bounds one exchange with the in-process server. No
// network can lose the reply, so it only catches a wedged engine.
const embeddedOpTimeout = time.Hour

const helpText = `commands (asdb runs HELP and LOAD itself; the server answers the rest):
  STREAM  <name> <col>[:dist] ...   register a stream
  QUERY   <id> <sql>                register a continuous query; results arrive
                                    as DATA <id> {...} before the command's reply
  INSERT  <stream> <field> ...      push a tuple (fields: 12.5 | N(mu,s2,n) | S(v;v;...) | H(e,e|c,c))
  INSERTBATCH <stream> <field> ... | <field> ...
                                    push several tuples as one engine batch
  LOAD    <stream> <file> KEY <col> VALUE <col>
                                    learn per-key distributions from a CSV and insert them
  EXPLAIN <id> [TIMING]             a query's compiled plan (TIMING adds per-stage
                                    counters; node-local)
  STATS   <id>                      query counters
  METRICS [<id>]                    process metrics, or one query's accuracy telemetry
  ATTACH  <id>                      take DATA delivery of a detached query
  SUBSCRIBE <id>                    also receive DATA of a query another session owns
  CLOSE   <id>                      drop a query
  SHED    [<level>]                 report or force the load-shedding level
  ROLE                              replication role, epoch, and lag
  PING | QUIT | HELP`

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asdb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "dial this asdbd instead of serving the session in process")
	script := fs.String("f", "", "script file to execute before the prompt")
	batch := fs.Bool("batch", false, "exit after the script (no interactive prompt)")
	cfg, err := engineflags.Parse(fs, args, func(format string, a ...any) {
		fmt.Fprintf(stderr, "asdb: "+format+"\n", a...)
	})
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "asdb: %v\n", err)
		return 2
	}
	// A log.Logger writes each line whole, so DATA printed by the
	// connection's reader goroutine never interleaves with a reply.
	s, err := open(*addr, cfg, log.New(stdout, "", 0))
	if err != nil {
		fmt.Fprintf(stderr, "asdb: %v\n", err)
		return 1
	}
	// fail closes the session before reporting, so a durable session
	// still detaches its queries and writes its final checkpoint.
	fail := func(err error) int {
		if cerr := s.close(); cerr != nil {
			fmt.Fprintf(stderr, "asdb: close: %v\n", cerr)
		}
		fmt.Fprintf(stderr, "asdb: %v\n", err)
		return 1
	}
	quit := false
	if *script != "" {
		f, err := os.Open(*script)
		if err == nil {
			quit, err = s.runLines(f, *script, nil)
			f.Close()
		}
		if err != nil {
			return fail(err)
		}
	}
	if !*batch && !quit {
		fmt.Fprintln(stderr, "asdb — accuracy-aware uncertain stream database (HELP for commands, ctrl-D to exit)")
		if _, err := s.runLines(stdin, "", stderr); err != nil {
			return fail(err)
		}
	}
	if err := s.close(); err != nil {
		fmt.Fprintf(stderr, "asdb: close: %v\n", err)
		return 1
	}
	return 0
}

// session is one protocol connection and, in process, the server behind it.
type session struct {
	cc  *server.Conn
	srv *server.Server // nil with -addr
	out *log.Logger
}

// open dials addr or, with addr empty, serves the session in process and
// ATTACHes every query recovered from cfg.DataDir.
func open(addr string, cfg core.Config, out *log.Logger) (*session, error) {
	s := &session{out: out}
	onData := func(line string) { out.Println(line) }
	if addr != "" {
		cc, err := server.DialConn(addr, server.DialOptions{}, onData)
		if err != nil {
			return nil, err
		}
		s.cc = cc
		return s, nil
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := server.NewDurable(eng, nil)
	if err != nil {
		return nil, err
	}
	// A shell user may think for longer than the daemon's idle timeout.
	srv.SetOptions(server.Options{IdleTimeout: -1})
	srvEnd, cliEnd := net.Pipe()
	srv.ServeConn(srvEnd)
	s.srv, s.cc = srv, server.NewConn(cliEnd, embeddedOpTimeout, onData)
	for _, id := range srv.DetachedQueries() {
		reply, err := s.cc.Exchange("ATTACH " + id)
		if err != nil {
			s.close()
			return nil, err
		}
		out.Println(reply)
	}
	return s, nil
}

// close ends the session. The in-process server turns read-only first, so
// the disconnect detaches the session's queries instead of journaling
// CLOSE, and its Close writes the final checkpoint.
func (s *session) close() error {
	if s.srv != nil {
		s.srv.SetReadOnly(true)
	}
	s.cc.Close()
	<-s.cc.Done()
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// runLines executes the lines of r until it ends or QUIT is answered, and
// reports whether QUIT ended it. In a script (name set) the first ERR
// stops it with "name:line: message"; interactively ERR is printed like
// any reply, after a prompt on each line. Any other error is a failed read
// of r or a lost connection.
func (s *session) runLines(r io.Reader, name string, prompt io.Writer) (bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for n := 1; ; n++ {
		if prompt != nil {
			fmt.Fprint(prompt, "asdb> ")
		}
		if !sc.Scan() {
			return false, sc.Err()
		}
		reply, err := s.exec(sc.Text())
		if err != nil {
			return false, err
		}
		if msg, ok := strings.CutPrefix(reply, "ERR "); ok && name != "" {
			return false, fmt.Errorf("%s:%d: %s", name, n, msg)
		}
		if reply != "" {
			s.out.Println(reply)
		}
		if reply == "OK bye" {
			return true, nil
		}
	}
}

// exec runs one input line and returns the reply to print: the server's
// for protocol verbs, asdb's own for HELP and LOAD, "" for blank lines and
// # comments.
func (s *session) exec(line string) (string, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", nil
	}
	verb, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(verb) {
	case "HELP":
		return helpText, nil
	case "LOAD":
		return s.load(rest)
	case "QUIT":
		// QUIT ends the session like end of input: queries detach.
		if s.srv != nil {
			s.srv.SetReadOnly(true)
		}
	}
	return s.cc.Exchange(line)
}

// load learns one field per key of a CSV and sends the tuples as
// INSERTBATCH lines of at most loadChunk, stopping at the first ERR. Its
// reply totals the server's: "OK loaded tuples=N results=M".
func (s *session) load(rest string) (string, error) {
	f := strings.Fields(rest)
	if len(f) == 8 && strings.EqualFold(f[6], "TIME") {
		return "ERR LOAD ... TIME " + server.NoEventTimes + "; drop the TIME clause", nil
	}
	if len(f) != 6 || !strings.EqualFold(f[2], "KEY") || !strings.EqualFold(f[4], "VALUE") {
		return "ERR usage: LOAD <stream> <file> KEY <col> VALUE <col>", nil
	}
	file, err := os.Open(f[1])
	if err != nil {
		return "ERR " + err.Error(), nil
	}
	tuples, err := ingest.Read(file, ingest.Spec{KeyColumn: f[3], ValueColumn: f[5]})
	file.Close()
	if err != nil {
		return "ERR " + err.Error(), nil
	}
	results := 0
	for start := 0; start < len(tuples); start += loadChunk {
		rows := make([][]randvar.Field, 0, loadChunk)
		for _, lt := range tuples[start:min(start+loadChunk, len(tuples))] {
			rows = append(rows, []randvar.Field{randvar.Det(lt.Key), lt.Field})
		}
		line, _ := server.FormatInsertBatch(f[0], rows...) // rows is never empty
		reply, err := s.cc.Exchange(line)
		if err != nil || strings.HasPrefix(reply, "ERR ") {
			return reply, err
		}
		results += server.ParseInsertReply(reply)
	}
	return fmt.Sprintf("OK loaded tuples=%d results=%d", len(tuples), results), nil
}
