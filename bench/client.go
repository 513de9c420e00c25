package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// inflight is the closed-loop window: requests outstanding per writer
// connection in the prefill and capacity phases.
const inflight = 8

// drainTimeout bounds the wait for replies and DATA lines after the last
// request of a phase was written; what has not arrived by then has failed.
const drainTimeout = 10 * time.Second

// readPoll is the read deadline a phase reader uses so that it notices the
// end of the phase while the socket is silent.
const readPoll = 20 * time.Millisecond

// sample is one DATA line kept for the reference check, with its ordinal
// among all DATA lines the connection received since it was opened.
type sample struct {
	ordinal int64
	line    []byte
}

// conn is one client connection. Control commands (cmd) and timed phases
// (runPhase) alternate; a phase ends quiescent, so they never overlap.
type conn struct {
	nc   net.Conn
	buf  []byte
	fill int // valid bytes in buf (a partial line carried between reads)

	// DATA lines received over the connection's lifetime, and the ones kept
	// for the reference check (every sampleEvery-th).
	dataLines   int64
	sampleEvery int64
	samples     []sample
}

func dial(addr string, sampleEvery int64) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, buf: make([]byte, 1<<20), sampleEvery: sampleEvery}, nil
}

// cmd sends one control command and returns its reply line. DATA lines that
// arrive first (none are expected) are counted like any others.
func (c *conn) cmd(line string) (string, error) {
	c.nc.SetDeadline(time.Now().Add(drainTimeout))
	defer c.nc.SetDeadline(time.Time{})
	if _, err := c.nc.Write([]byte(line + "\n")); err != nil {
		return "", err
	}
	var reply string
	for reply == "" {
		if err := c.recv(); err != nil {
			return "", fmt.Errorf("%s: %w", line, err)
		}
		c.eachLine(func(l []byte) {
			if bytes.HasPrefix(l, []byte("DATA ")) {
				c.keep(l)
			} else {
				reply = string(l)
			}
		})
	}
	if !bytes.HasPrefix([]byte(reply), []byte("OK")) {
		return reply, fmt.Errorf("%s: %s", line, reply)
	}
	return reply, nil
}

// recv does one socket read into the buffer, after whatever partial line
// the previous read left there.
func (c *conn) recv() error {
	if c.fill == len(c.buf) {
		return errors.New("bench: protocol line longer than the read buffer")
	}
	n, err := c.nc.Read(c.buf[c.fill:])
	c.fill += n
	if n == 0 && err != nil {
		return err
	}
	return nil
}

// eachLine calls fn for every complete line in the buffer; a trailing
// partial line stays for the next recv.
func (c *conn) eachLine(fn func(line []byte)) {
	data := c.buf[:c.fill]
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		fn(data[:i])
		data = data[i+1:]
	}
	c.fill = copy(c.buf, data)
}

// keep counts one DATA line and copies it when it is a sampled one.
func (c *conn) keep(line []byte) {
	if c.dataLines%c.sampleEvery == 0 {
		c.samples = append(c.samples, sample{c.dataLines, append([]byte(nil), line...)})
	}
	c.dataLines++
}

// writerRun is one writer's requests in one phase, and what came back.
// Times are ns since the phase's base.
type writerRun struct {
	lines       [][]byte
	due         []int64 // open loop when non-nil: line i is due at due[i]
	batch       int     // tuples per request
	linesPerReq int     // DATA lines one request produces once windows are full; 0 while they fill

	sendStart, okAt, dataAt []int64
	sent                    []int64 // when Write returned; recorded on traced phases only

	// Written by the writer goroutine when it stops.
	nSent    atomic.Int64
	writeErr error

	// Written by the reader of the writer's own connection.
	replies  atomic.Int64 // OK + ERR lines
	results  atomic.Int64 // Σ results=M over OK replies
	errs     int
	firstErr string

	// Written by the reader of the connection the DATA lines land on.
	dataSeen  int64
	dataBytes int64
	shortData int // own mode: replies preceded by fewer DATA lines than linesPerReq
}

func newWriterRun(lines [][]byte, due []int64, batch, linesPerReq int) *writerRun {
	n := len(lines)
	return &writerRun{lines: lines, due: due, batch: batch, linesPerReq: linesPerReq,
		sendStart: make([]int64, n), okAt: make([]int64, n), dataAt: make([]int64, n)}
}

// phase is one timed stretch of traffic over all connections.
type phase struct {
	base  time.Time
	limit time.Duration // closed loop: stop sending after this long (0 = send every line); open loop: nominal length
	runs  []*writerRun  // one per workload writer
	// endNs is when the writers stopped, ns since base.
	endNs int64
	// Open loop only: horizonNs is the phase's nominal length, sliceNs the
	// length of the slices it is read in, and cpuSamples the server's CPU
	// seconds at every slice boundary from 0 to the last one within the
	// horizon.
	horizonNs   int64
	sliceNs     int64
	cpuSamples  []float64
	writersDone atomic.Bool
	abort       chan struct{} // closed by the first reader that fails
	abortOnce   sync.Once
}

// runPhase sends every writer's lines and collects replies and DATA lines
// until all of them arrived or drainTimeout passed.
func runPhase(wl *workload, conns []*conn, runs []*writerRun, limit time.Duration, cpu func() (float64, error)) (*phase, error) {
	ph := &phase{base: time.Now(), limit: limit, runs: runs, abort: make(chan struct{})}
	readErrs := make([]error, len(conns))
	tokens := make([]chan struct{}, len(runs))
	var readers, writers sync.WaitGroup
	for ci, c := range conns {
		var reply, data *writerRun
		var tok chan struct{}
		for w := range wl.writers {
			if wl.writers[w].conn == ci {
				reply = runs[w]
				if reply.due == nil {
					tokens[w] = make(chan struct{}, inflight)
				}
				tok = tokens[w]
			}
			if wl.queriesOn(w)[0].conn == ci {
				data = runs[w]
			}
		}
		readers.Add(1)
		go func(ci int, c *conn) {
			defer readers.Done()
			if readErrs[ci] = ph.readLoop(c, reply, data, tok); readErrs[ci] != nil {
				ph.abortOnce.Do(func() { close(ph.abort) })
			}
		}(ci, c)
	}
	var sampleErr error
	if runs[0].due != nil {
		ph.horizonNs = int64(limit)
		ph.sliceNs = min(sliceNs, ph.horizonNs) // a phase shorter than a slice is one slice
		writers.Add(2)
		go func() {
			defer writers.Done()
			ph.paceLoop(wl, conns)
		}()
		go func() {
			defer writers.Done()
			sampleErr = ph.sampleLoop(cpu)
		}()
	} else {
		for w, run := range runs {
			writers.Add(1)
			go func(c *conn, run *writerRun, tok chan struct{}) {
				defer writers.Done()
				ph.closedLoop(c, run, tok)
			}(conns[wl.writers[w].conn], run, tokens[w])
		}
	}
	writers.Wait()
	ph.endNs = int64(time.Since(ph.base))
	ph.writersDone.Store(true)
	readers.Wait()
	for _, run := range runs {
		if run.writeErr != nil {
			return ph, fmt.Errorf("bench: write: %w", run.writeErr)
		}
	}
	for _, err := range readErrs {
		if err != nil {
			return ph, err
		}
	}
	return ph, sampleErr
}

// sampleLoop reads the server's CPU time at every slice boundary of an open
// loop. It sleeps on a runtime timer, up to a millisecond late; against a
// slice of a second that is noise, and it pins no processor.
func (ph *phase) sampleLoop(cpu func() (float64, error)) error {
	for k := int64(0); k*ph.sliceNs <= ph.horizonNs; k++ {
		time.Sleep(time.Duration(k*ph.sliceNs) - time.Since(ph.base))
		v, err := cpu()
		if err != nil {
			return err
		}
		ph.cpuSamples = append(ph.cpuSamples, v)
	}
	return nil
}

// closedLoop sends one writer's lines with at most inflight of them
// unanswered, until the lines or the phase's time limit run out.
func (ph *phase) closedLoop(c *conn, run *writerRun, tokens chan struct{}) {
	i := 0
	defer func() { run.nSent.Store(int64(i)) }()
	for ; i < len(run.lines); i++ {
		if ph.limit > 0 && time.Since(ph.base) >= ph.limit {
			return
		}
		select {
		case tokens <- struct{}{}:
		case <-ph.abort: // a reader gave up; its tokens never come back
			return
		}
		run.sendStart[i] = int64(time.Since(ph.base))
		if _, err := c.nc.Write(run.lines[i]); err != nil {
			run.writeErr = err
			return
		}
	}
}

// paceLoop is the open loop: it sends every writer's lines at their due
// times, never waiting for a reply. One goroutine paces all writers: it
// sleeps in a system call, which pins its processor, and the readers need
// the other one — a pacer per writer would leave the network to be polled
// by the runtime's 10 ms background tick.
func (ph *phase) paceLoop(wl *workload, conns []*conn) {
	// Not unlocked: the thread carries a scheduling attribute and ends with
	// this goroutine.
	runtime.LockOSThread()
	schedSetattr(0, shortSliceNs) // 0 = SCHED_OTHER
	// The default 50 µs of timer slack would be added to every sleep.
	syscall.Syscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	next := make([]int, len(ph.runs))
	defer func() {
		for w, run := range ph.runs {
			run.nSent.Store(int64(next[w]))
		}
	}()
	for {
		w := -1
		for k, run := range ph.runs {
			if next[k] < len(run.lines) && (w < 0 || run.due[next[k]] < ph.runs[w].due[next[w]]) {
				w = k
			}
		}
		if w < 0 {
			return
		}
		run, i := ph.runs[w], next[w]
		run.sendStart[i] = int64(sleepUntil(ph.base, time.Duration(run.due[i])))
		if _, err := conns[wl.writers[w].conn].nc.Write(run.lines[i]); err != nil {
			run.writeErr = err
			return
		}
		if run.sent != nil {
			run.sent[i] = int64(time.Since(ph.base))
		}
		next[w]++
	}
}

// sleepUntil returns once due (since base) has passed, and the time then.
// time.Sleep cannot pace an open loop: with its processor idle the Go
// runtime parks in epoll_wait, whose timeout has millisecond granularity, so
// sleeps overshoot by up to 1 ms. A nanosleep system call on a thread with
// its timer slack turned off overshoots by ~30 µs here.
func sleepUntil(base time.Time, due time.Duration) time.Duration {
	now := time.Since(base)
	for now < due {
		ts := syscall.NsecToTimespec(int64(due - now))
		syscall.Nanosleep(&ts, nil)
		now = time.Since(base)
	}
	return now
}

// shortSliceNs is the time slice the pacer's thread asks the kernel for —
// enough for one wake-up and write. Under EEVDF a thread that wakes with a
// shorter slice than the running one preempts it at once instead of waiting
// out that slice (1.5 ms on two processors), which halved how often the
// pacer ran late while asdbd kept both processors busy. It needs no
// privilege, changes nothing for asdbd, and on a kernel without it the call
// fails and pacing is merely less exact.
const shortSliceNs = 100_000

// readLoop is one connection's reader for one phase. reply is the run of
// the writer on this connection (nil if none), data the run whose DATA
// lines land here (nil if none). When they are the same run the DATA lines
// of a request precede its reply; otherwise DATA lines are attributed to
// requests by position, linesPerReq to each.
func (ph *phase) readLoop(c *conn, reply, data *writerRun, tokens chan struct{}) error {
	own := reply == data
	var now int64
	var unexpected string
	onLine := func(l []byte) {
		switch {
		case bytes.HasPrefix(l, []byte("DATA ")):
			c.keep(l)
			if data == nil {
				return
			}
			data.dataBytes += int64(len(l)) + 1
			data.dataSeen++
			if own {
				if i := reply.replies.Load(); i < int64(len(data.dataAt)) {
					data.dataAt[i] = now
				}
			} else if data.linesPerReq > 0 && data.dataSeen%int64(data.linesPerReq) == 0 {
				if i := data.dataSeen/int64(data.linesPerReq) - 1; i < int64(len(data.dataAt)) {
					data.dataAt[i] = now
				}
			}
		case reply == nil:
			// A reply on a connection that sent nothing: the server speaks
			// out of turn only in error.
			unexpected = string(l)
		default:
			i := reply.replies.Load()
			if i < int64(len(reply.okAt)) {
				reply.okAt[i] = now
			}
			want := int64(reply.linesPerReq)
			if !bytes.HasPrefix(l, []byte("OK")) {
				reply.errs++
				if reply.firstErr == "" {
					reply.firstErr = string(l)
				}
			} else {
				if eq := bytes.LastIndexByte(l, '='); eq >= 0 {
					if m, err := strconv.ParseInt(string(l[eq+1:]), 10, 64); err == nil {
						reply.results.Add(m)
					}
				}
				if own && want > 0 && data.dataSeen-i*want != want {
					reply.shortData++
				}
			}
			if own && want > 0 {
				data.dataSeen = (i + 1) * want // realign on the reply boundary
			}
			reply.replies.Add(1)
			if tokens != nil {
				<-tokens
			}
		}
	}
	var drainBy time.Time
	for {
		if ph.writersDone.Load() {
			if drainBy.IsZero() {
				drainBy = time.Now().Add(drainTimeout)
			}
			replied := reply == nil || reply.replies.Load() == reply.nSent.Load()
			delivered := data == nil || own ||
				(data.replies.Load() == data.nSent.Load() && data.dataSeen == data.results.Load())
			if replied && delivered {
				return nil
			}
			if time.Now().After(drainBy) {
				return fmt.Errorf("bench: timed out waiting for replies or DATA lines")
			}
		}
		c.nc.SetReadDeadline(time.Now().Add(readPoll))
		err := c.recv()
		// One stamp per read: every line in it had arrived by now.
		now = int64(time.Since(ph.base))
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			return fmt.Errorf("bench: read: %w", err)
		}
		c.eachLine(onLine)
		if unexpected != "" {
			return fmt.Errorf("bench: unexpected line on a connection that sent nothing: %s", unexpected)
		}
	}
}
