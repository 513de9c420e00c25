package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// repoRoot finds the checkout root — the directory holding cmd/asdbd — from
// the working directory or one of its parents, so the benchmark runs from
// the root (run.sh), from bench/ (go run -C bench .) and from go test.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "asdbd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: cmd/asdbd not found in the working directory or its parents: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildDir is where binaries and data directories go: inside the checkout,
// named in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildServer compiles cmd/asdbd from the checkout's source and returns the
// binary's path and the build's wall time.
func buildServer(root string) (string, float64, error) {
	out := filepath.Join(buildDir(root), "asdbd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/asdbd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("bench: go build ./cmd/asdbd: %v\n%s", err, msg)
	}
	return out, time.Since(t0).Seconds(), nil
}

// serverProc is one asdbd child.
type serverProc struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string
	logMu     sync.Mutex
	logTail   []string // last stderr lines, for failure reports
	logDone   chan struct{}
	killOnce  sync.Once
}

// freePort asks the kernel for an unused loopback port. asdbd logs the
// -debug-addr flag as given, not the bound address, so port 0 cannot be
// used there.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs asdbd with the host-sizing flags plus extra, and
// returns once it logs its bound address.
func startServer(bin string, extra ...string) (*serverProc, error) {
	debugAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-seed", "1", "-level", "0.9",
		"-method", "analytical", "-debug-addr", debugAddr}, extra...)
	p := &serverProc{cmd: exec.Command(bin, args...), debugAddr: debugAddr, logDone: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	listening := make(chan string, 1)
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !found {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					found = true
					listening <- rest[:j]
				}
			}
			p.logMu.Lock()
			if len(p.logTail) == 20 {
				p.logTail = p.logTail[1:]
			}
			p.logTail = append(p.logTail, line)
			p.logMu.Unlock()
		}
	}()
	select {
	case p.addr = <-listening:
		return p, nil
	case <-p.logDone:
		p.cmd.Wait()
		return nil, fmt.Errorf("bench: asdbd exited before listening:\n%s", p.tail())
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("bench: asdbd did not listen within 30s:\n%s", p.tail())
	}
}

func (p *serverProc) tail() string {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return strings.Join(p.logTail, "\n")
}

// kill sends SIGKILL and waits for the child and its log reader to end.
func (p *serverProc) kill() {
	p.killOnce.Do(func() {
		p.cmd.Process.Kill()
		<-p.logDone
		p.cmd.Wait()
	})
}

// cpuSeconds reads the child's CPU time as the scheduler counted it: the
// run time of every thread, in ns, from /proc/<pid>/task/<tid>/schedstat.
// utime+stime in /proc/<pid>/stat are sampled at the 4 ms tick and printed
// in 10 ms units, which is ±5 % of what asdbd uses in a one-second slice.
// (A thread that exits takes its time with it; the Go runtime keeps its.)
func (p *serverProc) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread ended between the two reads
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("bench: empty schedstat for task %s", t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("bench: bad schedstat %q", data)
		}
		ns += v
	}
	if ns == 0 {
		return 0, fmt.Errorf("bench: no run time in %s/*/schedstat (kernel without CONFIG_SCHED_INFO?)", dir)
	}
	return ns / 1e9, nil
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// memStats is the slice of runtime.MemStats that /debug/vars publishes and
// the proc.* metrics use.
type memStats struct {
	TotalAlloc uint64
	NumGC      uint32
}

func (p *serverProc) memStats() (memStats, error) {
	var out struct {
		Memstats memStats `json:"memstats"`
	}
	resp, err := http.Get("http://" + p.debugAddr + "/debug/vars")
	if err != nil {
		return out.Memstats, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out.Memstats, err
	}
	return out.Memstats, json.Unmarshal(body, &out)
}
