package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Keep-warm spinners. On this kind of host — a small virtual machine — a
// virtual CPU that goes idle is halted, and the first work after it wakes
// runs at about half speed for tens of milliseconds: the same fixed loop
// after a 0.9 s sleep took either 10.8 ms or 19.6 ms, bimodally, on an
// otherwise idle machine. A paced phase at a third of capacity idles
// between every two requests, so its latencies and CPU costs inherited that
// coin toss. One spinner per processor at SCHED_IDLE priority keeps the
// processors from halting: it runs only when nothing else wants its CPU and
// any other thread preempts it at once, so it takes nothing from asdbd or
// the generator, and the bimodality goes away (10.7–12 ms). It is host
// conditioning of the kind `idle=poll` does, applied from user space.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// schedSetattr calls sched_setattr(2) on the calling thread. The frozen
// syscall package has no name for it.
func schedSetattr(policy uint32, sliceNs uint64) error {
	nr := map[string]uintptr{"amd64": 314, "arm64": 274}[runtime.GOARCH]
	if nr == 0 {
		return fmt.Errorf("sched_setattr: unknown syscall number on %s", runtime.GOARCH)
	}
	attr := struct {
		size, policy          uint32
		flags                 uint64
		nice                  int32
		priority              uint32
		runtime, deadline, pd uint64
	}{size: 48, policy: policy, runtime: sliceNs}
	if _, _, errno := syscall.Syscall(nr, 0, uintptr(unsafe.Pointer(&attr)), 0); errno != 0 {
		return errno
	}
	return nil
}

// keepWarmMain is the spinner process (`-keepwarm`): it drops to SCHED_IDLE
// and spins until its parent kills it or goes away.
func keepWarmMain() int {
	runtime.LockOSThread()
	if err := schedSetattr(schedIdle, 0); err != nil {
		// Never spin at normal priority: that would take a processor away.
		fmt.Fprintln(os.Stderr, "bench: keep-warm: sched_setattr(SCHED_IDLE):", err)
		return 1
	}
	parent := os.Getppid()
	for i := uint64(1); ; i++ {
		if i&(1<<27-1) == 0 && os.Getppid() != parent {
			return 0 // orphaned: the benchmark died without stopping us
		}
	}
}

// startKeepWarm starts one spinner per processor from the benchmark's own
// binary and returns the function that stops them and waits for them.
func startKeepWarm() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: keep-warm spinners not started:", err)
		return func() {}
	}
	var cmds []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "-keepwarm")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: keep-warm spinner not started:", err)
			continue
		}
		cmds = append(cmds, cmd)
	}
	return func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}
