package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// host records where a result file was measured: numbers from different
// hosts are not comparable.
type host struct {
	NProc          int    `json:"nproc"`
	GeneratorProcs int    `json:"generator_gomaxprocs"`
	ServerProcs    int    `json:"server_gomaxprocs"`
	GoVersion      string `json:"go_version"`
	CPUModel       string `json:"cpu_model"`
	Kernel         string `json:"kernel"`
	DataDirFS      string `json:"data_dir_fs"`
	GitCommit      string `json:"git_commit"`
	ServerFlags    string `json:"server_flags"`
	MaxConnections int    `json:"max_connections"`
}

// resultFile is what a suite run writes and -compare reads.
type resultFile struct {
	Host    host         `json:"host"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	BuildS  float64      `json:"build_s"`
	Runs    []*runResult `json:"runs"`
}

func hostHeader(root, dataDir string) host {
	h := host{
		NProc:          runtime.NumCPU(),
		GeneratorProcs: runtime.GOMAXPROCS(0),
		// asdbd is started without GOMAXPROCS in its environment, so its Go
		// runtime takes every processor.
		ServerProcs:    runtime.NumCPU(),
		GoVersion:      runtime.Version(),
		CPUModel:       "unknown",
		Kernel:         "unknown",
		GitCommit:      "unknown",
		ServerFlags:    "-workers 2 -seed 1 -level 0.9 -method analytical",
		MaxConnections: 2,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		h.DataDirFS = fsName(int64(st.Type))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// fsName names the filesystem magic numbers a benchmark host is likely to
// have under its checkout; fsync cost differs by orders of magnitude
// between them.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
