package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is printed with every result so figures are compared only
// with figures taken on the same kind of machine.
type environment struct {
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	WALFS      string `json:"wal_fs"`
}

func readEnvironment(seed int64, workload string, trace bool, walRoot string) environment {
	return environment{
		Seed:       seed,
		Workload:   workload,
		Trace:      trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		WALFS:      fsType(walRoot),
	}
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	line := firstLine("/proc/stat")
	f := strings.Fields(line)
	var st cpuStat
	if len(f) < 9 || f[0] != "cpu" {
		return st
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += n
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealShare is the share of the machine's CPU time the hypervisor gave
// to other guests between two readings: run-to-run noise on a shared
// machine follows it.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType returns the filesystem type of the mount holding dir, from the
// longest matching mount point in /proc/self/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}
