package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// usage is a reading (or, after since, a difference) of the process's host
// cost counters.
type usage struct {
	wall      time.Duration
	cpu       time.Duration // user + system, getrusage
	mallocs   uint64        // runtime.MemStats.Mallocs
	bytes     uint64        // runtime.MemStats.TotalAlloc
	gcCycles  uint32
	gcPauseNS uint64
}

var processStart = time.Now()

func takeUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:      time.Since(processStart),
		cpu:       tvDuration(ru.Utime) + tvDuration(ru.Stime),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNS: ms.PauseTotalNs,
	}
}

func (u usage) since(u0 usage) usage {
	return usage{
		wall:      u.wall - u0.wall,
		cpu:       u.cpu - u0.cpu,
		mallocs:   u.mallocs - u0.mallocs,
		bytes:     u.bytes - u0.bytes,
		gcCycles:  u.gcCycles - u0.gcCycles,
		gcPauseNS: u.gcPauseNS - u0.gcPauseNS,
	}
}

// ms is a duration in milliseconds, as the reports print it.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// hostRecord identifies where and on what a result was measured; it is
// part of every output file.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func readHost() hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git
// (the driver's checkout is not a repository; there it is "unknown").
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
