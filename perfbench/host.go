package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine a result was measured on, so a number
// always travels with its host.
type hostInfo struct {
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       int    `json:"gogc"`
}

func currentHost() hostInfo {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	return hostInfo{
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
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

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 10 * time.Millisecond

// rssSampler records the process's largest resident set, in MiB, from
// start to stop.
type rssSampler struct {
	stop, done chan struct{}
	peak       float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.peak = max(s.peak, rssMB())
			select {
			case <-s.stop:
				s.peak = max(s.peak, rssMB())
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// rssMB is the current resident set in MiB, from /proc/self/statm where
// it exists, else the process's high-water mark.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return peakRSSMB()
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return peakRSSMB()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return peakRSSMB()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB is the process's resident-set high-water mark in MiB: VmHWM
// where /proc provides it, else the rusage maximum.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
