package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// tail percentile: a p99 needs at least 1000 samples.
const minTail = 10

// quantile returns the q-quantile of the raw samples by nearest rank.
// Above the median it fails when fewer than minTail samples lie beyond
// the rank, so a tail percentile is never read off a handful of samples.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if q > 0.5 && float64(n)*(1-q) < minTail {
		return 0, fmt.Errorf("%d samples support no p%g (need %d beyond it)", n, q*100, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// median is the middle of the values (the mean of the two middle ones
// for an even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean is the arithmetic mean; 0 for none.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// cv is the coefficient of variation (population standard deviation
// over mean) of the values; 0 when the mean is 0.
func cv(v []float64) float64 {
	m := mean(v)
	if m == 0 {
		return 0
	}
	ss := 0.0
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(v))) / m
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usec converts a duration to float microseconds.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rssMiB reads the process's resident set from /proc/self/statm.
func rssMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("rss: short /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("rss: parse %q: %w", f[1], err)
	}
	return pages * float64(os.Getpagesize()) / mib, nil
}

// cpuTicks is a /proc/stat aggregate CPU line: total and steal ticks.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the aggregate "cpu" line of /proc/stat. Zero
// ticks when the file is missing (the share then reads 0).
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// Fields after steal (guest, guest_nice) are already counted
		// in user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of CPU ticks stolen by the hypervisor
// between two readings.
func stealShare(a, b cpuTicks) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// fingerprint is the environment a run was measured in. It is recorded
// with every run so a noisy figure can be traced to the machine; it is
// never used to drop runs.
type fingerprint struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	StealShare float64 `json:"steal_share"`
}

func newFingerprint(workload string, seed int64, trace bool) fingerprint {
	return fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Workload:   workload,
		Trace:      trace,
	}
}

// commit is the revision `go build` stamped into the binary when it was
// built inside a version-controlled checkout, with "+dirty" for
// uncommitted changes; "unknown" otherwise.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, kv := range info.Settings {
		switch {
		case kv.Key == "vcs.revision":
			rev = kv.Value
		case kv.Key == "vcs.modified" && kv.Value == "true":
			dirty = "+dirty"
		}
	}
	if rev == "unknown" {
		return rev
	}
	return rev + dirty
}
