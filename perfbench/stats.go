package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// seedSeq is a splitmix64 stream. Every seed a workload hands the program
// comes from one of these, started from the benchmark's --seed, so the
// same --seed always produces the same specs and seeds.
type seedSeq struct{ x uint64 }

func newSeedSeq(seed, stream uint64) *seedSeq {
	return &seedSeq{x: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

// next returns the stream's next seed, kept below 2^40 so it reads the
// same in URLs, JSON and logs.
func (s *seedSeq) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & (1<<40 - 1)
}

// freshSeeds draws seeds no earlier draw of the same set returned, so a
// "never-seen" seed is a guarantee rather than a likelihood.
type freshSeeds struct {
	seq  *seedSeq
	seen map[uint64]bool
}

func newFreshSeeds(seed, stream uint64, seen map[uint64]bool) *freshSeeds {
	return &freshSeeds{seq: newSeedSeq(seed, stream), seen: seen}
}

func (f *freshSeeds) next() uint64 {
	for {
		s := f.seq.next()
		if !f.seen[s] {
			f.seen[s] = true
			return s
		}
	}
}

// durations holds latency samples.
type durations []time.Duration

func (d durations) sorted() durations {
	out := append(durations(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median is the middle sample, or the mean of the two middle samples.
func (d durations) median() time.Duration {
	s := d.sorted()
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile that still has at least 10 samples above
// it: the sample of rank n-10. It returns that sample, its percentile and
// the sample count. With 10 samples or fewer no sample qualifies, and the
// maximum is reported at percentile 100.
func (d durations) tail() (time.Duration, float64, int) {
	s := d.sorted()
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= 10 {
		return s[n-1], 100, n
	}
	return s[n-11], 100 * float64(n-10) / float64(n), n
}

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

func (d durations) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d.sum() / time.Duration(len(d))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite replaces NaN and infinities, which JSON cannot carry, with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// totalAlloc is the cumulative heap allocation of the process.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// cpuTicks is the host-wide "cpu" line of /proc/stat: all ticks and the
// ticks stolen by the hypervisor for other guests.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64) // a malformed field reads as 0
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of CPU time the hypervisor gave other guests
// since from. Timings on a shared host slow down as it rises, so the
// report carries it for judging a run.
func stealPct(from cpuTicks) float64 {
	to := readCPUTicks()
	return 100 * ratio(float64(to.steal-from.steal), float64(to.total-from.total))
}

// stamp identifies the host, toolchain and sources a result came from.
type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
}

func newStamp(seed uint64) stamp {
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit(),
		Seed:       seed,
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

// gitCommit names the checked-out commit when the working directory is a
// git work tree root; an exported source tree has none.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
