package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations per operation type and
// wrong answers, keeping the first few messages. Safe for concurrent
// use.
type tally struct {
	mu        sync.Mutex
	attempted map[string]int
	failed    map[string]int
	wrong     int
	notes     []string
}

func newTally() *tally {
	return &tally{attempted: map[string]int{}, failed: map[string]int{}}
}

// op records one operation: err marks it failed (no usable answer), bad
// marks a wrong answer.
func (t *tally) op(kind string, err, bad error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted[kind]++
	if err != nil {
		t.failed[kind]++
		t.note(kind, err)
	}
	if bad != nil {
		t.wrong++
		t.note(kind, bad)
	}
}

// check records the outcome of a check made outside any one operation.
func (t *tally) check(what string, bad error) {
	if bad == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wrong++
	t.note(what, bad)
}

func (t *tally) note(kind string, err error) {
	if len(t.notes) < 20 {
		t.notes = append(t.notes, kind+": "+err.Error())
	}
}

func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.attempted {
		attempted += n
	}
	for _, n := range t.failed {
		failed += n
	}
	return attempted, failed
}

// sample is one completed operation: when it completed, counted from
// the start of the measured phase, and how long it took.
type sample struct {
	at time.Duration
	ms float64
}

// windowsOf groups samples into consecutive windows of the given width,
// dropping the last partial one, each window's latencies sorted.
func windowsOf(samples []sample, width, elapsed time.Duration) [][]float64 {
	ws := make([][]float64, int(elapsed/width))
	for _, s := range samples {
		if w := int(s.at / width); w < len(ws) {
			ws[w] = append(ws[w], s.ms)
		}
	}
	for _, w := range ws {
		sort.Float64s(w)
	}
	return ws
}

// counts returns the number of samples in each window.
func counts(ws [][]float64) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = len(w)
	}
	return out
}

// Per-window statistics for windowMedian. Taking the median over
// windows keeps a short disturbance of the machine from moving a whole
// run's figure.
func p50(w []float64) float64 { return quantile(w, 0.50) }

func perSecond(width time.Duration) func([]float64) float64 {
	return func(w []float64) float64 { return float64(len(w)) / width.Seconds() }
}

// windowMedian returns the median over the non-empty windows of f
// applied to each.
func windowMedian(ws [][]float64, f func(lat []float64) float64) float64 {
	var xs []float64
	for _, w := range ws {
		if len(w) > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
