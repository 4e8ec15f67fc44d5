package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the repeat mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string
		Unit  string
		Bound float64
	} `json:"end_to_end"`
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// repeatRuns runs the workload n times, each in its own process with
// its own seed, and prints for every end-to-end metric the median, the
// quartiles and the spread (q3-q1)/median against the metric's bound.
func repeatRuns(workload string, seed int64, seconds, n int) error {
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var shares []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = childAttr()
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, lines[len(lines)-1])
	}
	fmt.Printf("%s, %d runs, seeds %d..%d, failed/attempted %v\n", workload, n, seed, seed+int64(n)-1, shares)
	fmt.Printf("%-26s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, e := range spec.EndToEnd {
		xs, ok := values[e.Name]
		if !ok {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		spread := (q3 - q1) / q2
		verdict := "ok"
		if spread > e.Bound {
			verdict = "OVER"
		} else if spread > e.Bound/3 {
			verdict = "over bound/3"
		}
		fmt.Printf("%-26s %12.4f %12.4f %12.4f %7.1f%% %6.1f%% %s %s\n", e.Name, q1, q2, q3, 100*spread, 100*e.Bound, e.Unit, verdict)
	}
	return nil
}
