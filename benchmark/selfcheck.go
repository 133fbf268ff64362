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

// spec is BENCHMARK.json: the benchmark reads its units and bounds from
// the same file the driver does.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) units() map[string]string {
	u := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		u[m.Name] = m.Unit
	}
	return u
}

// quartiles returns the first quartile, the median and the third
// quartile the way Python's statistics.quantiles(xs, n=4) does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// runsPerSet is how many runs of a workload each of selfCheck's two sets
// holds.
const runsPerSet = 5

// selfCheck runs every workload as two interleaved sets (A B A B ...)
// of this very binary, so the two sets measure identical code, and fails
// when a set's median is worse than the other's by more than the
// metric's bound: a benchmark that cannot repeat itself within its own
// bounds cannot judge a change either.
func selfCheck(cfg config, sp *spec) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	breaches := 0
	for _, wl := range sp.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runsPerSet; i++ {
			// Pair i of A and B share a seed, so they also share inputs.
			seed := cfg.seed + int64(i/2)
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", fmt.Sprint(cfg.seconds), "-spec", cfg.specPath, "-dir", cfg.dataDir)
			var out bytes.Buffer
			cmd.Stdout = &out
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s, run %d: %w", wl.Name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res struct {
				Failed  int64 `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s, run %d: %w", wl.Name, i, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s, run %d: %d failed operations", wl.Name, i, res.Failed)
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			cfg.logf("%s: run %d of %d done", wl.Name, i+1, 2*runsPerSet)
		}
		fmt.Printf("%s\n  %-20s %34s %34s %8s %6s\n", wl.Name, "metric", "A: median [q1, q3]", "B: median [q1, q3]", "B vs A", "bound")
		for _, m := range sp.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			diff := (b2 - a2) / a2
			verdict := ""
			if diff > m.Bound || -diff > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("  %-20s %12.4f [%9.4f,%9.4f] %12.4f [%9.4f,%9.4f] %+7.2f%% %5.0f%%%s\n",
				m.Name, a2, a1, a3, b2, b1, b3, 100*diff, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound between two sets of runs of the same code", breaches)
	}
	return nil
}
