package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(body, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesTables pins BENCHMARK.json against the tables the
// program reports from, so neither can change alone.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the -seconds default is %v", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(fullSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(c.Workloads), len(fullSpecs))
	}
	for i, w := range c.Workloads {
		if s := fullSpecs[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec has %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
	}
	check := func(kind string, got []contractMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if g.Name != m.name || g.Unit != m.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s: %q (%q) is outside the contract's alphabet", kind, m.name, m.unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound):
				t.Errorf("%s: bound of %s differs between BENCHMARK.json and the table", kind, m.name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s carries a bound", kind, m.name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

// TestTinyRuns drives all four workloads, end to end and traced, at
// -scale tiny. It asserts shape and correctness only — every metric
// printed once with its unit, no failed operation — never a timing.
func TestTinyRuns(t *testing.T) {
	dir := t.TempDir()
	for _, s := range tinySpecs {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), runConfig{
				spec: s, seed: 7, seconds: 0, trace: traced,
				workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", s.name, traced, len(res.Metrics), len(table))
			}
			for _, m := range table {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q, want %q", s.name, traced, m.name, v.Unit, m.unit)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s trace=%v: result line has keys %v, want exactly correct, attempted, failed, metrics", s.name, traced, keys)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+s.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", s.name, err)
				}
			}
		}
	}
}

// TestCompareVerdicts checks the four verdicts on made-up runs.
func TestCompareVerdicts(t *testing.T) {
	lower := metric{name: "search_p50_us", bound: 0.10}
	higher := metric{name: "search_qps", higher: true, bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		m      metric
		change []float64
		want   string
	}{
		{lower, []float64{105, 104, 106, 105, 105}, "same"},
		{lower, []float64{120, 121, 119, 120, 120}, "worse"},
		{lower, []float64{80, 81, 79, 80, 80}, "better"},
		{higher, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, []float64{120, 121, 119, 120, 120}, "better"},
		{lower, []float64{80, 120, 100, 140, 60}, "unresolved"},
	} {
		if _, got := verdict(tc.m, steady, tc.change); got != tc.want {
			t.Errorf("%s %v: verdict %q, want %q", tc.m.name, tc.change, got, tc.want)
		}
	}
}
