package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// record is one run as -out stores it: the run's result plus what it ran.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// side is one file's end-to-end runs of one workload.
type side struct {
	values            map[string][]float64
	attempted, failed int
}

func (s *side) failedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

func byWorkload(rs []record) map[string]*side {
	out := make(map[string]*side)
	for _, r := range rs {
		s := out[r.Workload]
		if s == nil {
			s = &side{values: make(map[string][]float64)}
			out[r.Workload] = s
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
	}
	return out
}

// iqrShare is the distance between the first and third quartile as a
// share of the median: the run-to-run spread the bounds are judged
// against. Fewer than four values have no quartiles; their range stands
// in.
func iqrShare(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / med
}

// quantile interpolates the way Python's statistics.quantiles does by
// default (exclusive method) over sorted values.
func quantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	i := int(pos)
	switch {
	case pos <= 0:
		return sorted[0]
	case i >= len(sorted)-1:
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// verdict judges one metric of one workload: worse when the change's
// median is beyond the bound on the wrong side, better when beyond it on
// the right side, unresolved when either side's own spread is wider than
// the bound, same otherwise.
func verdict(m metric, parent, change []float64) (ratio float64, word string) {
	pm, cm := median(parent), median(change)
	if pm == 0 {
		return 0, "unresolved"
	}
	ratio = cm / pm
	worsening := ratio - 1
	if m.higher {
		worsening = 1 - ratio
	}
	switch {
	case iqrShare(parent) > m.bound || iqrShare(change) > m.bound:
		return ratio, "unresolved"
	case worsening > m.bound:
		return ratio, "worse"
	case -worsening > m.bound:
		return ratio, "better"
	}
	return ratio, "same"
}

// compareSides prints, per workload and end-to-end metric, the parent's
// median, the change's, their ratio and the verdict, and returns how many
// got each verdict (a higher failed-operation share counts as a worse).
func compareSides(w io.Writer, parent, change map[string]*side) map[string]int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent\tchange\tchange/parent\tspread p/c\tbound\tverdict")
	verdicts := make(map[string]int)
	for _, s := range fullSpecs {
		p, c := parent[s.name], change[s.name]
		if p == nil || c == nil {
			continue
		}
		for _, m := range endToEnd {
			ratio, word := verdict(m, p.values[m.name], c.values[m.name])
			verdicts[word]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f of %.4g\t%.1f%%/%.1f%%\t%.0f%%\t%s\n",
				s.name, m.name, m.unit, median(p.values[m.name]), median(c.values[m.name]),
				ratio, median(p.values[m.name]),
				100*iqrShare(p.values[m.name]), 100*iqrShare(c.values[m.name]), 100*m.bound, word)
		}
		word := "same"
		if c.failedShare() > p.failedShare() {
			word = "worse"
		}
		verdicts[word]++
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%d/%d\t%d/%d\t\t\t\t%s\n",
			s.name, p.failed, p.attempted, c.failed, c.attempted, word)
	}
	tw.Flush()
	return verdicts
}

func compareFiles(w io.Writer, parentPath, changePath string) (map[string]int, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return nil, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return nil, err
	}
	return compareSides(w, byWorkload(parent), byWorkload(change)), nil
}

// selfCheck runs this binary as two alternating sets of full runs — A B A
// B … — and compares set A against set B as if they were parent and
// change. The code is the same, so anything but same or better is the
// benchmark failing to repeat itself within its own bounds.
func selfCheck(w io.Writer, runs int, seed int64, seconds float64, workDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	files := [2]string{filepath.Join(workDir, "selfcheck-a.json"), filepath.Join(workDir, "selfcheck-b.json")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for i := 0; i < 2*runs; i++ {
		for _, s := range fullSpecs {
			cmd := exec.Command(exe, "-workload", s.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-workdir", workDir, "-out", files[i%2])
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run %d of %s: %w", i, s.name, err)
			}
		}
	}
	verdicts, err := compareFiles(w, files[0], files[1])
	if err != nil {
		return err
	}
	if n := verdicts["worse"] + verdicts["better"]; n > 0 {
		return fmt.Errorf("%d medians differ between the two sets by more than their bound", n)
	}
	return nil
}
