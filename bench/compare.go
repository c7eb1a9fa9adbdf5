package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// minPairs is the fewest runs per side a comparison accepts.
const minPairs = 10

// boundedMetric is one end-to-end metric of BENCHMARK.json.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

func loadBounds(path string) ([]boundedMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// loadRecords reads the untraced result files matching glob, grouped by
// workload and ordered by seed.
func loadRecords(glob string) (map[string][]*record, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	out := map[string][]*record{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judgement is the comparison of one metric on one workload.
type judgement struct {
	parent, change [3]float64 // quartiles
	wins           float64    // share of pairs the change wins
	verdict        string
}

// judge compares paired runs of one metric. Pairs are parent[i] with
// change[i]; a tie wins for neither side. The change improved when it
// wins at least nine pairs in ten and its median beats the parent's by
// more than the parent's own quartile spread; it regressed when its
// median is worse than the parent's by more than bound (a share of the
// parent's median); it is unresolved when the parent's spread is wider
// than the bound and not every change run beats every parent run;
// otherwise it is unchanged.
func judge(parent, change []float64, higherBetter bool, bound float64) judgement {
	better := func(a, b float64) bool { return a < b }
	if higherBetter {
		better = func(a, b float64) bool { return a > b }
	}
	var j judgement
	var ok bool
	j.parent[0], j.parent[1], j.parent[2], ok = quartiles(parent)
	if !ok {
		return judgement{verdict: unresolved}
	}
	j.change[0], j.change[1], j.change[2], ok = quartiles(change)
	if !ok {
		return judgement{verdict: unresolved}
	}
	n := min(len(parent), len(change))
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	j.wins = float64(wins) / float64(n)
	pmed, cmed := j.parent[1], j.change[1]
	spread := j.parent[2] - j.parent[0]
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worseBy := cmed - pmed
	if higherBetter {
		worseBy = -worseBy
	}
	switch {
	case j.wins >= 0.9 && better(cmed, pmed) && -worseBy > spread:
		j.verdict = improved
	case worseBy > bound*math.Abs(pmed):
		j.verdict = regressed
	case spread > bound*math.Abs(pmed) && !allBetter:
		j.verdict = unresolved
	default:
		j.verdict = unchanged
	}
	return j
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the share of pairs the change wins and the
// verdict against the metric's bound; then each side's failures and
// degraded windows, which a gain must not trade for.
func runCompare(w io.Writer, benchmarkPath, parentGlob, changeGlob string) error {
	metrics, err := loadBounds(benchmarkPath)
	if err != nil {
		return err
	}
	parent, err := loadRecords(parentGlob)
	if err != nil {
		return err
	}
	change, err := loadRecords(changeGlob)
	if err != nil {
		return err
	}
	var names []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has result files on both sides")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange wins\tbound\tverdict")
	for _, wl := range names {
		ps, cs := parent[wl], change[wl]
		if len(ps) < minPairs || len(cs) < minPairs {
			return fmt.Errorf("%s: need at least %d result files per side, have %d and %d", wl, minPairs, len(ps), len(cs))
		}
		moreFailures := failedFrac(cs) > failedFrac(ps)
		for _, m := range metrics {
			pv, cv := metricValues(ps, m.Name), metricValues(cs, m.Name)
			j := judge(pv, cv, m.Better == "higher", m.Bound)
			if j.verdict == improved && moreFailures {
				j.verdict = unresolved + " (more failures)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.0f%%\t%.0f%%\t%s\n",
				wl, m.Name, j.parent[1], j.parent[0], j.parent[2], j.change[1], j.change[0], j.change[2],
				100*j.wins, 100*m.Bound, j.verdict)
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.4g\t%.4g\t\t\t%s\n", wl, failedFrac(ps), failedFrac(cs),
			map[bool]string{true: "worse", false: "ok"}[moreFailures])
		pd, cd := median(gateValues(ps, "degraded_frac")), median(gateValues(cs, "degraded_frac"))
		fmt.Fprintf(tw, "%s\tdegraded_frac\t%.4g\t%.4g\t\t\t%s\n", wl, pd, cd,
			map[bool]string{true: "worse", false: "ok"}[cd > pd])
	}
	return tw.Flush()
}

func metricValues(rs []*record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func gateValues(rs []*record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Gates[name])
	}
	return out
}

// failedFrac is the share of attempted operations that failed, incorrect
// runs counting as wholly failed.
func failedFrac(rs []*record) float64 {
	var failed, attempted int
	for _, r := range rs {
		attempted += r.Result.Attempted
		if r.Result.Correct {
			failed += r.Result.Failed
		} else {
			failed += r.Result.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
