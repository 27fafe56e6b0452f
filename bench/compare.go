package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// The A/B method, codified. For every (workload, end-to-end metric):
// both sides' median and quartiles over their runs, the ratio b/a, and
// a verdict against the metric's bound —
//
//	unresolved  either side's run-to-run spread (quartile distance over
//	            median) exceeds the bound: the runs cannot tell
//	regressed   b's median is worse than a's by more than the bound
//	improved    b's median is better than a's by more than the bound
//	unchanged   otherwise
//
// A verdict is about these two sets of runs only; claiming a gain takes
// the paired procedure of the choosing-metrics guide on top.

type sideStats struct {
	n           int
	q1, med, q3 float64
}

func statsOf(vals []float64) sideStats {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return sideStats{n: len(s), q1: quantile(s, 0.25), med: median(s), q3: quantile(s, 0.75)}
}

func (s sideStats) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

func verdict(a, b sideStats, d metricDef) string {
	if a.spread() > d.Bound || b.spread() > d.Bound {
		return "unresolved"
	}
	if a.med == 0 {
		return "unresolved"
	}
	worse := (b.med - a.med) / a.med
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "regressed"
	case worse < -d.Bound:
		return "improved"
	}
	return "unchanged"
}

func readSummary(path string) (summary, error) {
	var s summary
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (ws workloadSummary) values(metric string) []float64 {
	var out []float64
	for _, r := range ws.Runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSummary(pathA)
	if err != nil {
		return err
	}
	b, err := readSummary(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "a = %s (%d-proc, %s)\tb = %s (%d-proc, %s)\n", pathA, a.NProc, a.Go, pathB, b.NProc, b.Go)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3] n\tb median [q1, q3] n\tb/a\tbound\tverdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		for _, d := range endToEnd {
			va, vb := wa.values(d.Name), wb.values(d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := statsOf(va), statsOf(vb)
			fmt.Fprintf(tw, "%s\t%s (%s, %s is better)\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%.4f of %.4g\t%.0f%%\t%s\n",
				wl.name, d.Name, d.Unit, d.Better,
				sa.med, sa.q1, sa.q3, sa.n, sb.med, sb.q1, sb.q3, sb.n,
				sb.med/sa.med, sa.med, 100*d.Bound, verdict(sa, sb, d))
		}
		fa, fb := failures(wa), failures(wb)
		fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\t\t\t%s\n", wl.name, fa, fb,
			map[bool]string{true: "unchanged", false: "regressed"}[fb <= fa])
	}
	return tw.Flush()
}

func failures(ws workloadSummary) (n int64) {
	for _, r := range ws.Runs {
		n += r.Failed
	}
	return n
}
