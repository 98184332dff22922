package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json this program reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies each end-to-end metric's bound from BENCHMARK.json to
// two result files (a is the reference, b the candidate) and requires the
// exact program-side counts of the traced passes to be equal. It prints one
// row per (workload, metric): ok, regressed (b's median is worse than a's by
// more than the bound, or a count differs), or unresolved (no regression
// shown, but a set's interquartile spread is wider than the bound, so the
// runs cannot tell). It reports whether anything regressed.
func compareFiles(aPath, bPath, benchPath string, out io.Writer) (regressed bool, err error) {
	var a, b resultFile
	var bench benchmarkJSON
	if err := readJSONFile(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSONFile(bPath, &b); err != nil {
		return false, err
	}
	if err := readJSONFile(benchPath, &bench); err != nil {
		return false, err
	}
	if a.Host.NProc != b.Host.NProc || a.Host.GoVersion != b.Host.GoVersion || a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Fprintf(out, "warning: the two sets differ in host or settings (%+v %s %gs vs %+v %s %gs)\n",
			a.Host, a.Scale, a.Seconds, b.Host, b.Scale, b.Seconds)
	}
	fmt.Fprintf(out, "%-12s %-30s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", name)
		}
		for _, set := range []struct {
			label string
			wr    *workloadResult
		}{{"a", wa}, {"b", wb}} {
			if set.wr.Noisy {
				fmt.Fprintf(out, "warning: %s: set %s is flagged noisy: %v\n", name, set.label, set.wr.NoisyWhy)
			}
			if set.wr.Failed > 0 {
				fmt.Fprintf(out, "%-12s %-30s set %s: %d of %d operations failed  regressed\n",
					name, "error_rate", set.label, set.wr.Failed, set.wr.Attempted)
				regressed = true
			}
		}
		for _, m := range bench.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				return false, fmt.Errorf("%s: metric %s is missing from a result file", name, m.Name)
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(sa.Spread, sb.Spread)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case sp > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-12s %-30s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				name, m.Name, sa.Median, sb.Median, worse*100, sp*100, m.Bound*100, verdict)
		}
		for _, d := range perLayerMetrics {
			if !d.exact {
				continue
			}
			va, vb := wa.PerLayer[d.name], wb.PerLayer[d.name]
			verdict := "ok"
			if va.Value != vb.Value {
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(out, "%-12s %-30s %14.4f %14.4f %8s %8s %7s  %s\n",
				name, d.name, va.Value, vb.Value, "", "", "exact", verdict)
		}
	}
	return regressed, nil
}
