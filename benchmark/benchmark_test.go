package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func smokeRun(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(runConfig{Workload: workload, Seed: seed, Seconds: 0.25, Scale: "smoke", Trace: trace}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !rep.Correct {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %s",
			workload, seed, trace, rep.Failed, rep.Attempted, rep.FirstErr)
	}
	return rep
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs all four workloads, untraced and traced, at smoke scale:
// the program and BENCHMARK.json name the same workloads and metrics, every
// metric is present, finite and carries its unit, one seed gives identical
// program-side counts twice, and a second seed passes the oracle.
func TestSmoke(t *testing.T) {
	var bench benchmarkJSON
	if err := readJSONFile(filepath.Join("..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	var benchWorkloads, benchE2E, benchLayer []string
	units := map[string]string{}
	for _, w := range bench.Workloads {
		benchWorkloads = append(benchWorkloads, w.Name)
	}
	for _, m := range bench.EndToEnd {
		benchE2E = append(benchE2E, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		benchLayer = append(benchLayer, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(benchE2E)
	sort.Strings(benchLayer)
	if got := strings.Join(benchWorkloads, " "); got != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %q, program %q", got, strings.Join(workloadNames, " "))
	}
	if got, want := strings.Join(benchE2E, " "), strings.Join(names(endToEndMetrics), " "); got != want {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %s\nprogram        %s", got, want)
	}
	if got, want := strings.Join(benchLayer, " "), strings.Join(names(perLayerMetrics), " "); got != want {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %s\nprogram        %s", got, want)
	}

	check := func(rep *report, defs []metricDef) {
		t.Helper()
		if len(rep.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", rep.Workload, len(rep.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rep.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", rep.Workload, d.name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", rep.Workload, d.name, m.Value)
			case m.Unit == "" || m.Unit != units[d.name]:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rep.Workload, d.name, m.Unit, units[d.name])
			}
		}
	}
	for _, w := range workloadNames {
		timed := smokeRun(t, w, 1, false)
		check(timed, endToEndMetrics)
		for _, d := range endToEndMetrics {
			if timed.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, timed.Metrics[d.name].Value)
			}
		}
		a, b := smokeRun(t, w, 1, true), smokeRun(t, w, 1, true)
		check(a, perLayerMetrics)
		for _, d := range perLayerMetrics {
			if d.exact && a.Metrics[d.name].Value != b.Metrics[d.name].Value {
				t.Errorf("%s: count %s differs between two runs of seed 1: %v vs %v",
					w, d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
			}
		}
		sum := 0.0
		for _, row := range a.Breakdown[:len(a.Breakdown)-1] {
			sum += row.MeanUS
		}
		if total := a.Breakdown[len(a.Breakdown)-1].MeanUS; math.Abs(sum-total) > 1e-6*total {
			t.Errorf("%s: breakdown rows sum to %v us, warm query is %v us", w, sum, total)
		}
		smokeRun(t, w, 2, false) // a second seed passes the oracle
	}
}

// TestOracleCatchesWrongResult corrupts one recorded digest and expects the
// oracle to fail exactly that operation.
func TestOracleCatchesWrongResult(t *testing.T) {
	spec, _ := specFor("scan_repeat")
	sz, _ := sizesFor("smoke")
	in, err := setUp(spec, sz, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := in.runWindow(100e6)
	in.tearDown()
	w.samples[0][len(w.samples[0])/2].hash++
	v, err := verify(spec, sz, 3, &w)
	if err != nil {
		t.Fatal(err)
	}
	if v.failed != 1 {
		t.Fatalf("oracle failed %d operations, want 1 (%s)", v.failed, v.firstErr)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 || median(vals) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, median(vals))
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps []float64, rows float64) string {
		rf := resultFile{Scale: "smoke", Workloads: map[string]*workloadResult{}}
		for _, w := range workloadNames {
			wr := &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]metric{}}
			for _, d := range endToEndMetrics {
				s := &series{Unit: d.unit, Values: []float64{100, 101, 102}}
				if d.name == "qps" {
					s.Values = qps
				}
				s.summarize()
				wr.EndToEnd[d.name] = s
			}
			wr.PerLayer["engine.rows_scanned"] = metric{Value: rows, Unit: "count"}
			rf.Workloads[w] = wr
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", []float64{1000, 1005, 1010}, 7)
	for _, tc := range []struct {
		name      string
		path      string
		regressed bool
		want      string
	}{
		{"same", write("same.json", []float64{1001, 1004, 1011}, 7), false, " ok"},
		{"slower", write("slow.json", []float64{700, 705, 710}, 7), true, "regressed"},
		{"wide", write("wide.json", []float64{600, 1005, 1400}, 7), false, "unresolved"},
		{"count", write("count.json", []float64{1000, 1005, 1010}, 8), true, "regressed"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(base, tc.path, bench, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%v, output:\n%s", tc.name, regressed, out.String())
		}
	}
}

// TestSlicePercentiles: a stall confined to one slice of the window moves the
// whole-window p99 and leaves the median of the slices' p99 alone; too few
// samples give one slice.
func TestSlicePercentiles(t *testing.T) {
	const perSlice, slices = minSliceSamples, 4
	w := window{elapsed: slices * time.Second, samples: make([][]sample, 1)}
	for i := 0; i < perSlice*slices; i++ {
		s := sample{at: int64(i) * int64(time.Second) / perSlice, nanos: 1e6}
		if i/perSlice == 2 && i%10 == 0 {
			s.nanos = 50e6 // a tenth of the third slice's operations stall
		}
		w.samples[0] = append(w.samples[0], s)
	}
	all := func(*sample) bool { return true }
	got := w.slicePercentiles(0.99, all)
	if len(got) != slices || got[0] != 1 || got[1] != 1 || got[2] != 50 || got[3] != 1 {
		t.Fatalf("slice p99s %v, want [1 1 50 1]", got)
	}
	if m, whole := median(got), percentile(w.latencies(all), 0.99); m != 1 || whole != 50 {
		t.Errorf("median of slices %v (want 1), whole window %v (want 50)", m, whole)
	}
	w.samples[0] = w.samples[0][:minSliceSamples+1]
	if got := w.slicePercentiles(0.99, all); len(got) != 1 {
		t.Errorf("%d samples cut into %d slices, want 1", minSliceSamples+1, len(got))
	}
}
