package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// runConfig selects one run: one workload, one seed, one pass.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Scale    string
	Trace    bool
	// TraceDir receives trace-<workload>.jsonl after a traced pass; empty
	// keeps the spans in memory only.
	TraceDir string
}

// report is everything one run measured. Metrics holds exactly the metrics
// BENCHMARK.json names for the pass (end-to-end untraced, per-layer traced);
// Info holds figures that are printed but carry no bound.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Scale     string            `json:"scale"`
	Trace     bool              `json:"trace"`
	Sessions  int               `json:"sessions"`
	Loop      string            `json:"loop"`
	Host      hostInfo          `json:"host"`
	Sizes     sizes             `json:"sizes"`
	CalBefore float64           `json:"calibration_before_ns_op"`
	CalAfter  float64           `json:"calibration_after_ns_op"`
	Noisy     bool              `json:"noisy"`
	NoisyWhy  []string          `json:"noisy_why,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info"`
	Breakdown []breakdownRow    `json:"breakdown,omitempty"`
}

// contractLine is the last line of standard output of every single run.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) contract() contractLine {
	return contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// run executes one pass of one workload and reports it. log receives
// human-readable progress.
func run(cfg runConfig, log io.Writer) (*report, error) {
	spec, err := specFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	sz, err := sizesFor(cfg.Scale)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale, Trace: cfg.Trace,
		Sessions: spec.sessions, Loop: "closed", Host: readHost(), Sizes: sz,
		Metrics: map[string]metric{}, Info: map[string]metric{},
	}
	if spec.sessions == 0 {
		rep.Sessions = 1 // one in-process goroutine
	}
	// The calibration loop runs on every processor, the pass on as many as
	// the workload asks for.
	rep.CalBefore = calibrate()
	procs := runtime.GOMAXPROCS(0)
	if spec.procs > 0 {
		runtime.GOMAXPROCS(spec.procs)
		rep.Host.GOMAXPROCS = spec.procs
	}
	if cfg.Trace {
		err = runTraced(spec, sz, cfg, rep, log)
	} else {
		err = runTimed(spec, sz, cfg, rep, log)
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	rep.CalAfter = calibrate()
	if drift := math.Abs(rep.CalAfter-rep.CalBefore) / rep.CalBefore; drift > 0.05 {
		rep.NoisyWhy = append(rep.NoisyWhy, fmt.Sprintf("calibration drifted %.1f%% during the run", drift*100))
	}
	if spec.sessions > rep.Host.NProc {
		rep.NoisyWhy = append(rep.NoisyWhy, fmt.Sprintf("%d client connections on %d processors", spec.sessions, rep.Host.NProc))
	}
	rep.Noisy = len(rep.NoisyWhy) > 0
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// runTimed is the untraced pass: set up (several times, for a steady
// setup_s), drive the closed loop for cfg.Seconds, verify.
func runTimed(spec workloadSpec, sz sizes, cfg runConfig, rep *report, log io.Writer) error {
	var in *instance
	var setups []float64
	total := 0.0
	for i := 0; i < sz.SetupRepeats || (total < sz.SetupMinSeconds && i < maxSetupRepeats); i++ {
		if in != nil {
			in.tearDown()
			in = nil
			runtime.GC()
		}
		start := time.Now()
		next, err := setUp(spec, sz, cfg.Seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[i]
		in = next
	}
	fmt.Fprintf(log, "%s: set up %d times, %v s\n", spec.name, len(setups), setups)

	w := in.runWindow(time.Duration(cfg.Seconds * float64(time.Second)))
	budget := in.db.PredicateCache().Config().MemBudget
	in.tearDown()
	in = nil
	runtime.GC()

	v, err := verify(spec, sz, cfg.Seed, &w)
	if err != nil {
		return err
	}
	rep.Attempted, rep.Failed, rep.FirstErr = v.attempted, v.failed, v.firstErr

	isRead := func(s *sample) bool { return s.kind == opRead && s.err == nil }
	reads := w.latencies(isRead)
	dml := w.latencies(func(s *sample) bool {
		return (s.kind == opInsert || s.kind == opDelete || s.kind == opUpdate) && s.err == nil
	})
	vacuums := w.latencies(func(s *sample) bool { return s.kind == opVacuum })
	if len(reads) == 0 {
		return fmt.Errorf("%s: no read completed in %.1f s", spec.name, cfg.Seconds)
	}
	ops := float64(v.attempted)
	set := func(name string, value float64) {
		for _, d := range endToEndMetrics {
			if d.name == name {
				rep.Metrics[name] = metric{Value: value, Unit: d.unit}
				return
			}
		}
		panic("metric " + name + " is not declared in endToEndMetrics")
	}
	set("setup_s", median(setups))
	set("qps", float64(v.reads-v.failed)/w.elapsed.Seconds())
	set("query_p50_ms", percentile(reads, 0.50))
	p99s := w.slicePercentiles(0.99, isRead)
	set("query_p99_ms", median(p99s))
	set("cpu_ms_per_query", (w.cpu.user+w.cpu.sys).Seconds()*1e3/ops)
	set("alloc_kb_per_query", w.allocKB/ops)
	set("peak_rss_mb", float64(w.peakRSS)/(1<<20))

	info := func(name string, value float64, unit string) { rep.Info[name] = metric{Value: value, Unit: unit} }
	info("run_s", w.elapsed.Seconds(), "s")
	info("cpu_sys_ms_per_query", w.cpu.sys.Seconds()*1e3/ops, "ms")
	info("page_faults_per_query", float64(w.cpu.faults)/ops, "count")
	info("verify_s", v.seconds, "s")
	info("read_samples", float64(len(reads)), "count")
	info("p99_slices", float64(len(p99s)), "count")
	info("query_p99_whole_window_ms", percentile(reads, 0.99), "ms")
	info("dml_samples", float64(len(dml)), "count")
	info("dml_p50_ms", percentile(dml, 0.50), "ms")
	info("dml_p95_ms", percentile(dml, 0.95), "ms")
	info("vacuums", float64(len(vacuums)), "count")
	info("vacuum_max_ms", percentile(vacuums, 1), "ms")
	info("error_rate", float64(v.failed)/ops, "ratio")
	info("server_rejected", float64(w.rejected), "count")
	// Working set against the cache: every eviction is an entry that did not
	// fit, so resident plus evicted entries, at the resident mean size, is
	// what the distinct entries of this run would have needed.
	info("cache_budget_bytes", float64(budget), "B")
	info("cache_resident_bytes", float64(w.cache.MemBytes), "B")
	info("cache_evictions", float64(w.cache.Evictions), "count")
	if w.cache.Entries > 0 {
		info("cache_distinct_entry_bytes", float64(w.cache.Entries+int(w.cache.Evictions))*float64(w.cache.MemBytes)/float64(w.cache.Entries), "B")
	}
	info("distinct_reads", float64(v.distinct), "count")
	info("verified_reads", float64(v.checked), "count")
	return nil
}

// printReport writes every metric by name with its unit.
func printReport(rep *report, out io.Writer) {
	pass := "end-to-end (tracing off)"
	if rep.Trace {
		pass = "per-layer (traced pass)"
	}
	fmt.Fprintf(out, "== %s  seed %d  %s  %d session(s), %s loop  scale %s\n",
		rep.Workload, rep.Seed, pass, rep.Sessions, rep.Loop, rep.Scale)
	printMetrics := func(m map[string]metric) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "  %-34s %16.4f %s\n", name, m[name].Value, m[name].Unit)
		}
	}
	printMetrics(rep.Metrics)
	if len(rep.Info) > 0 {
		fmt.Fprintln(out, "  -- informational (no bound)")
		printMetrics(rep.Info)
	}
	if len(rep.Breakdown) > 0 {
		printBreakdown(rep, out)
	}
	fmt.Fprintf(out, "  operations %d, failed %d; calibration %.4f -> %.4f ns/op", rep.Attempted, rep.Failed, rep.CalBefore, rep.CalAfter)
	if rep.Noisy {
		fmt.Fprintf(out, "; NOISY: %v", rep.NoisyWhy)
	}
	if rep.FirstErr != "" {
		fmt.Fprintf(out, "; first failure: %s", rep.FirstErr)
	}
	fmt.Fprintln(out)
}
