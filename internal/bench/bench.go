// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§2 and §5), each printing the same rows or
// series the paper reports. DESIGN.md §3 maps experiment ids to modules.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/storage"
	"github.com/predcache/predcache/internal/tpch"
)

// Config scales the experiments. Fast settings keep unit tests quick; the
// pcbench tool defaults to larger scales.
type Config struct {
	TpchSF    float64
	SSBSF     float64
	TpcdsSF   float64
	Slices    int
	FleetSize int
	// Workload A replay size.
	WorkloadAQueries int
	WorkloadAWarmup  int
	WorkloadARows    int
	// Timing repetitions per measured query.
	Reps int
	Seed int64
	// MaxWorkers caps the workers of every operator of a query; zero means
	// GOMAXPROCS (so `go test -cpu 1,4` scales the DOP naturally).
	MaxWorkers int
}

// DefaultConfig is the pcbench scale.
func DefaultConfig() Config {
	return Config{
		TpchSF: 0.02, SSBSF: 0.01, TpcdsSF: 0.01,
		Slices: 4, FleetSize: 200,
		WorkloadAQueries: 44000, WorkloadAWarmup: 15000, WorkloadARows: 100000,
		Reps: 3, Seed: 1,
	}
}

// FastConfig is the test scale.
func FastConfig() Config {
	return Config{
		TpchSF: 0.003, SSBSF: 0.003, TpcdsSF: 0.003,
		Slices: 2, FleetSize: 40,
		WorkloadAQueries: 2000, WorkloadAWarmup: 800, WorkloadARows: 20000,
		Reps: 1, Seed: 1,
	}
}

// Runner executes experiments.
type Runner struct {
	Cfg Config
	Out io.Writer

	// cached datasets (generated lazily, reused across experiments)
	tpchUniform *tpch.Data
	tpchSkewed  *tpch.Data
}

// NewRunner creates a runner writing to out.
func NewRunner(cfg Config, out io.Writer) *Runner {
	return &Runner{Cfg: cfg, Out: out}
}

func (r *Runner) printf(format string, args ...interface{}) {
	fmt.Fprintf(r.Out, format, args...)
}

// Experiments lists the runnable experiment ids in paper order.
func Experiments() []string {
	return []string{
		"table1", "fig1", "fig2", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"table3", "fig13", "fig14", "fig15", "table4", "fig16", "fig17", "fig18",
	}
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) error {
	switch id {
	case "table1":
		return r.Table1()
	case "fig1":
		return r.Fig1()
	case "fig2":
		return r.Fig2()
	case "table2":
		return r.Table2()
	case "fig3":
		return r.Fig3()
	case "fig4":
		return r.Fig4()
	case "fig5":
		return r.Fig5()
	case "fig6":
		return r.Fig6()
	case "fig7":
		return r.Fig7()
	case "table3":
		return r.Table3()
	case "fig13":
		return r.Fig13()
	case "fig14":
		return r.Fig14()
	case "fig15":
		return r.Fig15()
	case "table4":
		return r.Table4()
	case "fig16":
		return r.Fig16()
	case "fig17":
		return r.Fig17()
	case "fig18":
		return r.Fig18()
	}
	return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, Experiments())
}

// All runs every experiment.
func (r *Runner) All() error {
	for _, id := range Experiments() {
		if err := r.Run(id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// --- shared helpers ---

// tpchData lazily generates and caches TPC-H data.
func (r *Runner) tpchData(skewed bool) *tpch.Data {
	if skewed {
		if r.tpchSkewed == nil {
			r.tpchSkewed = tpch.Generate(tpch.Config{SF: r.Cfg.TpchSF, Skewed: true, Seed: r.Cfg.Seed})
		}
		return r.tpchSkewed
	}
	if r.tpchUniform == nil {
		r.tpchUniform = tpch.Generate(tpch.Config{SF: r.Cfg.TpchSF, Skewed: false, Seed: r.Cfg.Seed})
	}
	return r.tpchUniform
}

// loadTpch loads (cached) TPC-H data into a fresh catalog.
func (r *Runner) loadTpch(skewed bool) (*storage.Catalog, error) {
	cat := storage.NewCatalog()
	if err := r.tpchData(skewed).Load(cat, r.Cfg.Slices); err != nil {
		return nil, err
	}
	return cat, nil
}

// measured holds one measured query execution.
type measured struct {
	runtime time.Duration
	stats   storage.ScanStatsSnapshot
}

// runPlan executes a plan, returning the fastest of reps runs.
func runPlan(plan engine.Node, ec func() *engine.ExecCtx, reps int) (measured, error) {
	if reps < 1 {
		reps = 1
	}
	var best measured
	for i := 0; i < reps; i++ {
		ctx := ec()
		start := time.Now()
		_, err := plan.Execute(ctx)
		elapsed := time.Since(start)
		if err != nil {
			return measured{}, err
		}
		if i == 0 || elapsed < best.runtime {
			best = measured{runtime: elapsed, stats: ctx.Stats.Snapshot()}
		}
	}
	return best, nil
}

// execOnce executes a plan once and returns its stats.
func execOnce(plan engine.Node, ctx *engine.ExecCtx) (storage.ScanStatsSnapshot, error) {
	if ctx.Stats == nil {
		ctx.Stats = &storage.ScanStats{}
	}
	if _, err := plan.Execute(ctx); err != nil {
		return storage.ScanStatsSnapshot{}, err
	}
	return ctx.Stats.Snapshot(), nil
}

// geoMean computes the geometric mean of positive values.
func geoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	logSum := 0.0
	n := 0
	for _, v := range vals {
		if v > 0 {
			logSum += ln(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return exp(logSum / float64(n))
}

func ln(x float64) float64 { return math.Log(x) }

func exp(x float64) float64 { return math.Exp(x) }

// formatBytes renders a byte count human-readably.
func formatBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// formatDur renders a duration with ms precision.
func formatDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// histogram renders an ASCII bar for a 0-1 value.
func bar(v float64, width int) string {
	n := int(v * float64(width))
	if n > width {
		n = width
	}
	out := make([]byte, width)
	for i := range out {
		if i < n {
			out[i] = '#'
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}

// sortedKeysF returns map keys sorted.
func sortedKeysF(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pcCache builds a predicate cache of the given kind with paper defaults.
func pcCache(kind core.EntryKind) *core.Cache {
	return core.NewCache(core.Config{Kind: kind, MaxRanges: 16384, RowsPerBlock: 1000})
}
