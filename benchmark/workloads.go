package main

import (
	"fmt"
	"math/rand"
	"strings"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/storage"
	"github.com/predcache/predcache/internal/tpch"
	"github.com/predcache/predcache/internal/workload"
)

// sizes holds every tunable of the four workloads. There are two presets:
// "record" is the benchmark of record, sized so that one run (three set-ups,
// the timed window, the oracle) ends in well under 30 s on a 2-core host —
// the driver makes 92 runs inside 57 minutes — and "smoke" is the tier-1
// test's miniature. README.md explains each number.
type sizes struct {
	// EventsRows is the events table of point_wire and scan_repeat.
	EventsRows int `json:"events_rows"`
	// PointLiterals is the number of literal values per point_wire template.
	PointLiterals int `json:"point_literals"`
	// ScanUniverse is the number of repeating scan instances; ScanFreshPct
	// of all scans are new, never-repeating instances. ScanBudget is the
	// predicate-cache MemBudget in bytes, about a quarter of what the
	// universe's entries need.
	ScanUniverse int `json:"scan_universe"`
	ScanFreshPct int `json:"scan_fresh_pct"`
	ScanWarmup   int `json:"scan_warmup_queries"`
	ScanBudget   int `json:"scan_cache_budget_bytes"`
	// TPCHSF is the skewed TPC-H scale factor (4 slices).
	TPCHSF         float64 `json:"tpch_sf"`
	TPCHWarmRounds int     `json:"tpch_warmup_rounds"`
	// mixed_dml: a sliding window over the events table. Inserts (8 % of
	// operations) append DMLInsertRows, deletes (3 %) trim the oldest rows
	// back to DMLRows - DMLDeleteRows/2 — DMLDeleteRows on average, since
	// 8*insert == 3*delete — and updates (3 %) rewrite DMLUpdateRows.
	DMLRows        int `json:"dml_rows"`
	DMLUniverse    int `json:"dml_universe"`
	DMLInsertRows  int `json:"dml_insert_rows"`
	DMLDeleteRows  int `json:"dml_delete_rows"`
	DMLUpdateRows  int `json:"dml_update_rows"`
	DMLVacuumEvery int `json:"dml_vacuum_every_ops"`
	DMLWarmup      int `json:"dml_warmup_ops"`
	// Set-up runs SetupRepeats times, and on until it has taken
	// SetupMinSeconds in all (at most maxSetupRepeats times): a set-up of a
	// tenth of a second needs more repeats than three for a steady median.
	// setup_s is the median.
	SetupRepeats    int     `json:"setup_repeats"`
	SetupMinSeconds float64 `json:"setup_min_seconds"`
	// VerifyMax bounds the distinct reads checked against the twin DB;
	// beyond it a seeded sample is checked (every read is still checked
	// against the other executions of the same text).
	VerifyMax int `json:"verify_max_distinct"`
	// Traced pass: a fixed operation count per workload, so that every
	// program-side count repeats exactly for one seed.
	// On mixed_dml only every TraceDMLEvery-th read gets layer spans: the
	// pass must stay long enough to contain ten vacuum cycles.
	TracePointQueries int `json:"trace_point_queries"`
	TraceScanQueries  int `json:"trace_scan_queries"`
	TraceTPCHRounds   int `json:"trace_tpch_rounds"`
	TraceDMLOps       int `json:"trace_dml_ops"`
	TraceDMLEvery     int `json:"trace_dml_layer_every"`
}

const maxSetupRepeats = 15

func sizesFor(scale string) (sizes, error) {
	switch scale {
	case "record":
		return sizes{
			EventsRows: 2_000_000, PointLiterals: 64,
			ScanUniverse: 512, ScanFreshPct: 8, ScanWarmup: 300, ScanBudget: 92_000,
			TPCHSF: 0.05, TPCHWarmRounds: 5,
			DMLRows: 32_000, DMLUniverse: 256, DMLInsertRows: 60, DMLDeleteRows: 160, DMLUpdateRows: 60,
			DMLVacuumEvery: 3000, DMLWarmup: 500,
			SetupRepeats: 3, SetupMinSeconds: 1.5, VerifyMax: 192,
			TracePointQueries: 3000, TraceScanQueries: 300, TraceTPCHRounds: 6, TraceDMLOps: 33_500, TraceDMLEvery: 16,
		}, nil
	case "smoke":
		return sizes{
			EventsRows: 40_000, PointLiterals: 8,
			ScanUniverse: 32, ScanFreshPct: 8, ScanWarmup: 40, ScanBudget: 3_000,
			TPCHSF: 0.002, TPCHWarmRounds: 1,
			DMLRows: 4_000, DMLUniverse: 16, DMLInsertRows: 60, DMLDeleteRows: 160, DMLUpdateRows: 60,
			DMLVacuumEvery: 60, DMLWarmup: 40,
			SetupRepeats: 1, VerifyMax: 48,
			TracePointQueries: 100, TraceScanQueries: 60, TraceTPCHRounds: 1, TraceDMLOps: 700, TraceDMLEvery: 8,
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown scale %q (want record or smoke)", scale)
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
	opUpdate
	opVacuum
)

// op is one generated operation. For reads sql is the statement; for
// deletes and updates it is the WHERE condition; inserts carry a batch.
type op struct {
	kind  opKind
	sql   string
	batch *predcache.Batch
}

// stream produces a session's operations. It draws only from its own seeded
// source and never looks at results, so the same seed gives the same
// operations whatever the program under test does.
type stream interface {
	next() op
}

// workloadSpec describes one workload: how to build its database (or the
// accelerator-free twin of it), what each session sends, and how much of
// the stream is warm-up.
type workloadSpec struct {
	name string
	// sessions is the number of TCP client connections; 0 means the
	// workload runs on one goroutine in-process (the wire carries no DML).
	sessions int
	// procs is the GOMAXPROCS of the run; 0 leaves it at the number of
	// processors. point_wire runs on one: its statements are serial and take
	// tens of microseconds, and with an idle second processor the Go scheduler
	// hands every goroutine wake-up of the client–reader–executor relay to it,
	// so that 45 % of a statement's latency is waking a halted virtual CPU —
	// the hypervisor's time, not the program's (README, "Why one session").
	procs  int
	open   func(sz sizes, seed int64, twin bool) (*predcache.DB, error)
	stream func(sz sizes, seed int64, session int) stream
	warmup func(sz sizes) int // warm-up operations per session
	// trace is the traced pass's fixed operation count; every every-th
	// read of it gets layer spans.
	trace func(sz sizes) (ops, every int)
}

// twinOptions switch every accelerator off: the twin is the reference the
// oracle compares against.
func twinOptions() []predcache.Option {
	return []predcache.Option{
		predcache.WithoutPredicateCache(),
		predcache.WithoutPlanCache(),
		predcache.WithMaxWorkers(1),
		predcache.WithParallelScans(false),
	}
}

func openEvents(rows int, seed int64, twin bool, cache *core.Config) (*predcache.DB, error) {
	var opts []predcache.Option
	switch {
	case twin:
		opts = twinOptions()
	case cache != nil:
		opts = append(opts, predcache.WithCacheConfig(*cache))
	}
	return workload.SetupDB(rows, seed, opts...)
}

func specFor(name string) (workloadSpec, error) {
	switch name {
	case "point_wire":
		return workloadSpec{
			name: name, sessions: 1, procs: 1,
			open: func(sz sizes, seed int64, twin bool) (*predcache.DB, error) {
				return openEvents(sz.EventsRows, seed, twin, nil)
			},
			stream: func(sz sizes, seed int64, session int) stream { return newPointStream(sz, seed, session) },
			warmup: func(sz sizes) int { return 3 * sz.PointLiterals },
			trace:  func(sz sizes) (int, int) { return sz.TracePointQueries, 1 },
		}, nil
	case "scan_repeat":
		return workloadSpec{
			name: name, sessions: 1,
			open: func(sz sizes, seed int64, twin bool) (*predcache.DB, error) {
				cfg := core.DefaultConfig()
				cfg.MemBudget = sz.ScanBudget
				return openEvents(sz.EventsRows, seed, twin, &cfg)
			},
			stream: func(sz sizes, seed int64, session int) stream {
				return newScanStream(seed, session, sz.ScanUniverse, sz.ScanFreshPct, true)
			},
			warmup: func(sz sizes) int { return sz.ScanWarmup },
			trace:  func(sz sizes) (int, int) { return sz.TraceScanQueries, 1 },
		}, nil
	case "tpch_join":
		return workloadSpec{
			name: name, sessions: 1,
			open: func(sz sizes, seed int64, twin bool) (*predcache.DB, error) {
				var opts []predcache.Option
				if twin {
					opts = twinOptions()
				}
				db := predcache.Open(opts...)
				data := tpch.Generate(tpch.Config{SF: sz.TPCHSF, Skewed: true, Seed: seed})
				if err := data.Load(db.Catalog(), 4); err != nil {
					return nil, fmt.Errorf("load tpch: %w", err)
				}
				return db, nil
			},
			stream: func(sz sizes, seed int64, session int) stream { return newTPCHStream(seed, session) },
			warmup: func(sz sizes) int { return sz.TPCHWarmRounds * len(tpchSQL(tpch.DefaultParams())) },
			trace: func(sz sizes) (int, int) {
				return sz.TraceTPCHRounds * len(tpchSQL(tpch.DefaultParams())), 1
			},
		}, nil
	case "mixed_dml":
		return workloadSpec{
			name: name, sessions: 0,
			open: func(sz sizes, seed int64, twin bool) (*predcache.DB, error) {
				return openEvents(sz.DMLRows, seed, twin, nil)
			},
			stream: func(sz sizes, seed int64, session int) stream { return newDMLStream(sz, seed) },
			warmup: func(sz sizes) int { return sz.DMLWarmup },
			trace:  func(sz sizes) (int, int) { return sz.TraceDMLOps, sz.TraceDMLEvery },
		}, nil
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// streamSource derives a session's private random source from the run seed.
func streamSource(seed int64, session int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(session)*104729 + 17))
}

// --- point_wire ---

// pointStream sends three templates over ids: a one-row lookup, a 100-row
// range returning rows, and an aggregate over a 100-row range. Literals are
// Zipf-distributed over a small fixed set per template, so after warm-up
// every statement is a plan-cache hit and a predicate-cache hit.
type pointStream struct {
	r    *rand.Rand
	zipf *rand.Zipf
	lits [3][]int64
	n    int
}

func newPointStream(sz sizes, seed int64, session int) *pointStream {
	s := &pointStream{r: streamSource(seed, session)}
	s.zipf = rand.NewZipf(s.r, 1.2, 1, uint64(sz.PointLiterals-1))
	// The literal sets belong to the run, not the session: every session
	// shares one working set.
	lr := rand.New(rand.NewSource(seed*31 + 5))
	for t := range s.lits {
		s.lits[t] = make([]int64, sz.PointLiterals)
		for k := range s.lits[t] {
			s.lits[t][k] = lr.Int63n(int64(sz.EventsRows - 100))
		}
	}
	return s
}

func (s *pointStream) next() op {
	var t, k int
	if per := len(s.lits[0]); s.n < 3*per {
		// Warm-up prefix: touch every distinct statement once.
		t, k = s.n/per, s.n%per
	} else {
		t, k = s.r.Intn(3), int(s.zipf.Uint64())
	}
	s.n++
	v := s.lits[t][k]
	switch t {
	case 0:
		return op{sql: fmt.Sprintf("select id, region, day, qty, amount from events where id = %d", v)}
	case 1:
		return op{sql: fmt.Sprintf("select id, amount from events where id between %d and %d", v, v+99)}
	default:
		return op{sql: fmt.Sprintf("select count(*) as n, sum(amount) as total from events where id between %d and %d", v, v+99)}
	}
}

// --- scan_repeat ---

// scanSQL renders scan instance id in the paper's Workload-A shape: region
// equality, a day range and a quantity threshold (internal/workload's own
// scanSQL is unexported). Instances differ in region and first day only;
// every one spans ten days at qty >= 50 and so selects about 0.07 % of the
// rows. With equally expensive instances a run's latency reflects the
// program, not which instances its seed happened to make popular.
func scanSQL(seed int64, id int) string {
	const space = 20 * 350
	x := int((uint64(id+1)*2654435761 + uint64(seed)*40503) % space)
	region, lo := x%20, 9000+x/20
	return fmt.Sprintf(
		"select count(*) as n, sum(amount) as total from events where region = 'R%02d' and day between %d and %d and qty >= 50",
		region, lo, lo+9)
}

// scanStream repeats a fixed universe of scan instances and mixes in
// freshPct percent never-seen instances: a stationary version of Workload
// A's 92 % reuse phase. With zipf set, popularity is Zipf(1.1) — a few hot
// instances, so an LRU cache a quarter of the universe's size still hits
// most of the time. Without it, instance i of n is drawn as n*u1*u2 (the
// "Zipf-ish" draw of internal/workload.GenerateA), which spreads the traffic
// over many more instances.
type scanStream struct {
	seed     int64
	r        *rand.Rand
	zipf     *rand.Zipf
	universe int
	freshPct int
	fresh    int
}

func newScanStream(seed int64, session, universe, freshPct int, zipf bool) *scanStream {
	s := &scanStream{seed: seed, r: streamSource(seed, session), universe: universe, freshPct: freshPct}
	if zipf {
		s.zipf = rand.NewZipf(s.r, 1.1, 1, uint64(universe-1))
	}
	return s
}

func (s *scanStream) next() op {
	if s.r.Intn(100) < s.freshPct {
		s.fresh++
		return op{sql: scanSQL(s.seed, s.universe+s.fresh)}
	}
	if s.zipf != nil {
		return op{sql: scanSQL(s.seed, int(s.zipf.Uint64()))}
	}
	return op{sql: scanSQL(s.seed, int(float64(s.universe)*s.r.Float64()*s.r.Float64()))}
}

// --- tpch_join ---

// tpchSQL returns the SQL-expressible TPC-H queries (Q13 and Q22 exist only
// as plan builders) with whitespace collapsed to one wire line each.
func tpchSQL(p tpch.Params) []string {
	var out []string
	for _, q := range tpch.Queries(p) {
		if q.SQL == "" {
			continue
		}
		out = append(out, strings.Join(strings.Fields(q.SQL), " "))
	}
	return out
}

// tpchStream sends rounds of the TPC-H queries, alternating between the
// validation parameters (exact repeats) and fresh qgen-style parameters
// (the same templates with new literals).
type tpchStream struct {
	r      *rand.Rand
	round  []string
	i      int
	rounds int
}

func newTPCHStream(seed int64, session int) *tpchStream {
	return &tpchStream{r: streamSource(seed, session)}
}

func (s *tpchStream) next() op {
	if s.i == len(s.round) {
		p := tpch.DefaultParams()
		if s.rounds%2 == 1 {
			p.Randomize(s.r)
		}
		s.rounds++
		s.round, s.i = tpchSQL(p), 0
	}
	s.i++
	return op{sql: s.round[s.i-1]}
}

// --- mixed_dml ---

// dmlStream is a read-mostly sequence over a sliding window of ids: 8 %
// inserts append new ids, 3 % deletes drop the oldest ids, 3 % updates
// rewrite a narrow id range, a vacuum runs every vacuumEvery operations,
// and the rest are scan_repeat-style reads.
type dmlStream struct {
	sz     sizes
	seed   int64
	r      *rand.Rand
	reads  *scanStream
	nextID int64 // next id an insert uses
	oldest int64 // oldest id not yet deleted
	n      int
}

var regionNames = func() []string {
	out := make([]string, 20)
	for i := range out {
		out[i] = fmt.Sprintf("R%02d", i)
	}
	return out
}()

func newDMLStream(sz sizes, seed int64) *dmlStream {
	return &dmlStream{
		sz: sz, seed: seed, r: streamSource(seed, 0),
		reads:  newScanStream(seed, 1, sz.DMLUniverse, sz.ScanFreshPct, false),
		nextID: int64(sz.DMLRows),
	}
}

func (s *dmlStream) next() op {
	s.n++
	if s.n%s.sz.DMLVacuumEvery == 0 {
		return op{kind: opVacuum}
	}
	live := s.nextID - s.oldest
	switch x := s.r.Intn(100); {
	case x < 8:
		return op{kind: opInsert, batch: s.insertBatch()}
	case x < 11:
		// Trim the window back to just under its nominal size. Deleting a
		// fixed count instead would let the live row count random-walk by a
		// quarter of the table over a run, differently for every seed.
		if n := live - int64(s.sz.DMLRows-s.sz.DMLDeleteRows/2); n > 0 {
			lo := s.oldest
			s.oldest += n
			return op{kind: opDelete, sql: fmt.Sprintf("id between %d and %d", lo, s.oldest-1)}
		}
	case x < 14:
		lo := s.oldest + s.r.Int63n(live-int64(s.sz.DMLUpdateRows))
		return op{kind: opUpdate, sql: fmt.Sprintf("id between %d and %d", lo, lo+int64(s.sz.DMLUpdateRows)-1)}
	}
	return s.reads.next()
}

// insertBatch draws rows the way workload.SetupDB does, with the next ids.
func (s *dmlStream) insertBatch() *predcache.Batch {
	n := s.sz.DMLInsertRows
	b := &predcache.Batch{Cols: make([]storage.ColVec, 5), N: n}
	b.Cols[0].Ints = make([]int64, n)
	b.Cols[1].Strings = make([]string, n)
	b.Cols[2].Ints = make([]int64, n)
	b.Cols[3].Ints = make([]int64, n)
	b.Cols[4].Floats = make([]float64, n)
	for i := 0; i < n; i++ {
		b.Cols[0].Ints[i] = s.nextID
		s.nextID++
		b.Cols[1].Strings[i] = regionNames[s.r.Intn(20)]
		b.Cols[2].Ints[i] = int64(9000 + s.r.Intn(365))
		b.Cols[3].Ints[i] = int64(s.r.Intn(100))
		b.Cols[4].Floats[i] = float64(s.r.Intn(10000)) / 100
	}
	return b
}

// bumpQty is the update every opUpdate applies: qty = qty + 1.
func bumpQty(b *predcache.Batch) {
	for i := range b.Cols[3].Ints {
		b.Cols[3].Ints[i]++
	}
}
