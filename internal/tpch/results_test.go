package tpch

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden")

const resultsGolden = "testdata/results.golden"

// resultDigest hashes every cell of rel in row-major order: column names
// first, then ints as 8 bytes, floats by their bits and strings by their
// dictionary value, so any change to a value, its type or the row order
// changes the digest.
func resultDigest(rel *engine.Relation) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	text := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, name := range rel.ColumnNames() {
		text(name)
	}
	for row := 0; row < rel.NumRows(); row++ {
		for ci := 0; ci < rel.NumCols(); ci++ {
			c := rel.Col(ci)
			switch c.Type {
			case storage.Float64:
				word(math.Float64bits(c.Floats[row]))
			case storage.String:
				text(c.Dict.Value(c.Ints[row]))
			default:
				word(uint64(c.Ints[row]))
			}
		}
	}
	return h.Sum64()
}

// TestResultsGolden pins the result of all 22 queries, cell by cell, on
// uniform and skewed SF 0.01 data at the validation and one randomized
// parameter set, serial and at 4 workers. Any change to join, aggregation or
// scan output — a row, a value, a float's last bit, the row order — fails it.
// Run with -update to rewrite the golden file after an intended change.
func TestResultsGolden(t *testing.T) {
	var randomized Params
	randomized.Randomize(rand.New(rand.NewSource(7)))
	var b strings.Builder
	for _, skewed := range []bool{false, true} {
		data := "uniform"
		if skewed {
			data = "skewed"
		}
		cat := storage.NewCatalog()
		if err := Generate(Config{SF: 0.01, Skewed: skewed, Seed: 1}).Load(cat, 4); err != nil {
			t.Fatal(err)
		}
		for _, ps := range []struct {
			name string
			p    Params
		}{{"default", DefaultParams()}, {"random7", randomized}} {
			for _, q := range Queries(ps.p) {
				plan, err := q.Plan(cat)
				if err != nil {
					t.Fatalf("%s %s Q%d plan: %v", data, ps.name, q.ID, err)
				}
				for _, w := range []int{1, 4} {
					ec := &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), MaxWorkers: w}
					rel, err := plan.Execute(ec)
					if err != nil {
						t.Fatalf("%s %s Q%d W%d: %v", data, ps.name, q.ID, w, err)
					}
					fmt.Fprintf(&b, "%s %s Q%02d W%d rows=%d digest=%016x\n",
						data, ps.name, q.ID, w, rel.NumRows(), resultDigest(rel))
				}
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d result lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("result differs from %s:\nwant %s\ngot  %s", resultsGolden, wantLines[i], gotLines[i])
		}
	}
}

// BenchmarkTPCHQuery times each of the 22 queries, planned once, on skewed
// SF 0.05 data with a warm predicate cache: the per-query cost of the
// tpch_join workload without the wire and the SQL front end.
func BenchmarkTPCHQuery(b *testing.B) {
	cat := storage.NewCatalog()
	if err := Generate(Config{SF: 0.05, Skewed: true, Seed: 1}).Load(cat, 4); err != nil {
		b.Fatal(err)
	}
	cache := core.NewCache(core.DefaultConfig())
	for _, q := range Queries(DefaultParams()) {
		plan, err := q.Plan(cat)
		if err != nil {
			b.Fatalf("Q%d plan: %v", q.ID, err)
		}
		b.Run(fmt.Sprintf("Q%d", q.ID), func(b *testing.B) {
			run := func() {
				ec := &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), Stats: &storage.ScanStats{}, Cache: cache}
				if _, err := plan.Execute(ec); err != nil {
					b.Fatalf("Q%d: %v", q.ID, err)
				}
			}
			run() // fill the predicate cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
