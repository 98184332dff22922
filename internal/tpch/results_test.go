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
//
// Every case then runs again against one predicate cache per data set:
// cold, warm, warm after appends, deletes and updates of lineitem and
// orders (entries extend past their watermarks and skip deleted rows), and
// warm after a vacuum and another append (entries are invalidated). Each
// pass must equal the cache-off result of the same data.
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
		type resultCase struct {
			name   string
			plan   engine.Node
			w      int
			digest uint64
		}
		var cases []resultCase
		run := func(c *resultCase, cache *core.Cache) uint64 {
			ec := &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), MaxWorkers: c.w, Cache: cache}
			rel, err := c.plan.Execute(ec)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return resultDigest(rel)
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
					c := resultCase{name: fmt.Sprintf("%s %s Q%02d W%d", data, ps.name, q.ID, w), plan: plan, w: w}
					ec := &engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot(), MaxWorkers: w}
					rel, err := plan.Execute(ec)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					c.digest = resultDigest(rel)
					cases = append(cases, c)
					fmt.Fprintf(&b, "%s rows=%d digest=%016x\n", c.name, rel.NumRows(), c.digest)
				}
			}
		}

		cache := core.NewCache(core.DefaultConfig())
		for _, pass := range []string{"cold", "warm", "dml", "vacuum"} {
			switch pass {
			case "dml":
				changeRows(t, cat)
			case "vacuum":
				vacuumAndAppend(t, cat)
			}
			for i := range cases {
				c := &cases[i]
				if pass == "dml" || pass == "vacuum" {
					c.digest = run(c, nil)
				}
				if got := run(c, cache); got != c.digest {
					t.Errorf("%s, %s cache pass: digest %016x, cache off %016x", c.name, pass, got, c.digest)
				}
			}
		}
		st, semiJoin := cache.Stats(), 0
		for _, e := range cache.Entries() {
			if e.SemiJoin {
				semiJoin++
			}
		}
		if st.Hits == 0 || st.Extends == 0 || st.Invalidations == 0 || semiJoin == 0 {
			t.Fatalf("%s: cache passes ran %d hits, %d extends, %d invalidations, %d semi-join entries; want each > 0",
				data, st.Hits, st.Extends, st.Invalidations, semiJoin)
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

// dmlTables are the tables the cache passes of TestResultsGolden change.
var dmlTables = []string{"lineitem", "orders"}

// tableRows reads every row of a table with its rowid.
func tableRows(t *testing.T, cat *storage.Catalog, name string) *engine.Relation {
	rel, err := (&engine.Scan{Table: name, RowIDs: true}).Execute(&engine.ExecCtx{Catalog: cat, Snapshot: cat.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// rowsBatch copies the rows of rel whose index i has i%every == rem into a
// batch of tbl's schema, doubling its first float column when edit is set,
// and returns their rowids by slice.
func rowsBatch(tbl *storage.Table, rel *engine.Relation, every, rem int, edit bool) (*storage.Batch, [][]int) {
	b := storage.NewBatch(tbl.Schema())
	rowids := make([][]int, tbl.NumSlices())
	edited := -1
	for ci, def := range tbl.Schema() {
		if edit && edited < 0 && def.Type == storage.Float64 {
			edited = ci
		}
	}
	for i := rem; i < rel.NumRows(); i += every {
		id := rel.ColByName("rowid").Ints[i]
		rowids[id>>32] = append(rowids[id>>32], int(id&0xffffffff))
		for ci, def := range tbl.Schema() {
			c := rel.ColByName(def.Name)
			switch {
			case ci == edited:
				b.Cols[ci].Floats = append(b.Cols[ci].Floats, 2*c.Floats[i])
			case def.Type == storage.Float64:
				b.Cols[ci].Floats = append(b.Cols[ci].Floats, c.Floats[i])
			case def.Type == storage.String:
				b.Cols[ci].Strings = append(b.Cols[ci].Strings, c.Dict.Value(c.Ints[i]))
			default:
				b.Cols[ci].Ints = append(b.Cols[ci].Ints, c.Ints[i])
			}
		}
		b.N++
	}
	return b, rowids
}

// changeRows appends copies of some rows of each DML table, deletes others
// and updates a third set out of place, through the storage API.
func changeRows(t *testing.T, cat *storage.Catalog) {
	for _, name := range dmlTables {
		tbl, _ := cat.Table(name)
		rel := tableRows(t, cat, name)
		extra, _ := rowsBatch(tbl, rel, 53, 0, false)
		if err := cat.Commit(func(xid uint64) error { return tbl.Append(extra, xid) }); err != nil {
			t.Fatal(err)
		}
		_, deleted := rowsBatch(tbl, rel, 41, 1, false)
		_ = cat.Commit(func(xid uint64) error { tbl.DeleteRows(deleted, xid); return nil }) // apply cannot fail
		updated, rows := rowsBatch(tbl, rel, 43, 2, true)
		if err := cat.Commit(func(xid uint64) error { return tbl.UpdateRows(rows, updated, xid) }); err != nil {
			t.Fatalf("update %s: %v", name, err)
		}
	}
}

// vacuumAndAppend vacuums each DML table, renumbering its rows, then
// appends copies of some rows.
func vacuumAndAppend(t *testing.T, cat *storage.Catalog) {
	for _, name := range dmlTables {
		tbl, _ := cat.Table(name)
		tbl.Vacuum(cat.Snapshot())
		extra, _ := rowsBatch(tbl, tableRows(t, cat, name), 47, 3, false)
		if err := cat.Commit(func(xid uint64) error { return tbl.Append(extra, xid) }); err != nil {
			t.Fatal(err)
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
