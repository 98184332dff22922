package automv

import (
	"math"
	"math/rand"
	"testing"

	"github.com/predcache/predcache/internal/sql"
	"github.com/predcache/predcache/internal/storage"
)

type fix struct {
	cat   *storage.Catalog
	tbl   *storage.Table
	qty   []int64
	price []float64
	mode  []string
	day   []int64
}

func setup(t *testing.T, rows int, seed int64) *fix {
	t.Helper()
	f := &fix{cat: storage.NewCatalog()}
	schema := storage.Schema{
		{Name: "qty", Type: storage.Int64},
		{Name: "price", Type: storage.Float64},
		{Name: "mode", Type: storage.String},
		{Name: "day", Type: storage.Date},
	}
	tbl, err := f.cat.CreateTable("sales", schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.tbl = tbl
	f.append(t, rows, seed)
	return f
}

func (f *fix) append(t *testing.T, rows int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	modes := []string{"AIR", "MAIL", "SHIP"}
	b := storage.NewBatch(f.tbl.Schema())
	for i := 0; i < rows; i++ {
		q := int64(r.Intn(50) + 1)
		p := float64(r.Intn(10000)) / 100
		m := modes[r.Intn(3)]
		d := int64(9000 + r.Intn(100))
		f.qty = append(f.qty, q)
		f.price = append(f.price, p)
		f.mode = append(f.mode, m)
		f.day = append(f.day, d)
		b.Cols[0].Ints = append(b.Cols[0].Ints, q)
		b.Cols[1].Floats = append(b.Cols[1].Floats, p)
		b.Cols[2].Strings = append(b.Cols[2].Strings, m)
		b.Cols[3].Ints = append(b.Cols[3].Ints, d)
	}
	b.N = rows
	if err := f.cat.Commit(func(xid uint64) error { return f.tbl.Append(b, xid) }); err != nil {
		t.Fatal(err)
	}
}

func mustParse(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func approx(a, b float64) bool {
	return math.Abs(a-b) < 1e-6*(1+math.Abs(a)+math.Abs(b))
}

const q6like = "select sum(price) as rev, count(*) as n from sales where mode = '%s' and qty >= %d group by day"

func TestEligibility(t *testing.T) {
	f := setup(t, 100, 1)
	good := []string{
		"select mode, sum(price) from sales group by mode",
		"select sum(price) from sales where qty > 5",
		"select day, avg(price) as ap from sales where mode = 'AIR' group by day",
		"select count(*) from sales",
	}
	for _, q := range good {
		if ok, _ := Eligible(mustParse(t, q), f.cat); !ok {
			t.Errorf("eligible query rejected: %s", q)
		}
	}
	bad := []string{
		"select qty from sales where qty > 5",                         // no aggregate
		"select mode, sum(price) from sales group by mode limit 5",    // limit
		"select mode, sum(price) from sales group by mode order by 1", // order
		"select count(distinct mode) from sales",                      // distinct
		"select sum(price) from sales having sum(price) > 5",          // having
	}
	for _, q := range bad {
		if ok, _ := Eligible(mustParse(t, q), f.cat); ok {
			t.Errorf("ineligible query accepted: %s", q)
		}
	}
}

func TestTemplateGeneralization(t *testing.T) {
	f := setup(t, 100, 2)
	// Same template, different literals -> same key (predicate elevation).
	_, t1 := Eligible(mustParse(t, "select sum(price) from sales where mode = 'AIR' and qty >= 10"), f.cat)
	_, t2 := Eligible(mustParse(t, "select sum(price) from sales where mode = 'SHIP' and qty >= 40"), f.cat)
	if t1.key != t2.key {
		t.Fatalf("templates differ:\n%s\n%s", t1.key, t2.key)
	}
	// Different aggregate -> different key.
	_, t3 := Eligible(mustParse(t, "select max(price) from sales where mode = 'AIR' and qty >= 10"), f.cat)
	if t1.key == t3.key {
		t.Fatal("different aggs share a template")
	}
}

func TestObserveCreatesAfterThreshold(t *testing.T) {
	f := setup(t, 2000, 3)
	m := NewManager(f.cat, 2)
	stmt := mustParse(t, "select sum(price) as rev from sales where mode = 'AIR'")
	v, err := m.Observe(stmt)
	if err != nil || v != nil {
		t.Fatalf("view created on first observation: %v %v", v, err)
	}
	v, err = m.Observe(stmt)
	if err != nil || v == nil {
		t.Fatalf("view not created on second observation: %v", err)
	}
	if m.Stats().ViewsCreated != 1 {
		t.Fatal("creation not counted")
	}
	if v.MemBytes() <= 0 {
		t.Fatal("view mem")
	}
	if got, ok := m.ViewFor(stmt); !ok || got != v {
		t.Fatal("ViewFor lookup failed")
	}
}

func TestAnswerMatchesDirectExecution(t *testing.T) {
	f := setup(t, 5000, 4)
	m := NewManager(f.cat, 1)
	stmt := mustParse(t, "select sum(price) as rev, count(*) as n from sales where mode = 'AIR' and qty >= 30")
	if _, err := m.Observe(stmt); err != nil {
		t.Fatal(err)
	}
	rel, ok, err := m.TryAnswer(stmt)
	if err != nil || !ok {
		t.Fatalf("no answer: %v", err)
	}
	var wantRev float64
	var wantN int64
	for i := range f.qty {
		if f.mode[i] == "AIR" && f.qty[i] >= 30 {
			wantRev += f.price[i]
			wantN++
		}
	}
	if got := rel.ColByName("rev").Floats[0]; !approx(got, wantRev) {
		t.Fatalf("rev %f want %f", got, wantRev)
	}
	if got := rel.ColByName("n").Ints[0]; got != wantN {
		t.Fatalf("n %d want %d", got, wantN)
	}

	// Same template with different literals answered by the same view.
	stmt2 := mustParse(t, "select sum(price) as rev, count(*) as n from sales where mode = 'SHIP' and qty >= 10")
	rel2, ok, err := m.TryAnswer(stmt2)
	if err != nil || !ok {
		t.Fatalf("generalized answer failed: %v", err)
	}
	wantRev, wantN = 0, 0
	for i := range f.qty {
		if f.mode[i] == "SHIP" && f.qty[i] >= 10 {
			wantRev += f.price[i]
			wantN++
		}
	}
	if got := rel2.ColByName("rev").Floats[0]; !approx(got, wantRev) {
		t.Fatalf("rev2 %f want %f", got, wantRev)
	}
	if got := rel2.ColByName("n").Ints[0]; got != wantN {
		t.Fatalf("n2 %d want %d", got, wantN)
	}
	if m.Stats().Hits != 2 {
		t.Fatalf("hits %d", m.Stats().Hits)
	}
}

func TestAnswerWithGroupByAndAvg(t *testing.T) {
	f := setup(t, 4000, 5)
	m := NewManager(f.cat, 1)
	stmt := mustParse(t, "select mode, avg(price) as ap, count(*) as n from sales where qty >= 25 group by mode")
	if _, err := m.Observe(stmt); err != nil {
		t.Fatal(err)
	}
	rel, ok, err := m.TryAnswer(stmt)
	if err != nil || !ok {
		t.Fatalf("no answer: %v", err)
	}
	type ag struct {
		sum float64
		n   int64
	}
	ref := map[string]*ag{}
	for i := range f.qty {
		if f.qty[i] >= 25 {
			a := ref[f.mode[i]]
			if a == nil {
				a = &ag{}
				ref[f.mode[i]] = a
			}
			a.sum += f.price[i]
			a.n++
		}
	}
	if rel.NumRows() != len(ref) {
		t.Fatalf("groups %d want %d", rel.NumRows(), len(ref))
	}
	modeCol := rel.ColByName("mode")
	apCol := rel.ColByName("ap")
	nCol := rel.ColByName("n")
	for row := 0; row < rel.NumRows(); row++ {
		mname := modeCol.Dict.Value(modeCol.Ints[row])
		a := ref[mname]
		if !approx(apCol.Floats[row], a.sum/float64(a.n)) || nCol.Ints[row] != a.n {
			t.Fatalf("group %s mismatch", mname)
		}
	}
}

func TestIncrementalRefreshOnAppend(t *testing.T) {
	f := setup(t, 3000, 6)
	m := NewManager(f.cat, 1)
	stmt := mustParse(t, "select sum(price) as rev from sales where mode = 'MAIL'")
	if _, err := m.Observe(stmt); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.TryAnswer(stmt); !ok {
		t.Fatal("initial answer failed")
	}
	f.append(t, 1000, 7)
	rel, ok, err := m.TryAnswer(stmt)
	if err != nil || !ok {
		t.Fatalf("post-append answer failed: %v", err)
	}
	var want float64
	for i := range f.qty {
		if f.mode[i] == "MAIL" {
			want += f.price[i]
		}
	}
	if got := rel.ColByName("rev").Floats[0]; !approx(got, want) {
		t.Fatalf("rev %f want %f", got, want)
	}
	st := m.Stats()
	if st.IncrementalRefreshes == 0 {
		t.Fatal("no incremental refresh")
	}
	if st.FullRebuilds != 0 {
		t.Fatal("append forced a full rebuild")
	}
	// Incremental refresh must have scanned only about the appended rows
	// (initial build scanned 3000; the refresh adds ~1000).
	if st.RefreshRowsScanned > 3000+1100 {
		t.Fatalf("refresh scanned too much: %d", st.RefreshRowsScanned)
	}
}

func TestFullRebuildOnDelete(t *testing.T) {
	f := setup(t, 3000, 8)
	m := NewManager(f.cat, 1)
	stmt := mustParse(t, "select count(*) as n from sales where mode = 'AIR'")
	if _, err := m.Observe(stmt); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.TryAnswer(stmt); !ok {
		t.Fatal("initial answer failed")
	}
	// Delete some physical rows of slice 0 and fix the reference.
	unlock := f.tbl.RLockScan()
	s := f.tbl.Slice(0)
	scratch := make([]int64, storage.BlockSize)
	modeCol := f.tbl.ColumnIndex("mode")
	s.Column(modeCol).ReadIntBlock(0, scratch)
	unlock()
	_ = f.cat.Commit(func(xid uint64) error { f.tbl.DeleteRows([][]int{{0, 1, 2, 3, 4}}, xid); return nil }) // apply cannot fail
	deletedAir := int64(0)
	dict := f.tbl.Dict(modeCol)
	for i := 0; i < 5; i++ {
		if dict.Value(scratch[i]) == "AIR" {
			deletedAir++
		}
	}

	rel, ok, err := m.TryAnswer(stmt)
	if err != nil || !ok {
		t.Fatalf("post-delete answer failed: %v", err)
	}
	var want int64
	for i := range f.mode {
		if f.mode[i] == "AIR" {
			want++
		}
	}
	want -= deletedAir
	if got := rel.ColByName("n").Ints[0]; got != want {
		t.Fatalf("n %d want %d", got, want)
	}
	if m.Stats().FullRebuilds == 0 {
		t.Fatal("delete did not force a rebuild")
	}
}

func TestMissWithoutView(t *testing.T) {
	f := setup(t, 100, 9)
	m := NewManager(f.cat, 5)
	stmt := mustParse(t, "select sum(price) from sales")
	if _, ok, _ := m.TryAnswer(stmt); ok {
		t.Fatal("answered without a view")
	}
	if m.Stats().Misses != 1 {
		t.Fatal("miss not counted")
	}
	// Ineligible statements do not count as misses.
	if _, ok, _ := m.TryAnswer(mustParse(t, "select qty from sales where qty > 5")); ok {
		t.Fatal("ineligible answered")
	}
}
