package sql_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/sql"
	"github.com/predcache/predcache/internal/storage"
)

type fixture struct {
	db *predcache.DB
	// raw reference data
	oID, oCust, oDate []int64
	oTotal            []float64
	oStatus           []string
	lOrder, lQty      []int64
	lShip             []int64
	lPrice, lDisc     []float64
	lMode             []string
}

func newFixture(t testing.TB, orders, lines int, seed int64) *fixture {
	t.Helper()
	f := &fixture{db: predcache.Open(predcache.WithSlices(2))}
	if err := f.db.CreateTable("orders", predcache.Schema{
		{Name: "o_id", Type: predcache.Int64},
		{Name: "o_cust", Type: predcache.Int64},
		{Name: "o_date", Type: predcache.Date},
		{Name: "o_total", Type: predcache.Float64},
		{Name: "o_status", Type: predcache.String},
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.db.CreateTable("lineitem", predcache.Schema{
		{Name: "l_order", Type: predcache.Int64},
		{Name: "l_qty", Type: predcache.Int64},
		{Name: "l_price", Type: predcache.Float64},
		{Name: "l_disc", Type: predcache.Float64},
		{Name: "l_mode", Type: predcache.String},
		{Name: "l_ship", Type: predcache.Date},
	}); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	statuses := []string{"OPEN", "DONE", "FAIL"}
	modes := []string{"AIR", "MAIL", "SHIP"}
	ob := predcache.NewBatch(predcache.Schema{
		{Name: "o_id", Type: predcache.Int64}, {Name: "o_cust", Type: predcache.Int64},
		{Name: "o_date", Type: predcache.Date}, {Name: "o_total", Type: predcache.Float64},
		{Name: "o_status", Type: predcache.String},
	})
	base, _ := storage.ParseDate("1995-01-01")
	for i := 0; i < orders; i++ {
		f.oID = append(f.oID, int64(i))
		f.oCust = append(f.oCust, int64(r.Intn(100)))
		f.oDate = append(f.oDate, base+int64(r.Intn(365)))
		f.oTotal = append(f.oTotal, float64(r.Intn(100000))/100)
		f.oStatus = append(f.oStatus, statuses[r.Intn(3)])
	}
	ob.Cols[0].Ints = f.oID
	ob.Cols[1].Ints = f.oCust
	ob.Cols[2].Ints = f.oDate
	ob.Cols[3].Floats = f.oTotal
	ob.Cols[4].Strings = f.oStatus
	ob.N = orders
	if err := f.db.Insert("orders", ob); err != nil {
		t.Fatal(err)
	}
	lb := predcache.NewBatch(predcache.Schema{
		{Name: "l_order", Type: predcache.Int64}, {Name: "l_qty", Type: predcache.Int64},
		{Name: "l_price", Type: predcache.Float64}, {Name: "l_disc", Type: predcache.Float64},
		{Name: "l_mode", Type: predcache.String}, {Name: "l_ship", Type: predcache.Date},
	})
	for i := 0; i < lines; i++ {
		f.lOrder = append(f.lOrder, int64(r.Intn(orders)))
		f.lQty = append(f.lQty, int64(r.Intn(50)+1))
		f.lPrice = append(f.lPrice, float64(r.Intn(10000))/100)
		f.lDisc = append(f.lDisc, float64(r.Intn(10))/100)
		f.lMode = append(f.lMode, modes[r.Intn(3)])
		f.lShip = append(f.lShip, base+int64(r.Intn(365)))
	}
	lb.Cols[0].Ints = f.lOrder
	lb.Cols[1].Ints = f.lQty
	lb.Cols[2].Floats = f.lPrice
	lb.Cols[3].Floats = f.lDisc
	lb.Cols[4].Strings = f.lMode
	lb.Cols[5].Ints = f.lShip
	lb.N = lines
	if err := f.db.Insert("lineitem", lb); err != nil {
		t.Fatal(err)
	}
	return f
}

func approx(a, b float64) bool {
	return math.Abs(a-b) < 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func TestSimpleSelect(t *testing.T) {
	f := newFixture(t, 500, 3000, 1)
	res, err := f.db.Query("select l_order, l_qty from lineitem where l_qty >= 45 and l_mode = 'AIR' order by l_order, l_qty desc limit 20")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := range f.lQty {
		if f.lQty[i] >= 45 && f.lMode[i] == "AIR" {
			count++
		}
	}
	wantRows := count
	if wantRows > 20 {
		wantRows = 20
	}
	if res.NumRows() != wantRows {
		t.Fatalf("rows %d want %d", res.NumRows(), wantRows)
	}
	ord := res.ColByName("l_order")
	for i := 1; i < res.NumRows(); i++ {
		if ord.Ints[i] < ord.Ints[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestCountStar(t *testing.T) {
	f := newFixture(t, 300, 2000, 2)
	res, err := f.db.Query("select count(*) from lineitem where l_disc = 0.05")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := range f.lDisc {
		if f.lDisc[i] == 0.05 {
			want++
		}
	}
	if got := res.Col(0).Ints[0]; got != want {
		t.Fatalf("count %d want %d", got, want)
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	f := newFixture(t, 300, 5000, 3)
	res, err := f.db.Query(`
		select l_mode, sum(l_qty) as total_qty, count(*) as cnt, avg(l_price) as ap
		from lineitem
		where l_qty > 5
		group by l_mode
		having count(*) > 10
		order by total_qty desc`)
	if err != nil {
		t.Fatal(err)
	}
	type agg struct {
		qty float64
		cnt int64
		sum float64
	}
	ref := map[string]*agg{}
	for i := range f.lQty {
		if f.lQty[i] > 5 {
			a := ref[f.lMode[i]]
			if a == nil {
				a = &agg{}
				ref[f.lMode[i]] = a
			}
			a.qty += float64(f.lQty[i])
			a.cnt++
			a.sum += f.lPrice[i]
		}
	}
	kept := 0
	for _, a := range ref {
		if a.cnt > 10 {
			kept++
		}
	}
	if res.NumRows() != kept {
		t.Fatalf("groups %d want %d", res.NumRows(), kept)
	}
	mode := res.ColByName("l_mode")
	tq := res.ColByName("total_qty")
	cnt := res.ColByName("cnt")
	ap := res.ColByName("ap")
	prev := math.Inf(1)
	for row := 0; row < res.NumRows(); row++ {
		m := mode.Dict.Value(mode.Ints[row])
		a := ref[m]
		if !approx(tq.Floats[row], a.qty) || cnt.Ints[row] != a.cnt || !approx(ap.Floats[row], a.sum/float64(a.cnt)) {
			t.Fatalf("group %s mismatch", m)
		}
		if tq.Floats[row] > prev {
			t.Fatal("not sorted by total_qty desc")
		}
		prev = tq.Floats[row]
	}
}

func TestImplicitJoin(t *testing.T) {
	f := newFixture(t, 400, 4000, 4)
	res, err := f.db.Query(`
		select count(*) as n, sum(l_price * (1 - l_disc)) as revenue
		from lineitem, orders
		where o_id = l_order
		  and o_status = 'OPEN'
		  and l_qty >= 30`)
	if err != nil {
		t.Fatal(err)
	}
	open := map[int64]bool{}
	for i := range f.oID {
		if f.oStatus[i] == "OPEN" {
			open[f.oID[i]] = true
		}
	}
	var wantN int64
	var wantRev float64
	for i := range f.lQty {
		if f.lQty[i] >= 30 && open[f.lOrder[i]] {
			wantN++
			wantRev += f.lPrice[i] * (1 - f.lDisc[i])
		}
	}
	if got := res.ColByName("n").Ints[0]; got != wantN {
		t.Fatalf("count %d want %d", got, wantN)
	}
	if got := res.ColByName("revenue").Floats[0]; !approx(got, wantRev) {
		t.Fatalf("revenue %f want %f", got, wantRev)
	}
}

func TestAggExpressionRatio(t *testing.T) {
	f := newFixture(t, 200, 3000, 5)
	res, err := f.db.Query(`
		select 100 * sum(case when l_mode = 'AIR' then l_price else 0 end) / sum(l_price) as promo
		from lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := range f.lPrice {
		if f.lMode[i] == "AIR" {
			num += f.lPrice[i]
		}
		den += f.lPrice[i]
	}
	if got := res.Col(0).Floats[0]; !approx(got, 100*num/den) {
		t.Fatalf("promo %f want %f", got, 100*num/den)
	}
}

func TestDateLiteralsAndIntervals(t *testing.T) {
	f := newFixture(t, 200, 3000, 6)
	res, err := f.db.Query(`
		select count(*) from lineitem
		where l_ship >= date '1995-03-01'
		  and l_ship < date '1995-03-01' + interval '1' month`)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := storage.ParseDate("1995-03-01")
	hi, _ := storage.ParseDate("1995-04-01")
	var want int64
	for _, d := range f.lShip {
		if d >= lo && d < hi {
			want++
		}
	}
	if got := res.Col(0).Ints[0]; got != want {
		t.Fatalf("count %d want %d", got, want)
	}
}

func TestBetweenInLike(t *testing.T) {
	f := newFixture(t, 200, 3000, 7)
	res, err := f.db.Query(`
		select count(*) from lineitem
		where l_qty between 10 and 20
		  and l_mode in ('AIR', 'MAIL')
		  and l_mode like '%AI%'`)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := range f.lQty {
		q := f.lQty[i]
		m := f.lMode[i]
		if q >= 10 && q <= 20 && (m == "AIR" || m == "MAIL") && strings.Contains(m, "AI") {
			want++
		}
	}
	if got := res.Col(0).Ints[0]; got != want {
		t.Fatalf("count %d want %d", got, want)
	}
}

func TestExtractYearGrouping(t *testing.T) {
	f := newFixture(t, 200, 2000, 8)
	res, err := f.db.Query(`
		select extract(year from o_date) as yr, count(*) as n
		from orders group by o_date order by yr limit 5`)
	// group by o_date then extract year would give many groups; instead we
	// check grouping by the extracted year directly is rejected gracefully
	// and use a simpler validation below.
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("no rows")
	}
	yr := res.ColByName("yr")
	if yr.Ints[0] != 1995 {
		t.Fatalf("year %d", yr.Ints[0])
	}
}

func TestCountDistinct(t *testing.T) {
	f := newFixture(t, 300, 2500, 9)
	res, err := f.db.Query("select count(distinct l_order) from lineitem where l_qty > 25")
	if err != nil {
		t.Fatal(err)
	}
	set := map[int64]bool{}
	for i := range f.lQty {
		if f.lQty[i] > 25 {
			set[f.lOrder[i]] = true
		}
	}
	if got := res.Col(0).Ints[0]; got != int64(len(set)) {
		t.Fatalf("distinct %d want %d", got, len(set))
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	f := newFixture(t, 100, 500, 10)
	_ = f
	res, err := f.db.Query(`
		select count(*) from orders as a, orders as b
		where a.o_id = b.o_id and a.o_status = 'OPEN'`)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := range f.oID {
		if f.oStatus[i] == "OPEN" {
			want++
		}
	}
	if got := res.Col(0).Ints[0]; got != want {
		t.Fatalf("self join count %d want %d", got, want)
	}
}

func TestMinMaxOnDates(t *testing.T) {
	f := newFixture(t, 300, 100, 11)
	res, err := f.db.Query("select min(o_date) as lo, max(o_date) as hi from orders")
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi int64 = 1 << 62, -1
	for _, d := range f.oDate {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if res.ColByName("lo").Ints[0] != lo || res.ColByName("hi").Ints[0] != hi {
		t.Fatal("min/max date wrong")
	}
	// Dates render as dates.
	if res.StringValue(0, 0) != storage.FormatDate(lo) {
		t.Fatalf("date formatting: %s", res.StringValue(0, 0))
	}
}

func TestOrderByPositionAndAggregate(t *testing.T) {
	f := newFixture(t, 100, 2000, 12)
	_ = f
	res, err := f.db.Query("select l_mode, count(*) from lineitem group by l_mode order by 2 desc")
	if err != nil {
		t.Fatal(err)
	}
	c := res.Col(1)
	for i := 1; i < res.NumRows(); i++ {
		if c.Ints[i] > c.Ints[i-1] {
			t.Fatal("not sorted by position 2")
		}
	}
	res2, err := f.db.Query("select l_mode, count(*) from lineitem group by l_mode order by count(*) desc")
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumRows() != res.NumRows() {
		t.Fatal("agg order by mismatch")
	}
}

func TestLiteralFirstComparison(t *testing.T) {
	f := newFixture(t, 100, 1000, 13)
	res, err := f.db.Query("select count(*) from lineitem where 40 <= l_qty")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, q := range f.lQty {
		if q >= 40 {
			want++
		}
	}
	if res.Col(0).Ints[0] != want {
		t.Fatal("flipped comparison wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select from t",
		"select * from", // * unsupported anyway
		"select a from t where",
		"select a from t limit x",
		"select a from t order by",
		"select sum(sum(a)) from t",
		"select a from t where a like 5",
		"select a from t where a in ()",
		"select a from t; select b from t",
		"select a from t where a ~ 5",
		"select a from 'str'",
		"select count(* from t",
		"select a from t where date 'nope' < a",
	}
	for _, q := range bad {
		if _, err := sql.Parse(q); err == nil {
			t.Errorf("parse accepted %q", q)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	f := newFixture(t, 10, 10, 14)
	bad := []string{
		"select x from lineitem",                            // unknown column
		"select l_qty from nope",                            // unknown table
		"select l_qty from lineitem, orders",                // cartesian
		"select o_id from orders, orders",                   // duplicate table
		"select l_qty from lineitem order by zzz",           // unknown order col
		"select count(*) from lineitem order by sum(l_qty)", // agg not in output
		"select l_qty from lineitem group by nope",          // unknown group col
		// HAVING on a column that is not grouped
		"select l_mode, count(*) from lineitem group by l_mode having l_qty = 5",
		// a select item neither grouped nor aggregated
		"select l_mode, l_qty, count(*) from lineitem group by l_mode",
	}
	for _, q := range bad {
		if _, err := f.db.Plan(q); err == nil {
			t.Errorf("plan accepted %q", q)
		}
	}
}

func TestQueryRepetitionHitsCache(t *testing.T) {
	f := newFixture(t, 300, 10000, 15)
	q := "select count(*) from lineitem where l_qty >= 48 and l_mode = 'AIR'"
	r1, err := f.db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Col(0).Ints[0] != r2.Col(0).Ints[0] {
		t.Fatal("repeat query differs")
	}
	st := f.db.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no cache hit across repeated SQL: %+v", st)
	}
}

func TestDeleteUpdateVacuumThroughFacade(t *testing.T) {
	f := newFixture(t, 100, 5000, 16)
	q := "select count(*) from lineitem where l_qty >= 40"
	r1, _ := f.db.Query(q)
	before := r1.Col(0).Ints[0]

	n, err := f.db.DeleteWhere("lineitem", mustPred(t, "l_qty = 50"))
	if err != nil {
		t.Fatal(err)
	}
	var del int64
	for _, qv := range f.lQty {
		if qv == 50 {
			del++
		}
	}
	if int64(n) != del {
		t.Fatalf("deleted %d want %d", n, del)
	}
	r2, _ := f.db.Query(q)
	if r2.Col(0).Ints[0] != before-del {
		t.Fatalf("post-delete count %d want %d", r2.Col(0).Ints[0], before-del)
	}

	// Update: bump qty 49 -> 10 (out-of-place; count>=40 shrinks again).
	var q49 int64
	for _, qv := range f.lQty {
		if qv == 49 {
			q49++
		}
	}
	un, err := f.db.UpdateWhere("lineitem", mustPred(t, "l_qty = 49"), func(b *predcache.Batch) {
		for i := range b.Cols[1].Ints {
			b.Cols[1].Ints[i] = 10
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(un) != q49 {
		t.Fatalf("updated %d want %d", un, q49)
	}
	r3, _ := f.db.Query(q)
	if r3.Col(0).Ints[0] != before-del-q49 {
		t.Fatalf("post-update count %d want %d", r3.Col(0).Ints[0], before-del-q49)
	}

	// Vacuum and re-check.
	if err := f.db.Vacuum("lineitem"); err != nil {
		t.Fatal(err)
	}
	r4, _ := f.db.Query(q)
	if r4.Col(0).Ints[0] != before-del-q49 {
		t.Fatal("post-vacuum count wrong")
	}
}

// mustPred builds a predicate via a WHERE-only parse.
func mustPred(t *testing.T, where string) predcache.Pred {
	t.Helper()
	stmt, err := sql.Parse("select l_qty from lineitem where " + where)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.Where
}

func TestGroupByComputedScalar(t *testing.T) {
	f := newFixture(t, 300, 4000, 17)
	res, err := f.db.Query(`
		select extract(year from l_ship) as yr, sum(l_price) as rev, count(*) as n
		from lineitem
		group by extract(year from l_ship)
		order by yr`)
	if err != nil {
		t.Fatal(err)
	}
	type ag struct {
		rev float64
		n   int64
	}
	ref := map[int64]*ag{}
	for i := range f.lShip {
		y, _, _ := storage.YMDFromDate(f.lShip[i])
		a := ref[int64(y)]
		if a == nil {
			a = &ag{}
			ref[int64(y)] = a
		}
		a.rev += f.lPrice[i]
		a.n++
	}
	if res.NumRows() != len(ref) {
		t.Fatalf("groups %d want %d", res.NumRows(), len(ref))
	}
	yr := res.ColByName("yr")
	rev := res.ColByName("rev")
	n := res.ColByName("n")
	for row := 0; row < res.NumRows(); row++ {
		a := ref[yr.Ints[row]]
		if a == nil || !approx(rev.Floats[row], a.rev) || n.Ints[row] != a.n {
			t.Fatalf("year %d mismatch", yr.Ints[row])
		}
	}
}

func TestSelectStar(t *testing.T) {
	f := newFixture(t, 50, 200, 18)
	res, err := f.db.Query("select * from lineitem where l_qty >= 45 order by l_order limit 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCols() != 6 {
		t.Fatalf("cols %d", res.NumCols())
	}
	if res.NumRows() > 5 {
		t.Fatal("limit ignored")
	}
	// * with grouping or siblings is rejected.
	if _, err := f.db.Query("select *, l_qty from lineitem"); err == nil {
		t.Fatal("star with sibling accepted")
	}
	if _, err := f.db.Query("select * from lineitem group by l_mode"); err == nil {
		t.Fatal("grouped star accepted")
	}
}

func TestEmptyResults(t *testing.T) {
	f := newFixture(t, 50, 300, 19)
	// Impossible filter: empty scan through every downstream operator.
	for _, q := range []string{
		"select l_qty from lineitem where l_qty > 1000 order by l_qty limit 3",
		"select count(*) as n from lineitem where l_qty > 1000",
		"select l_mode, sum(l_price) from lineitem where l_qty > 1000 group by l_mode",
		"select count(*) from lineitem, orders where o_id = l_order and l_qty > 1000",
		"select * from lineitem where l_qty > 1000",
	} {
		res, err := f.db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if strings.Contains(q, "count(*) as n") || strings.Contains(q, "select count(*)") {
			if res.NumRows() != 1 || res.Col(res.NumCols() - 1).Ints[0] != 0 {
				t.Fatalf("%s: want single zero-count row", q)
			}
		} else if res.NumRows() != 0 {
			t.Fatalf("%s: %d rows", q, res.NumRows())
		}
	}
	// Empty results are cached too: the repeat scans nothing.
	q := "select count(*) from lineitem where l_qty > 1000"
	if _, err := f.db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := f.db.Query(q); err != nil {
		t.Fatal(err)
	}
	st := f.db.LastQueryStats()
	if st.CacheHits != 1 {
		t.Fatal("empty result not cached")
	}
	if st.RowsScanned != 0 {
		t.Fatalf("empty cached scan still scanned %d rows", st.RowsScanned)
	}
}

// TestRandomSQLDifferential generates random single-table queries and
// checks the engine (twice: cold, then cache-assisted) against a row-by-row
// reference evaluation.
func TestRandomSQLDifferential(t *testing.T) {
	f := newFixture(t, 100, 6000, 20)
	r := rand.New(rand.NewSource(555))
	modes := []string{"AIR", "MAIL", "SHIP", "NONE"}

	type atom struct {
		sql string
		ref func(i int) bool
	}
	genAtom := func() atom {
		switch r.Intn(6) {
		case 0:
			v := int64(r.Intn(55))
			ops := []struct {
				s string
				f func(a, b int64) bool
			}{
				{"=", func(a, b int64) bool { return a == b }},
				{"<>", func(a, b int64) bool { return a != b }},
				{"<", func(a, b int64) bool { return a < b }},
				{"<=", func(a, b int64) bool { return a <= b }},
				{">", func(a, b int64) bool { return a > b }},
				{">=", func(a, b int64) bool { return a >= b }},
			}
			op := ops[r.Intn(len(ops))]
			return atom{
				sql: fmt.Sprintf("l_qty %s %d", op.s, v),
				ref: func(i int) bool { return op.f(f.lQty[i], v) },
			}
		case 1:
			lo := int64(r.Intn(40))
			hi := lo + int64(r.Intn(15))
			return atom{
				sql: fmt.Sprintf("l_qty between %d and %d", lo, hi),
				ref: func(i int) bool { return f.lQty[i] >= lo && f.lQty[i] <= hi },
			}
		case 2:
			v := float64(r.Intn(100))
			return atom{
				sql: fmt.Sprintf("l_price > %.2f", v),
				ref: func(i int) bool { return f.lPrice[i] > v },
			}
		case 3:
			m := modes[r.Intn(len(modes))]
			return atom{
				sql: fmt.Sprintf("l_mode = '%s'", m),
				ref: func(i int) bool { return f.lMode[i] == m },
			}
		case 4:
			m1, m2 := modes[r.Intn(len(modes))], modes[r.Intn(len(modes))]
			return atom{
				sql: fmt.Sprintf("l_mode in ('%s', '%s')", m1, m2),
				ref: func(i int) bool { return f.lMode[i] == m1 || f.lMode[i] == m2 },
			}
		default:
			lo := int64(9131 + r.Intn(300))
			return atom{
				sql: fmt.Sprintf("l_ship >= %d", lo),
				ref: func(i int) bool { return f.lShip[i] >= lo },
			}
		}
	}

	// genGroup builds a parenthesized conjunction of 1-3 atoms.
	genGroup := func() (string, func(int) bool) {
		n := 1 + r.Intn(3)
		var parts []string
		var refs []func(int) bool
		for a := 0; a < n; a++ {
			at := genAtom()
			parts = append(parts, at.sql)
			refs = append(refs, at.ref)
		}
		sql := "(" + strings.Join(parts, " and ") + ")"
		return sql, func(i int) bool {
			for _, g := range refs {
				if !g(i) {
					return false
				}
			}
			return true
		}
	}

	for iter := 0; iter < 80; iter++ {
		var where string
		match := func(int) bool { return true }
		switch r.Intn(3) {
		case 1: // one conjunction group
			g, ref := genGroup()
			where = " where " + g
			match = ref
		case 2: // disjunction of two groups
			g1, r1 := genGroup()
			g2, r2 := genGroup()
			where = " where " + g1 + " or " + g2
			match = func(i int) bool { return r1(i) || r2(i) }
		}

		grouped := r.Intn(2) == 0
		var q string
		if grouped {
			q = "select l_mode, count(*) as n, sum(l_qty) as sq, min(l_price) as mp from lineitem" + where + " group by l_mode"
		} else {
			q = "select count(*) as n, sum(l_qty) as sq from lineitem" + where
		}

		// Reference.
		type ag struct {
			n  int64
			sq float64
			mp float64
		}
		ref := map[string]*ag{}
		for i := 0; i < len(f.lQty); i++ {
			if !match(i) {
				continue
			}
			key := ""
			if grouped {
				key = f.lMode[i]
			}
			a := ref[key]
			if a == nil {
				a = &ag{mp: math.Inf(1)}
				ref[key] = a
			}
			a.n++
			a.sq += float64(f.lQty[i])
			if f.lPrice[i] < a.mp {
				a.mp = f.lPrice[i]
			}
		}

		for run := 0; run < 2; run++ { // second run exercises the cache
			res, err := f.db.Query(q)
			if err != nil {
				t.Fatalf("iter %d: %q: %v", iter, q, err)
			}
			if grouped {
				if res.NumRows() != len(ref) {
					t.Fatalf("iter %d run %d: %q: %d groups want %d", iter, run, q, res.NumRows(), len(ref))
				}
				mode := res.ColByName("l_mode")
				for row := 0; row < res.NumRows(); row++ {
					a := ref[mode.Dict.Value(mode.Ints[row])]
					if a == nil || res.ColByName("n").Ints[row] != a.n ||
						!approx(res.ColByName("sq").Floats[row], a.sq) ||
						!approx(res.ColByName("mp").Floats[row], a.mp) {
						t.Fatalf("iter %d run %d: %q: group mismatch", iter, run, q)
					}
				}
			} else {
				a := ref[""]
				if a == nil {
					a = &ag{}
				}
				if res.ColByName("n").Ints[0] != a.n || !approx(res.ColByName("sq").Floats[0], a.sq) {
					t.Fatalf("iter %d run %d: %q: got n=%d sq=%f want n=%d sq=%f",
						iter, run, q, res.ColByName("n").Ints[0], res.ColByName("sq").Floats[0], a.n, a.sq)
				}
			}
		}
	}
	if f.db.CacheStats().Hits == 0 {
		t.Fatal("differential run never hit the cache")
	}
}

// TestRandomJoinDifferential: random two-table join queries vs a nested-loop
// reference.
func TestRandomJoinDifferential(t *testing.T) {
	f := newFixture(t, 300, 4000, 21)
	r := rand.New(rand.NewSource(777))
	statuses := []string{"OPEN", "DONE", "FAIL"}
	for iter := 0; iter < 40; iter++ {
		qtyMin := int64(r.Intn(50))
		status := statuses[r.Intn(3)]
		useStatus := r.Intn(2) == 0
		where := fmt.Sprintf(" where o_id = l_order and l_qty >= %d", qtyMin)
		if useStatus {
			where += fmt.Sprintf(" and o_status = '%s'", status)
		}
		q := "select count(*) as n, sum(l_price) as sp from lineitem, orders" + where

		okOrder := map[int64]bool{}
		for i := range f.oID {
			if !useStatus || f.oStatus[i] == status {
				okOrder[f.oID[i]] = true
			}
		}
		var wantN int64
		var wantSP float64
		for i := range f.lQty {
			if f.lQty[i] >= qtyMin && okOrder[f.lOrder[i]] {
				wantN++
				wantSP += f.lPrice[i]
			}
		}
		for run := 0; run < 2; run++ {
			res, err := f.db.Query(q)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if res.ColByName("n").Ints[0] != wantN || !approx(res.ColByName("sp").Floats[0], wantSP) {
				t.Fatalf("iter %d run %d: %q: got n=%d want %d", iter, run, q, res.ColByName("n").Ints[0], wantN)
			}
		}
	}
}

// TestDisjunctionFactoring: Q19-style multi-table ORs push per-table
// implied filters into the scans (correctness + scan reduction).
func TestDisjunctionFactoring(t *testing.T) {
	f := newFixture(t, 400, 20000, 22)
	q := `select count(*) as n, sum(l_price) as sp from lineitem, orders
	      where o_id = l_order
	        and ((l_qty between 1 and 5 and o_status = 'OPEN' and l_mode = 'AIR')
	          or (l_qty between 45 and 50 and o_status = 'DONE' and l_mode = 'MAIL'))`
	status := map[int64]string{}
	for i := range f.oID {
		status[f.oID[i]] = f.oStatus[i]
	}
	var wantN int64
	var wantSP float64
	for i := range f.lQty {
		st := status[f.lOrder[i]]
		q1 := f.lQty[i] >= 1 && f.lQty[i] <= 5 && st == "OPEN" && f.lMode[i] == "AIR"
		q2 := f.lQty[i] >= 45 && f.lQty[i] <= 50 && st == "DONE" && f.lMode[i] == "MAIL"
		if q1 || q2 {
			wantN++
			wantSP += f.lPrice[i]
		}
	}
	res, err := f.db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ColByName("n").Ints[0] != wantN || !approx(res.ColByName("sp").Floats[0], wantSP) {
		t.Fatalf("got n=%d want %d", res.ColByName("n").Ints[0], wantN)
	}
	// The factored lineitem filter must reduce qualifying scan output: the
	// lineitem scan's qualified rows should be far below the full table.
	st := f.db.LastQueryStats()
	if st.RowsQualified >= int64(len(f.lQty)) {
		t.Fatalf("no pushdown: %d rows qualified", st.RowsQualified)
	}
	// And the explain shows a filter on the lineitem scan.
	res, err = f.db.Query("explain " + q)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < res.NumRows(); i++ {
		lines = append(lines, res.StringValue(i, 0))
	}
	plan := strings.Join(lines, "\n")
	if !strings.Contains(plan, "Scan lineitem filter=(or") {
		t.Fatalf("lineitem scan missing factored filter:\n%s", plan)
	}
	if !strings.Contains(plan, "Scan orders filter=(or") {
		t.Fatalf("orders scan missing factored filter:\n%s", plan)
	}
}

func TestLiteralFirstAllOps(t *testing.T) {
	f := newFixture(t, 50, 500, 23)
	// Flipped comparisons: lit op col for every operator.
	cases := []struct {
		q   string
		ref func(q int64) bool
	}{
		{"10 < l_qty", func(v int64) bool { return v > 10 }},
		{"10 <= l_qty", func(v int64) bool { return v >= 10 }},
		{"40 > l_qty", func(v int64) bool { return v < 40 }},
		{"40 >= l_qty", func(v int64) bool { return v <= 40 }},
		{"25 = l_qty", func(v int64) bool { return v == 25 }},
		{"25 <> l_qty", func(v int64) bool { return v != 25 }},
	}
	for _, c := range cases {
		res, err := f.db.Query("select count(*) from lineitem where " + c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		var want int64
		for _, v := range f.lQty {
			if c.ref(v) {
				want++
			}
		}
		if res.Col(0).Ints[0] != want {
			t.Fatalf("%s: got %d want %d", c.q, res.Col(0).Ints[0], want)
		}
	}
}

func TestNegativeLiteralsAndDateInList(t *testing.T) {
	f := newFixture(t, 50, 500, 24)
	res, err := f.db.Query("select count(*) from lineitem where l_qty > -5 and l_price > -1.5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Col(0).Ints[0] != 500 {
		t.Fatal("negative literals wrong")
	}
	// Date literal as the right side of between.
	res, err = f.db.Query("select count(*) from lineitem where l_ship between date '1995-01-01' and date '1995-12-31'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Col(0).Ints[0] != 500 {
		t.Fatalf("date between: %d", res.Col(0).Ints[0])
	}
}

func TestIntervalArithmetic(t *testing.T) {
	// Month-end clamping and year/day units.
	cases := []struct{ in, want string }{
		{"date '1995-01-31' + interval '1' month", "1995-02-28"},
		{"date '1996-01-31' + interval '1' month", "1996-02-29"}, // leap year
		{"date '1995-03-15' - interval '1' month", "1995-02-15"},
		{"date '1995-03-15' + interval '2' year", "1997-03-15"},
		{"date '1995-03-15' - interval '14' days", "1995-03-01"},
		{"date '1995-12-31' + interval '1' day", "1996-01-01"},
	}
	for i, c := range cases {
		db := predcache.Open()
		name := fmt.Sprintf("dt%d", i)
		if err := db.CreateTable(name, predcache.Schema{{Name: "d", Type: predcache.Date}}); err != nil {
			t.Fatal(err)
		}
		want, err := storage.ParseDate(c.want)
		if err != nil {
			t.Fatal(err)
		}
		b := predcache.NewBatch(predcache.Schema{{Name: "d", Type: predcache.Date}})
		b.Cols[0].Ints = []int64{want}
		b.N = 1
		if err := db.Insert(name, b); err != nil {
			t.Fatal(err)
		}
		// The folded interval literal must equal the stored expected day.
		res, err := db.Query(fmt.Sprintf("select count(*) from %s where d = %s", name, c.in))
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if res.Col(0).Ints[0] != 1 {
			t.Fatalf("%s != %s", c.in, c.want)
		}
	}
}

func TestAliasedWhereForms(t *testing.T) {
	f := newFixture(t, 100, 800, 25)
	// Aliased IN / LIKE / NOT / BETWEEN rewrite paths.
	res, err := f.db.Query(`
		select count(*) from lineitem l1, orders o1
		where o1.o_id = l1.l_order
		  and l1.l_mode in ('AIR', 'MAIL')
		  and l1.l_mode like 'A%'
		  and not l1.l_qty between 10 and 40
		  and o1.o_status <> 'FAIL'`)
	if err != nil {
		t.Fatal(err)
	}
	status := map[int64]string{}
	for i := range f.oID {
		status[f.oID[i]] = f.oStatus[i]
	}
	var want int64
	for i := range f.lQty {
		m := f.lMode[i]
		inList := m == "AIR" || m == "MAIL"
		like := strings.HasPrefix(m, "A")
		betw := f.lQty[i] >= 10 && f.lQty[i] <= 40
		if inList && like && !betw && status[f.lOrder[i]] != "FAIL" {
			want++
		}
	}
	if res.Col(0).Ints[0] != want {
		t.Fatalf("got %d want %d", res.Col(0).Ints[0], want)
	}
}
