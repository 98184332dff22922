// Package ssb implements the Star Schema Benchmark (O'Neil et al. [30]):
// the denormalized lineorder fact table with date, customer, supplier, and
// part dimensions, and all 13 queries (flights 1-4). SSB queries are pure
// star joins with dimension filters — exactly the shape semi-join-filter
// caching (§4.4) targets.
package ssb

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/sql"
	"github.com/predcache/predcache/internal/storage"
)

// Config controls generation.
type Config struct {
	SF     float64
	Skewed bool
	Seed   int64
}

// Data holds the generated batches.
type Data struct {
	Cfg     Config
	Batches map[string]*storage.Batch
}

var (
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationsPer = 5 // nations per region
	citiesPer  = 10
	months     = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
)

func nationName(region, i int) string { return fmt.Sprintf("%s-N%d", regions[region], i) }
func cityName(region, n, i int) string {
	return fmt.Sprintf("%s-N%d-C%d", regions[region], n, i)
}

// Schemas returns the SSB table schemas.
func Schemas() map[string]storage.Schema {
	return map[string]storage.Schema{
		"date": {
			{Name: "d_datekey", Type: storage.Int64}, // yyyymmdd
			{Name: "d_year", Type: storage.Int64},
			{Name: "d_yearmonthnum", Type: storage.Int64}, // yyyymm
			{Name: "d_yearmonth", Type: storage.String},   // e.g. Dec1997
			{Name: "d_weeknuminyear", Type: storage.Int64},
		},
		"customer": {
			{Name: "c_custkey", Type: storage.Int64},
			{Name: "c_city", Type: storage.String},
			{Name: "c_nation", Type: storage.String},
			{Name: "c_region", Type: storage.String},
		},
		"supplier": {
			{Name: "s_suppkey", Type: storage.Int64},
			{Name: "s_city", Type: storage.String},
			{Name: "s_nation", Type: storage.String},
			{Name: "s_region", Type: storage.String},
		},
		"part": {
			{Name: "p_partkey", Type: storage.Int64},
			{Name: "p_mfgr", Type: storage.String},
			{Name: "p_category", Type: storage.String},
			{Name: "p_brand1", Type: storage.String},
		},
		"lineorder": {
			{Name: "lo_orderkey", Type: storage.Int64},
			{Name: "lo_custkey", Type: storage.Int64},
			{Name: "lo_partkey", Type: storage.Int64},
			{Name: "lo_suppkey", Type: storage.Int64},
			{Name: "lo_orderdate", Type: storage.Int64}, // d_datekey
			{Name: "lo_quantity", Type: storage.Int64},
			{Name: "lo_extendedprice", Type: storage.Float64},
			{Name: "lo_discount", Type: storage.Int64}, // percent 0..10
			{Name: "lo_revenue", Type: storage.Float64},
			{Name: "lo_supplycost", Type: storage.Float64},
		},
	}
}

// Generate builds the five tables.
func Generate(cfg Config) *Data {
	r := rand.New(rand.NewSource(cfg.Seed))
	schemas := Schemas()
	d := &Data{Cfg: cfg, Batches: make(map[string]*storage.Batch)}
	scale := func(base, min int) int {
		n := int(float64(base) * cfg.SF)
		if n < min {
			n = min
		}
		return n
	}

	// date: 1992-01-01 .. 1998-12-31.
	db := storage.NewBatch(schemas["date"])
	start := storage.DateFromYMD(1992, 1, 1)
	end := storage.DateFromYMD(1998, 12, 31)
	var dateKeys []int64
	for day := start; day <= end; day++ {
		y, m, dd := storage.YMDFromDate(day)
		key := int64(y*10000 + m*100 + dd)
		dateKeys = append(dateKeys, key)
		db.Cols[0].Ints = append(db.Cols[0].Ints, key)
		db.Cols[1].Ints = append(db.Cols[1].Ints, int64(y))
		db.Cols[2].Ints = append(db.Cols[2].Ints, int64(y*100+m))
		db.Cols[3].Strings = append(db.Cols[3].Strings, fmt.Sprintf("%s%d", months[m-1], y))
		db.Cols[4].Ints = append(db.Cols[4].Ints, int64(day-start)%365/7+1)
	}
	db.N = len(dateKeys)
	d.Batches["date"] = db

	geoPick := func() (city, nation, region string) {
		reg := r.Intn(len(regions))
		nat := r.Intn(nationsPer)
		cit := r.Intn(citiesPer)
		return cityName(reg, nat, cit), nationName(reg, nat), regions[reg]
	}

	nCust := scale(30000, 100)
	cb := storage.NewBatch(schemas["customer"])
	for i := 0; i < nCust; i++ {
		city, nation, region := geoPick()
		cb.Cols[0].Ints = append(cb.Cols[0].Ints, int64(i+1))
		cb.Cols[1].Strings = append(cb.Cols[1].Strings, city)
		cb.Cols[2].Strings = append(cb.Cols[2].Strings, nation)
		cb.Cols[3].Strings = append(cb.Cols[3].Strings, region)
	}
	cb.N = nCust
	d.Batches["customer"] = cb

	nSupp := scale(2000, 40)
	sb := storage.NewBatch(schemas["supplier"])
	for i := 0; i < nSupp; i++ {
		city, nation, region := geoPick()
		sb.Cols[0].Ints = append(sb.Cols[0].Ints, int64(i+1))
		sb.Cols[1].Strings = append(sb.Cols[1].Strings, city)
		sb.Cols[2].Strings = append(sb.Cols[2].Strings, nation)
		sb.Cols[3].Strings = append(sb.Cols[3].Strings, region)
	}
	sb.N = nSupp
	d.Batches["supplier"] = sb

	nPart := scale(200000, 200)
	pb := storage.NewBatch(schemas["part"])
	for i := 0; i < nPart; i++ {
		m := r.Intn(5) + 1
		cat := r.Intn(5) + 1
		brand := r.Intn(40) + 1
		pb.Cols[0].Ints = append(pb.Cols[0].Ints, int64(i+1))
		pb.Cols[1].Strings = append(pb.Cols[1].Strings, fmt.Sprintf("MFGR#%d", m))
		pb.Cols[2].Strings = append(pb.Cols[2].Strings, fmt.Sprintf("MFGR#%d%d", m, cat))
		pb.Cols[3].Strings = append(pb.Cols[3].Strings, fmt.Sprintf("MFGR#%d%d%02d", m, cat, brand))
	}
	pb.N = nPart
	d.Batches["part"] = pb

	// lineorder.
	nLO := scale(6000000, 5000)
	lob := storage.NewBatch(schemas["lineorder"])
	var zipfCust, zipfPart, zipfSupp *rand.Zipf
	if cfg.Skewed {
		zipfCust = rand.NewZipf(r, 1.3, 1, uint64(nCust-1))
		zipfPart = rand.NewZipf(r, 1.3, 1, uint64(nPart-1))
		zipfSupp = rand.NewZipf(r, 1.3, 1, uint64(nSupp-1))
	}
	pick := func(z *rand.Zipf, n int) int64 {
		if z != nil {
			return int64(z.Uint64()) + 1
		}
		return int64(r.Intn(n)) + 1
	}
	for i := 0; i < nLO; i++ {
		var dk int64
		if cfg.Skewed {
			f := r.Float64()
			f = 1 - f*f
			idx := int(f * float64(len(dateKeys)-1))
			dk = dateKeys[idx]
		} else {
			dk = dateKeys[r.Intn(len(dateKeys))]
		}
		qty := int64(r.Intn(50) + 1)
		price := float64(r.Intn(100000))/100 + 1
		disc := int64(r.Intn(11))
		lob.Cols[0].Ints = append(lob.Cols[0].Ints, int64(i/4+1))
		lob.Cols[1].Ints = append(lob.Cols[1].Ints, pick(zipfCust, nCust))
		lob.Cols[2].Ints = append(lob.Cols[2].Ints, pick(zipfPart, nPart))
		lob.Cols[3].Ints = append(lob.Cols[3].Ints, pick(zipfSupp, nSupp))
		lob.Cols[4].Ints = append(lob.Cols[4].Ints, dk)
		lob.Cols[5].Ints = append(lob.Cols[5].Ints, qty)
		lob.Cols[6].Floats = append(lob.Cols[6].Floats, price)
		lob.Cols[7].Ints = append(lob.Cols[7].Ints, disc)
		lob.Cols[8].Floats = append(lob.Cols[8].Floats, price*float64(qty)*(100-float64(disc))/100)
		lob.Cols[9].Floats = append(lob.Cols[9].Floats, price*0.6)
		lob.N++
	}
	if cfg.Skewed {
		sortByCol(lob, 4)
	}
	d.Batches["lineorder"] = lob
	return d
}

// sortByCol stably sorts a batch by one int column (date-ordered ingest for
// the skewed variant).
func sortByCol(b *storage.Batch, col int) {
	perm := make([]int, b.N)
	for i := range perm {
		perm[i] = i
	}
	keys := b.Cols[col].Ints
	sort.SliceStable(perm, func(a, c int) bool { return keys[perm[a]] < keys[perm[c]] })
	for ci := range b.Cols {
		cv := &b.Cols[ci]
		switch {
		case cv.Ints != nil:
			out := make([]int64, b.N)
			for i, p := range perm {
				out[i] = cv.Ints[p]
			}
			cv.Ints = out
		case cv.Floats != nil:
			out := make([]float64, b.N)
			for i, p := range perm {
				out[i] = cv.Floats[p]
			}
			cv.Floats = out
		case cv.Strings != nil:
			out := make([]string, b.N)
			for i, p := range perm {
				out[i] = cv.Strings[p]
			}
			cv.Strings = out
		}
	}
}

// TableNames returns load order.
func TableNames() []string { return []string{"date", "customer", "supplier", "part", "lineorder"} }

// Load creates and fills the tables.
func (d *Data) Load(cat *storage.Catalog, slices int) error {
	schemas := Schemas()
	for _, name := range TableNames() {
		tbl, err := cat.CreateTable(name, schemas[name], slices)
		if err != nil {
			return err
		}
		if err := cat.Commit(func(xid uint64) error { return tbl.Append(d.Batches[name], xid) }); err != nil {
			return err
		}
	}
	return nil
}

// Query is one SSB query.
type Query struct {
	ID  string
	SQL string
}

// Plan compiles the query.
func (q Query) Plan(cat *storage.Catalog) (engine.Node, error) { return sql.PlanSQL(q.SQL, cat) }

// Queries returns the 13 SSB queries (validation parameters).
func Queries() []Query {
	return []Query{
		{ID: "1.1", SQL: `
select sum(lo_extendedprice * lo_discount) as revenue
from lineorder, date
where lo_orderdate = d_datekey and d_year = 1993
  and lo_discount between 1 and 3 and lo_quantity < 25`},
		{ID: "1.2", SQL: `
select sum(lo_extendedprice * lo_discount) as revenue
from lineorder, date
where lo_orderdate = d_datekey and d_yearmonthnum = 199401
  and lo_discount between 4 and 6 and lo_quantity between 26 and 35`},
		{ID: "1.3", SQL: `
select sum(lo_extendedprice * lo_discount) as revenue
from lineorder, date
where lo_orderdate = d_datekey and d_weeknuminyear = 6 and d_year = 1994
  and lo_discount between 5 and 7 and lo_quantity between 26 and 35`},
		{ID: "2.1", SQL: `
select sum(lo_revenue) as revenue, d_year, p_brand1
from lineorder, date, part, supplier
where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey
  and p_category = 'MFGR#12' and s_region = 'AMERICA'
group by d_year, p_brand1 order by d_year, p_brand1`},
		{ID: "2.2", SQL: `
select sum(lo_revenue) as revenue, d_year, p_brand1
from lineorder, date, part, supplier
where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey
  and p_brand1 between 'MFGR#2221' and 'MFGR#2228' and s_region = 'ASIA'
group by d_year, p_brand1 order by d_year, p_brand1`},
		{ID: "2.3", SQL: `
select sum(lo_revenue) as revenue, d_year, p_brand1
from lineorder, date, part, supplier
where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey
  and p_brand1 = 'MFGR#2239' and s_region = 'EUROPE'
group by d_year, p_brand1 order by d_year, p_brand1`},
		{ID: "3.1", SQL: `
select c_nation, s_nation, d_year, sum(lo_revenue) as revenue
from customer, lineorder, supplier, date
where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey
  and c_region = 'ASIA' and s_region = 'ASIA' and d_year between 1992 and 1997
group by c_nation, s_nation, d_year order by d_year, revenue desc`},
		{ID: "3.2", SQL: `
select c_city, s_city, d_year, sum(lo_revenue) as revenue
from customer, lineorder, supplier, date
where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey
  and c_nation = 'AMERICA-N3' and s_nation = 'AMERICA-N3' and d_year between 1992 and 1997
group by c_city, s_city, d_year order by d_year, revenue desc`},
		{ID: "3.3", SQL: `
select c_city, s_city, d_year, sum(lo_revenue) as revenue
from customer, lineorder, supplier, date
where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey
  and c_city in ('ASIA-N1-C1', 'ASIA-N1-C5') and s_city in ('ASIA-N1-C1', 'ASIA-N1-C5')
  and d_year between 1992 and 1997
group by c_city, s_city, d_year order by d_year, revenue desc`},
		{ID: "3.4", SQL: `
select c_city, s_city, d_year, sum(lo_revenue) as revenue
from customer, lineorder, supplier, date
where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey
  and c_city in ('ASIA-N1-C1', 'ASIA-N1-C5') and s_city in ('ASIA-N1-C1', 'ASIA-N1-C5')
  and d_yearmonth = 'Dec1997'
group by c_city, s_city, d_year order by d_year, revenue desc`},
		{ID: "4.1", SQL: `
select d_year, c_nation, sum(lo_revenue - lo_supplycost) as profit
from date, customer, supplier, part, lineorder
where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_partkey = p_partkey
  and lo_orderdate = d_datekey
  and c_region = 'AMERICA' and s_region = 'AMERICA'
  and (p_mfgr = 'MFGR#1' or p_mfgr = 'MFGR#2')
group by d_year, c_nation order by d_year, c_nation`},
		{ID: "4.2", SQL: `
select d_year, s_nation, p_category, sum(lo_revenue - lo_supplycost) as profit
from date, customer, supplier, part, lineorder
where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_partkey = p_partkey
  and lo_orderdate = d_datekey
  and c_region = 'AMERICA' and s_region = 'AMERICA'
  and d_year in (1997, 1998)
  and (p_mfgr = 'MFGR#1' or p_mfgr = 'MFGR#2')
group by d_year, s_nation, p_category order by d_year, s_nation, p_category`},
		{ID: "4.3", SQL: `
select d_year, s_city, p_brand1, sum(lo_revenue - lo_supplycost) as profit
from date, customer, supplier, part, lineorder
where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_partkey = p_partkey
  and lo_orderdate = d_datekey
  and c_region = 'AMERICA' and s_nation = 'AMERICA-N1'
  and d_year in (1997, 1998) and p_category = 'MFGR#14'
group by d_year, s_city, p_brand1 order by d_year, s_city, p_brand1`},
	}
}
