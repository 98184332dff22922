// Package tpcds implements a TPC-DS-like star-schema workload: the
// store_sales fact table with date_dim, item, store, customer and promotion
// dimensions, plus twenty queries modeled on the filtered-scan/star-join
// templates of the official benchmark (q3, q6, q7, q13, q19, q27, q36, q42,
// q43, q48, q52, q53, q55, q63, q79, q88, q89, q96, q98 and a promotion
// variant).
//
// Substitution note (DESIGN.md §1): the paper runs the full 99-query TPC-DS;
// the Figure 15/17 experiments only require many distinct filtered fact
// scans over a snowflake schema, which this subset reproduces with the same
// scan/join/aggregate code paths.
package tpcds

import (
	"fmt"
	"math/rand"

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

// Data holds generated batches.
type Data struct {
	Cfg     Config
	Batches map[string]*storage.Batch
}

var (
	categories = []string{"Books", "Electronics", "Home", "Jewelry", "Men", "Music", "Shoes", "Sports", "Toys", "Women"}
	classes    = []string{"accessories", "classical", "fiction", "fitness", "pants", "portable", "romance", "shirts"}
	states     = []string{"TN", "CA", "TX", "WA", "NY", "FL", "OH", "GA"}
	channels   = []string{"Y", "N"}
)

// Schemas returns the subset schemas.
func Schemas() map[string]storage.Schema {
	return map[string]storage.Schema{
		"date_dim": {
			{Name: "d_date_sk", Type: storage.Int64},
			{Name: "d_year", Type: storage.Int64},
			{Name: "d_moy", Type: storage.Int64},
			{Name: "d_dom", Type: storage.Int64},
			{Name: "d_qoy", Type: storage.Int64},
		},
		"item": {
			{Name: "i_item_sk", Type: storage.Int64},
			{Name: "i_brand_id", Type: storage.Int64},
			{Name: "i_brand", Type: storage.String},
			{Name: "i_category", Type: storage.String},
			{Name: "i_class", Type: storage.String},
			{Name: "i_manufact_id", Type: storage.Int64},
			{Name: "i_manager_id", Type: storage.Int64},
			{Name: "i_current_price", Type: storage.Float64},
		},
		"store": {
			{Name: "s_store_sk", Type: storage.Int64},
			{Name: "s_store_name", Type: storage.String},
			{Name: "s_state", Type: storage.String},
		},
		"customer": {
			{Name: "c_customer_sk", Type: storage.Int64},
			{Name: "c_birth_year", Type: storage.Int64},
		},
		"promotion": {
			{Name: "p_promo_sk", Type: storage.Int64},
			{Name: "p_channel_email", Type: storage.String},
			{Name: "p_channel_event", Type: storage.String},
		},
		"store_sales": {
			{Name: "ss_sold_date_sk", Type: storage.Int64},
			{Name: "ss_item_sk", Type: storage.Int64},
			{Name: "ss_store_sk", Type: storage.Int64},
			{Name: "ss_customer_sk", Type: storage.Int64},
			{Name: "ss_promo_sk", Type: storage.Int64},
			{Name: "ss_quantity", Type: storage.Int64},
			{Name: "ss_list_price", Type: storage.Float64},
			{Name: "ss_sales_price", Type: storage.Float64},
			{Name: "ss_ext_sales_price", Type: storage.Float64},
			{Name: "ss_net_profit", Type: storage.Float64},
		},
	}
}

// Generate builds the six tables.
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

	// date_dim: 1998-2002.
	db := storage.NewBatch(schemas["date_dim"])
	start := storage.DateFromYMD(1998, 1, 1)
	end := storage.DateFromYMD(2002, 12, 31)
	nDates := int(end-start) + 1
	for day := start; day <= end; day++ {
		y, m, dom := storage.YMDFromDate(day)
		db.Cols[0].Ints = append(db.Cols[0].Ints, day-start+1)
		db.Cols[1].Ints = append(db.Cols[1].Ints, int64(y))
		db.Cols[2].Ints = append(db.Cols[2].Ints, int64(m))
		db.Cols[3].Ints = append(db.Cols[3].Ints, int64(dom))
		db.Cols[4].Ints = append(db.Cols[4].Ints, int64((m-1)/3+1))
	}
	db.N = nDates
	d.Batches["date_dim"] = db

	nItem := scale(18000, 300)
	ib := storage.NewBatch(schemas["item"])
	for i := 0; i < nItem; i++ {
		brandID := int64(r.Intn(1000) + 1)
		ib.Cols[0].Ints = append(ib.Cols[0].Ints, int64(i+1))
		ib.Cols[1].Ints = append(ib.Cols[1].Ints, brandID)
		ib.Cols[2].Strings = append(ib.Cols[2].Strings, fmt.Sprintf("Brand#%d", brandID%100))
		ib.Cols[3].Strings = append(ib.Cols[3].Strings, categories[r.Intn(len(categories))])
		ib.Cols[4].Strings = append(ib.Cols[4].Strings, classes[r.Intn(len(classes))])
		ib.Cols[5].Ints = append(ib.Cols[5].Ints, int64(r.Intn(1000)+1))
		ib.Cols[6].Ints = append(ib.Cols[6].Ints, int64(r.Intn(100)+1))
		ib.Cols[7].Floats = append(ib.Cols[7].Floats, float64(r.Intn(30000))/100+1)
	}
	ib.N = nItem
	d.Batches["item"] = ib

	nStore := scale(100, 10)
	sb := storage.NewBatch(schemas["store"])
	for i := 0; i < nStore; i++ {
		sb.Cols[0].Ints = append(sb.Cols[0].Ints, int64(i+1))
		sb.Cols[1].Strings = append(sb.Cols[1].Strings, fmt.Sprintf("Store-%03d", i+1))
		sb.Cols[2].Strings = append(sb.Cols[2].Strings, states[r.Intn(len(states))])
	}
	sb.N = nStore
	d.Batches["store"] = sb

	nCust := scale(100000, 200)
	cb := storage.NewBatch(schemas["customer"])
	for i := 0; i < nCust; i++ {
		cb.Cols[0].Ints = append(cb.Cols[0].Ints, int64(i+1))
		cb.Cols[1].Ints = append(cb.Cols[1].Ints, int64(1930+r.Intn(70)))
	}
	cb.N = nCust
	d.Batches["customer"] = cb

	nPromo := scale(300, 20)
	pb := storage.NewBatch(schemas["promotion"])
	for i := 0; i < nPromo; i++ {
		pb.Cols[0].Ints = append(pb.Cols[0].Ints, int64(i+1))
		pb.Cols[1].Strings = append(pb.Cols[1].Strings, channels[r.Intn(2)])
		pb.Cols[2].Strings = append(pb.Cols[2].Strings, channels[r.Intn(2)])
	}
	pb.N = nPromo
	d.Batches["promotion"] = pb

	nSales := scale(2880000, 8000)
	ssb := storage.NewBatch(schemas["store_sales"])
	var zipfItem, zipfCust *rand.Zipf
	if cfg.Skewed {
		zipfItem = rand.NewZipf(r, 1.2, 1, uint64(nItem-1))
		zipfCust = rand.NewZipf(r, 1.2, 1, uint64(nCust-1))
	}
	for i := 0; i < nSales; i++ {
		var dsk int64
		if cfg.Skewed {
			f := r.Float64()
			f = 1 - f*f
			dsk = int64(f*float64(nDates-1)) + 1
		} else {
			dsk = int64(r.Intn(nDates)) + 1
		}
		item := int64(r.Intn(nItem)) + 1
		cust := int64(r.Intn(nCust)) + 1
		if cfg.Skewed {
			item = int64(zipfItem.Uint64()) + 1
			cust = int64(zipfCust.Uint64()) + 1
		}
		qty := int64(r.Intn(100) + 1)
		list := float64(r.Intn(20000))/100 + 1
		sales := list * (0.2 + 0.8*r.Float64())
		ssb.Cols[0].Ints = append(ssb.Cols[0].Ints, dsk)
		ssb.Cols[1].Ints = append(ssb.Cols[1].Ints, item)
		ssb.Cols[2].Ints = append(ssb.Cols[2].Ints, int64(r.Intn(nStore))+1)
		ssb.Cols[3].Ints = append(ssb.Cols[3].Ints, cust)
		ssb.Cols[4].Ints = append(ssb.Cols[4].Ints, int64(r.Intn(nPromo))+1)
		ssb.Cols[5].Ints = append(ssb.Cols[5].Ints, qty)
		ssb.Cols[6].Floats = append(ssb.Cols[6].Floats, list)
		ssb.Cols[7].Floats = append(ssb.Cols[7].Floats, sales)
		ssb.Cols[8].Floats = append(ssb.Cols[8].Floats, sales*float64(qty))
		ssb.Cols[9].Floats = append(ssb.Cols[9].Floats, (sales-list*0.7)*float64(qty))
		ssb.N++
	}
	if cfg.Skewed {
		sortByDate(ssb)
	}
	d.Batches["store_sales"] = ssb
	return d
}

func sortByDate(b *storage.Batch) {
	perm := make([]int, b.N)
	for i := range perm {
		perm[i] = i
	}
	keys := b.Cols[0].Ints
	quickPermSort(perm, keys)
	for ci := range b.Cols {
		cv := &b.Cols[ci]
		if cv.Ints != nil {
			out := make([]int64, b.N)
			for i, p := range perm {
				out[i] = cv.Ints[p]
			}
			cv.Ints = out
		} else if cv.Floats != nil {
			out := make([]float64, b.N)
			for i, p := range perm {
				out[i] = cv.Floats[p]
			}
			cv.Floats = out
		}
	}
}

// quickPermSort sorts perm by keys[perm[i]] (simple, stable enough for
// ingest-order modelling).
func quickPermSort(perm []int, keys []int64) {
	// Counting sort over the date-key domain: keys are small positive ints.
	max := int64(0)
	for _, k := range keys {
		if k > max {
			max = k
		}
	}
	buckets := make([][]int, max+1)
	for _, p := range perm {
		buckets[keys[p]] = append(buckets[keys[p]], p)
	}
	i := 0
	for _, b := range buckets {
		for _, p := range b {
			perm[i] = p
			i++
		}
	}
}

// TableNames returns load order.
func TableNames() []string {
	return []string{"date_dim", "item", "store", "customer", "promotion", "store_sales"}
}

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

// Query is one TPC-DS-like query.
type Query struct {
	ID  string
	SQL string
}

// Plan compiles the query.
func (q Query) Plan(cat *storage.Catalog) (engine.Node, error) { return sql.PlanSQL(q.SQL, cat) }

// Queries returns the twelve queries.
func Queries() []Query {
	return []Query{
		{ID: "q3", SQL: `
select d_year, i_brand_id, i_brand, sum(ss_ext_sales_price) as sum_agg
from store_sales, date_dim, item
where ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk
  and i_manufact_id = 436 and d_moy = 12
group by d_year, i_brand_id, i_brand
order by d_year, sum_agg desc, i_brand_id
limit 100`},
		{ID: "q7", SQL: `
select i_category, avg(ss_quantity) as agg1, avg(ss_list_price) as agg2,
       avg(ss_sales_price) as agg3
from store_sales, item, promotion
where ss_item_sk = i_item_sk and ss_promo_sk = p_promo_sk
  and p_channel_email = 'N'
group by i_category
order by i_category
limit 100`},
		{ID: "q19", SQL: `
select i_brand_id, i_brand, sum(ss_ext_sales_price) as ext_price
from date_dim, store_sales, item, store
where d_date_sk = ss_sold_date_sk and ss_item_sk = i_item_sk
  and i_manager_id = 8 and d_moy = 11 and d_year = 1999
  and ss_store_sk = s_store_sk
group by i_brand_id, i_brand
order by ext_price desc, i_brand_id
limit 100`},
		{ID: "q42", SQL: `
select d_year, i_category, sum(ss_ext_sales_price) as total
from date_dim, store_sales, item
where d_date_sk = ss_sold_date_sk and ss_item_sk = i_item_sk
  and i_manager_id = 1 and d_moy = 11 and d_year = 2000
group by d_year, i_category
order by total desc, d_year
limit 100`},
		{ID: "q52", SQL: `
select d_year, i_brand_id, i_brand, sum(ss_ext_sales_price) as ext_price
from date_dim, store_sales, item
where d_date_sk = ss_sold_date_sk and ss_item_sk = i_item_sk
  and i_manager_id = 1 and d_moy = 11 and d_year = 2000
group by d_year, i_brand_id, i_brand
order by d_year, ext_price desc
limit 100`},
		{ID: "q53", SQL: `
select i_manufact_id, sum(ss_sales_price) as sum_sales
from item, store_sales, date_dim, store
where ss_item_sk = i_item_sk and ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
  and d_qoy = 1 and d_year = 2001
  and i_category in ('Books', 'Electronics', 'Sports')
group by i_manufact_id
order by sum_sales desc, i_manufact_id
limit 100`},
		{ID: "q55", SQL: `
select i_brand_id, i_brand, sum(ss_ext_sales_price) as ext_price
from date_dim, store_sales, item
where d_date_sk = ss_sold_date_sk and ss_item_sk = i_item_sk
  and i_manager_id = 28 and d_moy = 11 and d_year = 1999
group by i_brand_id, i_brand
order by ext_price desc, i_brand_id
limit 100`},
		{ID: "q63", SQL: `
select i_manager_id, sum(ss_sales_price) as sum_sales
from item, store_sales, date_dim, store
where ss_item_sk = i_item_sk and ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
  and d_moy = 1 and d_year = 2000
  and i_category in ('Books', 'Children', 'Electronics')
  and i_class in ('accessories', 'classical', 'fiction')
group by i_manager_id
order by sum_sales desc, i_manager_id
limit 100`},
		{ID: "q89", SQL: `
select i_category, i_class, d_moy, sum(ss_sales_price) as sum_sales
from item, store_sales, date_dim, store
where ss_item_sk = i_item_sk and ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
  and d_year = 2001
  and i_category in ('Books', 'Electronics', 'Sports')
group by i_category, i_class, d_moy
order by sum_sales, i_category
limit 100`},
		{ID: "q96", SQL: `
select count(*) as cnt
from store_sales, date_dim, store
where ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
  and d_dom between 1 and 3 and d_year = 2000
  and s_state = 'TN'`},
		{ID: "q98", SQL: `
select i_category, i_class, sum(ss_ext_sales_price) as itemrevenue
from store_sales, item, date_dim
where ss_item_sk = i_item_sk and ss_sold_date_sk = d_date_sk
  and i_category in ('Jewelry', 'Sports', 'Books')
  and d_year = 2001 and d_moy between 1 and 2
group by i_category, i_class
order by i_category, i_class
limit 100`},
		{ID: "promo", SQL: `
select p_channel_event, sum(ss_net_profit) as profit, count(*) as cnt
from store_sales, promotion, date_dim
where ss_promo_sk = p_promo_sk and ss_sold_date_sk = d_date_sk
  and p_channel_email = 'Y' and d_year = 2000
group by p_channel_event
order by profit desc`},
		{ID: "q6", SQL: `
select c_birth_year, count(*) as cnt
from store_sales, customer, date_dim
where ss_customer_sk = c_customer_sk and ss_sold_date_sk = d_date_sk
  and d_year = 2001 and d_moy = 1
group by c_birth_year
having count(*) > 5
order by cnt desc, c_birth_year
limit 100`},
		{ID: "q13", SQL: `
select avg(ss_quantity) as aq, avg(ss_ext_sales_price) as ap, sum(ss_net_profit) as np
from store_sales, store, date_dim
where ss_store_sk = s_store_sk and ss_sold_date_sk = d_date_sk
  and d_year = 2001
  and ((ss_quantity between 1 and 20 and ss_list_price between 10 and 60)
    or (ss_quantity between 21 and 40 and ss_list_price between 60 and 110)
    or (ss_quantity between 41 and 60 and ss_list_price between 110 and 160))`},
		{ID: "q27", SQL: `
select i_category, s_state, avg(ss_quantity) as agg1, avg(ss_list_price) as agg2
from store_sales, date_dim, store, item
where ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk and ss_item_sk = i_item_sk
  and d_year = 2002 and s_state in ('TN', 'CA')
group by i_category, s_state
order by i_category, s_state
limit 100`},
		{ID: "q36", SQL: `
select i_category, i_class, sum(ss_net_profit) / sum(ss_ext_sales_price) as gross_margin
from store_sales, date_dim, item, store
where ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk and ss_store_sk = s_store_sk
  and d_year = 2001 and s_state in ('TN', 'TX')
group by i_category, i_class
order by gross_margin
limit 100`},
		{ID: "q43", SQL: `
select s_store_name, sum(ss_sales_price) as sales
from date_dim, store_sales, store
where d_date_sk = ss_sold_date_sk and ss_store_sk = s_store_sk
  and d_year = 2000
group by s_store_name
order by sales desc, s_store_name
limit 100`},
		{ID: "q48", SQL: `
select sum(ss_quantity) as total
from store_sales, store, date_dim
where ss_store_sk = s_store_sk and ss_sold_date_sk = d_date_sk
  and d_year = 2001
  and ((ss_sales_price between 50 and 100 and ss_quantity between 1 and 50)
    or (ss_sales_price between 100 and 150 and ss_quantity between 51 and 100))`},
		{ID: "q79", SQL: `
select s_store_name, d_moy, sum(ss_net_profit) as profit
from store_sales, date_dim, store
where ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
  and d_year = 1999 and s_state = 'CA'
group by s_store_name, d_moy
order by profit desc
limit 100`},
		{ID: "q88", SQL: `
select count(*) as h1, sum(case when d_dom between 1 and 10 then 1 else 0 end) as early,
       sum(case when d_dom between 21 and 31 then 1 else 0 end) as late
from store_sales, date_dim, store
where ss_sold_date_sk = d_date_sk and ss_store_sk = s_store_sk
  and d_year = 2002 and s_state = 'WA'`},
	}
}
