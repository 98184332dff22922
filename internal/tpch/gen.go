// Package tpch implements a from-scratch TPC-H data generator — uniform, as
// the standard dbgen produces, and a skewed variant standing in for the
// paper's skewed TPC-H generator [3] — plus all 22 benchmark queries
// expressed in this repository's SQL subset (documented per-query
// simplifications in queries.go).
//
// The skewed variant differs from uniform in two ways that matter to the
// predicate cache: foreign keys, quantities and discounts follow Zipf
// distributions (hot values dominate), and orders are emitted in order-date
// order, modelling a warehouse ingesting data over time. The combination
// concentrates the rows qualifying for selective predicates into few blocks,
// which is the property Table 4 of the paper depends on ("predicate caching
// performs better on data sets with a more uneven distribution").
package tpch

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/predcache/predcache/internal/storage"
)

// Config controls generation.
type Config struct {
	// SF is the scale factor: lineitem has roughly SF * 6M rows.
	SF float64
	// Skewed selects the skewed generator variant.
	Skewed bool
	// Seed makes generation deterministic.
	Seed int64
}

// Data is a generated database.
type Data struct {
	Cfg     Config
	Batches map[string]*storage.Batch
}

// Regions and nations follow the TPC-H specification.
var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nations = []struct {
	name   string
	region int64
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1}, {"EGYPT", 4},
	{"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3}, {"INDIA", 2}, {"INDONESIA", 2},
	{"IRAN", 4}, {"IRAQ", 4}, {"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0},
	{"MOROCCO", 0}, {"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var colors = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched",
	"blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate",
	"coral", "cornflower", "cream", "cyan", "dark", "deep", "dim", "dodger",
	"drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
	"green", "grey", "honeydew", "hot", "indian", "ivory", "khaki", "lace",
}

var (
	typeSyl1   = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2   = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3   = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers = []string{"SM", "MED", "LG", "JUMBO", "WRAP"}
	containerT = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
)

// Table row counts at scale factor 1 (lineitem is derived from orders).
func counts(sf float64) map[string]int {
	scale := func(base int, min int) int {
		n := int(float64(base) * sf)
		if n < min {
			n = min
		}
		return n
	}
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": scale(10000, 20),
		"part":     scale(200000, 200),
		"customer": scale(150000, 100),
		"orders":   scale(1500000, 1000),
	}
}

// Schemas returns the TPC-H table schemas (decimal columns as float64,
// dates as day numbers).
func Schemas() map[string]storage.Schema {
	return map[string]storage.Schema{
		"region": {
			{Name: "r_regionkey", Type: storage.Int64},
			{Name: "r_name", Type: storage.String},
		},
		"nation": {
			{Name: "n_nationkey", Type: storage.Int64},
			{Name: "n_name", Type: storage.String},
			{Name: "n_regionkey", Type: storage.Int64},
		},
		"supplier": {
			{Name: "s_suppkey", Type: storage.Int64},
			{Name: "s_name", Type: storage.String},
			{Name: "s_nationkey", Type: storage.Int64},
			{Name: "s_acctbal", Type: storage.Float64},
		},
		"part": {
			{Name: "p_partkey", Type: storage.Int64},
			{Name: "p_name", Type: storage.String},
			{Name: "p_mfgr", Type: storage.String},
			{Name: "p_brand", Type: storage.String},
			{Name: "p_type", Type: storage.String},
			{Name: "p_size", Type: storage.Int64},
			{Name: "p_container", Type: storage.String},
			{Name: "p_retailprice", Type: storage.Float64},
		},
		"partsupp": {
			{Name: "ps_partkey", Type: storage.Int64},
			{Name: "ps_suppkey", Type: storage.Int64},
			{Name: "ps_availqty", Type: storage.Int64},
			{Name: "ps_supplycost", Type: storage.Float64},
		},
		"customer": {
			{Name: "c_custkey", Type: storage.Int64},
			{Name: "c_name", Type: storage.String},
			{Name: "c_nationkey", Type: storage.Int64},
			{Name: "c_acctbal", Type: storage.Float64},
			{Name: "c_mktsegment", Type: storage.String},
		},
		"orders": {
			{Name: "o_orderkey", Type: storage.Int64},
			{Name: "o_custkey", Type: storage.Int64},
			{Name: "o_orderstatus", Type: storage.String},
			{Name: "o_totalprice", Type: storage.Float64},
			{Name: "o_orderdate", Type: storage.Date},
			{Name: "o_orderpriority", Type: storage.String},
			{Name: "o_shippriority", Type: storage.Int64},
		},
		"lineitem": {
			{Name: "l_orderkey", Type: storage.Int64},
			{Name: "l_partkey", Type: storage.Int64},
			{Name: "l_suppkey", Type: storage.Int64},
			{Name: "l_linenumber", Type: storage.Int64},
			{Name: "l_quantity", Type: storage.Int64},
			{Name: "l_extendedprice", Type: storage.Float64},
			{Name: "l_discount", Type: storage.Float64},
			{Name: "l_tax", Type: storage.Float64},
			{Name: "l_returnflag", Type: storage.String},
			{Name: "l_linestatus", Type: storage.String},
			{Name: "l_shipdate", Type: storage.Date},
			{Name: "l_commitdate", Type: storage.Date},
			{Name: "l_receiptdate", Type: storage.Date},
			{Name: "l_shipinstruct", Type: storage.String},
			{Name: "l_shipmode", Type: storage.String},
		},
	}
}

// pick draws either uniformly or Zipf-skewed over [0, n).
type picker struct {
	r      *rand.Rand
	skewed bool
	zipfs  map[int]*rand.Zipf
}

func newPicker(r *rand.Rand, skewed bool) *picker {
	return &picker{r: r, skewed: skewed, zipfs: make(map[int]*rand.Zipf)}
}

func (p *picker) pick(n int) int64 {
	if !p.skewed || n < 2 {
		return int64(p.r.Intn(n))
	}
	z, ok := p.zipfs[n]
	if !ok {
		z = rand.NewZipf(p.r, 1.3, 1, uint64(n-1))
		p.zipfs[n] = z
	}
	return int64(z.Uint64())
}

// Generate builds all eight tables deterministically.
func Generate(cfg Config) *Data {
	r := rand.New(rand.NewSource(cfg.Seed))
	pk := newPicker(r, cfg.Skewed)
	cnt := counts(cfg.SF)
	schemas := Schemas()
	d := &Data{Cfg: cfg, Batches: make(map[string]*storage.Batch)}

	// region
	rb := storage.NewBatch(schemas["region"])
	for i, name := range regionNames {
		rb.Cols[0].Ints = append(rb.Cols[0].Ints, int64(i))
		rb.Cols[1].Strings = append(rb.Cols[1].Strings, name)
	}
	rb.N = len(regionNames)
	d.Batches["region"] = rb

	// nation
	nb := storage.NewBatch(schemas["nation"])
	for i, n := range nations {
		nb.Cols[0].Ints = append(nb.Cols[0].Ints, int64(i))
		nb.Cols[1].Strings = append(nb.Cols[1].Strings, n.name)
		nb.Cols[2].Ints = append(nb.Cols[2].Ints, n.region)
	}
	nb.N = len(nations)
	d.Batches["nation"] = nb

	// supplier
	nSupp := cnt["supplier"]
	sb := storage.NewBatch(schemas["supplier"])
	for i := 0; i < nSupp; i++ {
		sb.Cols[0].Ints = append(sb.Cols[0].Ints, int64(i+1))
		sb.Cols[1].Strings = append(sb.Cols[1].Strings, fmt.Sprintf("Supplier#%09d", i+1))
		sb.Cols[2].Ints = append(sb.Cols[2].Ints, pk.pick(25))
		sb.Cols[3].Floats = append(sb.Cols[3].Floats, float64(r.Intn(1099999))/100-999.99)
	}
	sb.N = nSupp
	d.Batches["supplier"] = sb

	// part
	nPart := cnt["part"]
	pb := storage.NewBatch(schemas["part"])
	for i := 0; i < nPart; i++ {
		pb.Cols[0].Ints = append(pb.Cols[0].Ints, int64(i+1))
		c1 := colors[r.Intn(len(colors))]
		c2 := colors[r.Intn(len(colors))]
		pb.Cols[1].Strings = append(pb.Cols[1].Strings, c1+" "+c2)
		m := r.Intn(5) + 1
		pb.Cols[2].Strings = append(pb.Cols[2].Strings, fmt.Sprintf("Manufacturer#%d", m))
		pb.Cols[3].Strings = append(pb.Cols[3].Strings, fmt.Sprintf("Brand#%d%d", m, r.Intn(5)+1))
		pb.Cols[4].Strings = append(pb.Cols[4].Strings,
			typeSyl1[pk.pick(len(typeSyl1))]+" "+typeSyl2[r.Intn(len(typeSyl2))]+" "+typeSyl3[r.Intn(len(typeSyl3))])
		pb.Cols[5].Ints = append(pb.Cols[5].Ints, pk.pick(50)+1)
		pb.Cols[6].Strings = append(pb.Cols[6].Strings,
			containers[r.Intn(len(containers))]+" "+containerT[r.Intn(len(containerT))])
		pb.Cols[7].Floats = append(pb.Cols[7].Floats, 900+float64((i+1)%200)+float64(r.Intn(100))/100)
	}
	pb.N = nPart
	d.Batches["part"] = pb

	// partsupp: 4 suppliers per part.
	psb := storage.NewBatch(schemas["partsupp"])
	for i := 0; i < nPart; i++ {
		for j := 0; j < 4; j++ {
			psb.Cols[0].Ints = append(psb.Cols[0].Ints, int64(i+1))
			psb.Cols[1].Ints = append(psb.Cols[1].Ints, int64((i+j*(nSupp/4+1))%nSupp+1))
			psb.Cols[2].Ints = append(psb.Cols[2].Ints, int64(r.Intn(9999)+1))
			psb.Cols[3].Floats = append(psb.Cols[3].Floats, float64(r.Intn(100000))/100+1)
		}
	}
	psb.N = nPart * 4
	d.Batches["partsupp"] = psb

	// customer
	nCust := cnt["customer"]
	cb := storage.NewBatch(schemas["customer"])
	for i := 0; i < nCust; i++ {
		cb.Cols[0].Ints = append(cb.Cols[0].Ints, int64(i+1))
		cb.Cols[1].Strings = append(cb.Cols[1].Strings, fmt.Sprintf("Customer#%09d", i+1))
		cb.Cols[2].Ints = append(cb.Cols[2].Ints, pk.pick(25))
		cb.Cols[3].Floats = append(cb.Cols[3].Floats, float64(r.Intn(1099999))/100-999.99)
		cb.Cols[4].Strings = append(cb.Cols[4].Strings, segments[pk.pick(len(segments))])
	}
	cb.N = nCust
	d.Batches["customer"] = cb

	// orders + lineitem
	nOrd := cnt["orders"]
	startDate := storage.DateFromYMD(1992, 1, 1)
	endDate := storage.DateFromYMD(1998, 8, 2)
	dateSpan := int(endDate - startDate)
	cutoff := storage.DateFromYMD(1995, 6, 17)

	orderDates := make([]int64, nOrd)
	for i := range orderDates {
		if cfg.Skewed {
			// Recent dates dominate: quadratic pull toward the end of the
			// range.
			f := r.Float64()
			f = 1 - f*f
			orderDates[i] = startDate + int64(f*float64(dateSpan))
		} else {
			orderDates[i] = startDate + int64(r.Intn(dateSpan))
		}
	}
	if cfg.Skewed {
		// Warehouses ingest in arrival order: physical order follows time.
		sort.Slice(orderDates, func(a, b int) bool { return orderDates[a] < orderDates[b] })
	}

	ob := storage.NewBatch(schemas["orders"])
	lb := storage.NewBatch(schemas["lineitem"])
	lineCount := 0
	for i := 0; i < nOrd; i++ {
		okey := int64(i + 1)
		odate := orderDates[i]
		status := "O"
		if odate < cutoff-90 {
			status = "F"
		} else if odate < cutoff {
			status = "P"
		}
		ob.Cols[0].Ints = append(ob.Cols[0].Ints, okey)
		ob.Cols[1].Ints = append(ob.Cols[1].Ints, pk.pick(nCust)+1)
		ob.Cols[2].Strings = append(ob.Cols[2].Strings, status)
		ob.Cols[4].Ints = append(ob.Cols[4].Ints, odate)
		ob.Cols[5].Strings = append(ob.Cols[5].Strings, priorities[r.Intn(len(priorities))])
		ob.Cols[6].Ints = append(ob.Cols[6].Ints, 0)

		nLines := r.Intn(7) + 1
		total := 0.0
		for ln := 0; ln < nLines; ln++ {
			qty := pk.pick(50) + 1
			price := float64(qty) * (900 + float64(r.Intn(10000))/100)
			disc := float64(pk.pick(11)) / 100
			tax := float64(r.Intn(9)) / 100
			ship := odate + int64(r.Intn(121)+1)
			commit := odate + int64(r.Intn(61)+30)
			receipt := ship + int64(r.Intn(30)+1)
			flag := "N"
			if receipt <= cutoff {
				if r.Intn(2) == 0 {
					flag = "R"
				} else {
					flag = "A"
				}
			}
			lstatus := "O"
			if ship <= cutoff {
				lstatus = "F"
			}
			lb.Cols[0].Ints = append(lb.Cols[0].Ints, okey)
			lb.Cols[1].Ints = append(lb.Cols[1].Ints, pk.pick(nPart)+1)
			lb.Cols[2].Ints = append(lb.Cols[2].Ints, pk.pick(nSupp)+1)
			lb.Cols[3].Ints = append(lb.Cols[3].Ints, int64(ln+1))
			lb.Cols[4].Ints = append(lb.Cols[4].Ints, qty)
			lb.Cols[5].Floats = append(lb.Cols[5].Floats, price)
			lb.Cols[6].Floats = append(lb.Cols[6].Floats, disc)
			lb.Cols[7].Floats = append(lb.Cols[7].Floats, tax)
			lb.Cols[8].Strings = append(lb.Cols[8].Strings, flag)
			lb.Cols[9].Strings = append(lb.Cols[9].Strings, lstatus)
			lb.Cols[10].Ints = append(lb.Cols[10].Ints, ship)
			lb.Cols[11].Ints = append(lb.Cols[11].Ints, commit)
			lb.Cols[12].Ints = append(lb.Cols[12].Ints, receipt)
			lb.Cols[13].Strings = append(lb.Cols[13].Strings, instructs[r.Intn(len(instructs))])
			lb.Cols[14].Strings = append(lb.Cols[14].Strings, shipModes[pk.pick(len(shipModes))])
			total += price * (1 + tax) * (1 - disc)
			lineCount++
		}
		ob.Cols[3].Floats = append(ob.Cols[3].Floats, total)
	}
	ob.N = nOrd
	lb.N = lineCount
	d.Batches["orders"] = ob
	d.Batches["lineitem"] = lb
	return d
}

// TableNames returns the TPC-H tables in dependency order.
func TableNames() []string {
	return []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"}
}

// Load creates the tables in the catalog and appends the generated data.
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

// Rows returns the generated row count of a table.
func (d *Data) Rows(table string) int { return d.Batches[table].N }
