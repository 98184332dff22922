package engine

import (
	"fmt"
	"slices"

	"github.com/predcache/predcache/internal/bloom"
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

// joinTable is the build side of the hash join: a chained hash table,
// optionally split into hash partitions for the parallel build. Each
// partition's keyTable gives every distinct key a chain id; heads/tails
// index the chain and next links build rows in ascending row order, so
// probing enumerates duplicate build keys exactly as the serial insertion
// order would.
type joinTable struct {
	pshift uint // partition of a key hash: hash >> pshift (64: one partition)
	parts  []joinPart
	next   []int32 // build row -> next build row with the same key, -1 ends
}

// joinPart is one hash partition of the build table. In the parallel build
// every build row belongs to exactly one partition, so partition workers
// write disjoint chains (and disjoint next entries) without locks.
type joinPart struct {
	keys  keyTable // key -> chain id
	heads []int32
	tails []int32
}

// init pre-sizes the partition's key table and chain arenas for n build
// rows (cardinality is known exactly once the build input has
// materialized).
func (p *joinPart) init(width, n int) {
	p.keys = newKeyTable(width, n)
	p.heads = make([]int32, 0, n)
	p.tails = make([]int32, 0, n)
}

// insert appends build row to the chain of its key in partition p.
func (jt *joinTable) insert(p *joinPart, k keyCols, row int) {
	jt.next[row] = -1
	ci, added := p.keys.findOrAdd(k, row, k.hash(row))
	if added {
		p.heads = append(p.heads, int32(row))
		p.tails = append(p.tails, int32(row))
		return
	}
	jt.next[p.tails[ci]] = int32(row)
	p.tails[ci] = int32(row)
}

// first returns the first build row matching probe row's key, or -1. The
// caller walks the rest of the chain through jt.next.
func (jt *joinTable) first(k keyCols, row int) int32 {
	h := k.hash(row)
	p := &jt.parts[h>>jt.pshift]
	if ci := p.keys.find(k, row, h); ci >= 0 {
		return p.heads[ci]
	}
	return -1
}

// buildJoinTable builds the chained hash table over rel's key columns with
// up to pa.workers workers. A large parallel build hash-partitions: pass 1
// computes every row's partition morsel-parallel, counting each morsel's
// rows per partition, and pass 2 has partition workers size each partition
// for exactly its rows and insert them in ascending row order. A small or
// single-worker build is pass 2 of one partition, run inline. Per-key chain
// order is the serial insertion order either way, so parallel and Serial
// joins return bit-identical results.
func buildJoinTable(ec *ExecCtx, rel *Relation, k keyCols, pa *parAccounting) (*joinTable, error) {
	n := rel.NumRows()
	nParts := 1
	if pa.workers > 1 && n >= 2*morselSize {
		nParts = partitionsFor(pa.workers)
	}
	jt := &joinTable{pshift: partShift(nParts), parts: make([]joinPart, nParts), next: make([]int32, n)}
	if nParts == 1 {
		return jt, jt.fill(ec, k, 0, n, nil)
	}

	// Pass 1: each row's partition and each morsel's partition counts,
	// morsel-parallel.
	nm := numMorsels(n)
	partOf := make([]uint8, n)
	counts := make([]int32, nm*nParts) // morsel m's rows per partition at counts[m*nParts:]
	cur := &taskCursor{n: nm}
	err := pa.run(pa.workers, func() error {
		return forEachTask(ec, cur, func(m int) error {
			// Count on the stack: neighbouring morsels' counts share cache
			// lines, and another worker may be counting one of them.
			var count [maxPartitions]int32
			lo, hi := morselRows(m, n)
			for row := lo; row < hi; row++ {
				p := uint8(k.hash(row) >> jt.pshift)
				partOf[row] = p
				count[p]++
			}
			copy(counts[m*nParts:], count[:nParts])
			return nil
		})
	})
	pa.morsels += nm
	if err != nil {
		return nil, err
	}

	// Pass 2: partition workers claim partitions and fill them.
	pcur := &taskCursor{n: nParts}
	err = pa.run(pa.workers, func() error {
		return forEachTask(ec, pcur, func(pi int) error {
			rows := 0
			for m := 0; m < nm; m++ {
				rows += int(counts[m*nParts+pi])
			}
			return jt.fill(ec, k, pi, rows, partOf)
		})
	})
	return jt, err
}

// fill sizes partition pi for its rows build rows and inserts them in
// ascending row order: the rows partOf maps to pi, or every row when partOf
// is nil (one partition). Scanning the byte-sized partition map is cheap
// next to the hash inserts it feeds.
func (jt *joinTable) fill(ec *ExecCtx, k keyCols, pi, rows int, partOf []uint8) error {
	part := &jt.parts[pi]
	part.init(len(k), rows)
	pb := uint8(pi)
	for row := range jt.next {
		if row&(cancelCheckRows-1) == 0 {
			if err := ec.Cancelled(); err != nil {
				return err
			}
		}
		if partOf == nil || partOf[row] == pb {
			jt.insert(part, k, row)
		}
	}
	return nil
}

// joinChain is the maximal left-deep chain of joins under a Join: each
// level whose Left is directly a *Join, bottom first. Level 0 probes the
// chain's input relation, level l > 0 the tuples leaving level l-1. A tuple
// holds one row per source: source 0 is the input relation, source l+1
// level l's build relation.
type joinChain struct {
	levels []chainLevel
	out    []chainCol // the top level's output columns
	// After the probe: the tuples leaving the top, per probe morsel, and
	// their prefix sum, morsel m's tuples being output positions offs[m]
	// up to offs[m+1]; the probe's worker count and counters.
	tuples  [][][]int32
	offs    []int
	workers int
	pa      parAccounting
}

func newJoinChain(j *Join) *joinChain {
	c := &joinChain{}
	for n := j; n != nil; n, _ = n.Left.(*Join) {
		c.levels = append(c.levels, chainLevel{j: n})
	}
	slices.Reverse(c.levels)
	return c
}

// chainLevel's keys read the probe key words of the input relation at level
// 0, above it of vectors each morsel gathers from the keySrc columns. carry
// marks the sources whose rows the tuples leaving the level keep: those a
// key or output column above reads.
type chainLevel struct {
	j         *Join
	sp        obs.SpanRef
	jt        *joinTable
	buildCols []*RelCol
	keys      keyCols
	keySrc    []chainCol
	carry     []bool
}

// chainCol is a column of a chain level's output: a column of source src,
// or, when matched is set, the __matched marker of level src-1.
type chainCol struct {
	*RelCol
	src     int
	matched bool
}

// resolve names every level's output columns, as materializing each level
// would, binds each level's probe keys to the columns they read, and
// decides which sources each level's tuples carry.
func (c *joinChain) resolve(in *Relation, builds []*Relation) error {
	var cols []chainCol
	byName := func(name string) int {
		return slices.IndexFunc(cols, func(c chainCol) bool { return c.Name == name })
	}
	addCols := func(rel *Relation, src int) {
		for i := 0; i < rel.NumCols(); i++ {
			if byName(rel.Col(i).Name) < 0 { // else shadowed, typically by the join key
				cols = append(cols, chainCol{RelCol: rel.Col(i), src: src})
			}
		}
	}
	addCols(in, 0)
	for l := range c.levels {
		lv := &c.levels[l]
		probeCols := make([]*RelCol, len(lv.j.LeftKeys))
		for _, name := range lv.j.LeftKeys {
			ci := byName(name)
			if ci < 0 || cols[ci].matched {
				return fmt.Errorf("engine: join key %q not found", name)
			}
			kc := cols[ci]
			probeCols[len(lv.keySrc)] = kc.RelCol
			lv.keySrc = append(lv.keySrc, kc)
			lv.keys = append(lv.keys, keyCol{ints: kc.Ints, floats: kc.Floats, float: kc.Type == storage.Float64})
		}
		if err := matchKeys(lv.keys, probeCols, lv.buildCols); err != nil {
			return err
		}
		if lv.j.Type == InnerJoin || lv.j.Type == LeftOuterJoin {
			addCols(builds[l], l+1)
		}
		if lv.j.Type == LeftOuterJoin {
			cols = append(cols, chainCol{RelCol: &RelCol{Name: "__matched", Type: storage.Int64}, src: l + 1, matched: true})
		}
		if lv.j.Project != nil {
			kept := make([]chainCol, len(lv.j.Project))
			for i, name := range lv.j.Project {
				ci := byName(name)
				if ci < 0 {
					return fmt.Errorf("engine: join has no column %q", name)
				}
				kept[i] = cols[ci]
			}
			cols = kept
		}
	}
	c.out = cols
	need := make([]bool, len(c.levels)+1)
	for _, oc := range c.out {
		need[oc.src] = true
	}
	for l := len(c.levels) - 1; l >= 0; l-- {
		c.levels[l].carry = slices.Clone(need[:l+2])
		for _, kc := range c.levels[l].keySrc {
			need[kc.src] = true
		}
	}
	return nil
}

// probeLevel matches n tuples, tuple t's key at row rows[t] of k (row t
// when rows is nil), against a level's hash table. par receives each output
// tuple's input tuple, bld (inner and left outer) its build row, -1 when
// unmatched. Input order is kept and duplicate keys enumerate in build-row
// order, so the output does not depend on morsel boundaries.
func probeLevel(typ JoinType, jt *joinTable, k keyCols, rows []int, n int, par, bld []int32) ([]int32, []int32) {
	for t := 0; t < n; t++ {
		row := t
		if rows != nil {
			row = rows[t]
		}
		r := jt.first(k, row)
		switch {
		case typ == SemiJoin || typ == AntiJoin:
			if (r >= 0) == (typ == SemiJoin) {
				par = append(par, int32(t))
			}
		case r < 0:
			if typ == LeftOuterJoin {
				par = append(par, int32(t))
				bld = append(bld, -1)
			}
		default:
			for ; r >= 0; r = jt.next[r] {
				par = append(par, int32(t))
				bld = append(bld, r)
			}
		}
	}
	return par, bld
}

// morselTuples passes one morsel's selected probe rows through every level,
// in the worker's scratch, and returns the tuples leaving the top, exactly
// sized: a row list per source, nil for one nothing above reads. counts[l]
// receives the number of tuples leaving level l.
func (c *joinChain) morselTuples(scr *morselScratch, sel []int, counts []int) [][]int32 {
	var in [][]int32
	n := len(sel)
	for l := 0; l < len(c.levels) && n > 0; l++ {
		lv := &c.levels[l]
		k, rows := lv.keys, sel
		if l > 0 {
			k, rows = append(scr.keys[:0], lv.keys...), nil
			scr.keys = k
			for i, kc := range lv.keySrc {
				if kc.Type == storage.Float64 {
					k[i].floats = slot(&scr.kfloats, i, n)
					gatherRows(k[i].floats, kc.Floats, in[kc.src])
				} else {
					k[i].ints = slot(&scr.kints, i, n)
					gatherRows(k[i].ints, kc.Ints, in[kc.src])
				}
			}
		}
		out := &scr.lists[l&1]
		par, bld := probeLevel(lv.j.Type, lv.jt, k, rows, n, scr.par[:0], slot(out, l+1, 0))
		scr.par, (*out)[l+1] = par, bld
		n = len(par)
		counts[l] = n
		for s := 0; s <= l; s++ {
			if !lv.carry[s] {
				continue
			}
			dst := slot(out, s, n)
			for i, p := range par {
				if l == 0 {
					dst[i] = int32(sel[p])
				} else {
					dst[i] = in[s][p]
				}
			}
		}
		in = *out
	}
	if n == 0 {
		return nil
	}
	res := make([][]int32, len(c.levels)+1)
	for s, keep := range c.levels[len(c.levels)-1].carry {
		if keep {
			res[s] = slices.Clone(in[s])
		}
	}
	return res
}

// gatherRows writes src's value at each of rows into dst, 0 for a -1 row
// (an unmatched left outer tuple), as a materialized join output holds it.
func gatherRows[T int64 | float64](dst, src []T, rows []int32) {
	for i, r := range rows {
		if r >= 0 {
			dst[i] = src[r]
		} else {
			dst[i] = 0
		}
	}
}

// gatherInts writes oc's value for the tuple of each of rows (rows of oc's
// source) to dst; the __matched marker is 1 for a matched row.
func (oc *chainCol) gatherInts(dst []int64, rows []int32) {
	if !oc.matched {
		gatherRows(dst, oc.Ints, rows)
		return
	}
	for i, r := range rows {
		dst[i] = 0
		if r >= 0 {
			dst[i] = 1
		}
	}
}

// gatherOut writes one morsel's rows of oc's source into dst's disjoint
// region from base on.
func gatherOut(dst *RelCol, oc *chainCol, rows []int32, base int) {
	if oc.Type == storage.Float64 {
		gatherRows(dst.Floats[base:], oc.Floats, rows)
	} else {
		oc.gatherInts(dst.Ints[base:], rows)
	}
}

// probeChain runs the maximal left-deep chain of joins rooted at j up to
// the tuples leaving its top (morsel-driven, Leis et al. 2014). Top-down,
// each level builds its hash table on Right and, when enabled, pushes a
// Bloom filter of its build keys into the probe-side base-table scan, whose
// cache entry then keys on it (§4.4, Figure 12). The chain's input runs
// once, and each probe morsel passes through every level. Build and probe
// are morsel-parallel under ExecCtx.MaxWorkers; Filters directly under the
// chain's input stream as per-morsel selection vectors instead of
// materializing. When it returns without error every level's span but the
// top's has ended: the caller consumes the tuples, then publishes c.pa to
// the top span and ends it.
func (j *Join) probeChain(ec *ExecCtx) (_ *joinChain, err error) {
	c := newJoinChain(j)
	top := len(c.levels) - 1
	defer func() { // spans not begun, or ended already, are zero
		if err != nil {
			for l := range c.levels {
				endNodeSpan(c.levels[l].sp, nil, err)
			}
		}
	}()
	builds := make([]*Relation, len(c.levels))
	pa := &c.pa
	for l := top; l >= 0; l-- {
		lv := &c.levels[l]
		lv.sp = beginNodeSpan(ec, lv.j)
		if err = ec.Cancelled(); err != nil {
			return nil, err
		}
		if builds[l], err = lv.j.Right.Execute(ec); err != nil {
			return nil, err
		}
		if len(lv.j.LeftKeys) != len(lv.j.RightKeys) || len(lv.j.LeftKeys) == 0 {
			return nil, fmt.Errorf("engine: join needs matching key lists")
		}
		var buildKeys keyCols
		if lv.buildCols, buildKeys, err = relKeyCols(builds[l], lv.j.RightKeys, "join key"); err != nil {
			return nil, err
		}
		workers := pa.workers
		pa.workers = ec.workers(builds[l].NumRows())
		lv.jt, err = buildJoinTable(ec, builds[l], buildKeys, pa)
		pa.workers = max(pa.workers, workers)
		if err != nil {
			return nil, err
		}
		if s := lv.j.pushSemiJoin(ec, builds[l]); s != nil {
			defer func() { s.runtimeSJ = s.runtimeSJ[:len(s.runtimeSJ)-1] }()
		}
	}

	bottom := &c.levels[0]
	inNode, fusedPreds := fusedFilterInput(bottom.j.Left)
	in, err := inNode.Execute(ec)
	if err != nil {
		return nil, err
	}
	if err = c.resolve(in, builds); err != nil {
		return nil, err
	}
	bounds, err := bindFused(fusedPreds, in)
	if err != nil {
		return nil, err
	}
	if len(bounds) > 0 {
		bottom.sp.SetInt("filters.fused", int64(len(bounds)))
	}

	// Probe over morsels pulled from a shared cursor.
	c.workers = ec.workers(in.NumRows())
	pa.workers = max(pa.workers, c.workers)
	nm, nl := numMorsels(in.NumRows()), len(c.levels)
	c.tuples = make([][][]int32, nm)
	counts := make([]int, nm*nl) // morsel m's tuples leaving level l at m*nl+l
	cur := &taskCursor{n: nm}
	err = pa.run(c.workers, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		ctx := scr.relCtx(in, 0, in.n)
		return forEachTask(ec, cur, func(m int) error {
			lo, hi := morselRows(m, in.NumRows())
			c.tuples[m] = c.morselTuples(scr, morselSel(scr, ctx, bounds, lo, hi), counts[m*nl:][:nl])
			return nil
		})
	})
	pa.morsels += nm
	if err != nil {
		return nil, err
	}
	// The levels below the top end here, holding the probe time.
	for l := 0; l < top; l++ {
		rows := 0
		for i := l; i < len(counts); i += nl {
			rows += counts[i]
		}
		c.levels[l].sp.SetInt("rows.out", int64(rows))
		c.levels[l].sp.End()
		c.levels[l].sp = obs.SpanRef{}
	}
	// Morsel tuple counts prefix-sum into the chain's output positions.
	c.offs = make([]int, nm+1)
	for m := 0; m < nm; m++ {
		c.offs[m+1] = c.offs[m] + counts[m*nl+top]
	}
	return c, nil
}

// Execute runs the chain of joins rooted at j (probeChain) and gathers each
// output column once, from its source, into exact-size columns: the probe
// morsels' tuples fill disjoint regions, so the gather is morsel-parallel.
func (j *Join) Execute(ec *ExecCtx) (rel *Relation, err error) {
	c, err := j.probeChain(ec)
	if err != nil {
		return nil, err
	}
	sp := c.levels[len(c.levels)-1].sp
	defer func() { endNodeSpan(sp, rel, err) }()
	nm, offs := len(c.tuples), c.offs
	cols := make([]RelCol, len(c.out))
	for i, oc := range c.out {
		cols[i] = RelCol{Name: oc.Name, Type: oc.Type, Dict: oc.Dict}
	}
	sizeCols(cols, offs[nm])
	gcur := &taskCursor{n: nm}
	err = c.pa.run(c.workers, func() error {
		return forEachTask(ec, gcur, func(m int) error {
			for i, oc := range c.out {
				if offs[m+1] > offs[m] {
					gatherOut(&cols[i], &oc, c.tuples[m][oc.src], offs[m])
				}
			}
			return nil
		})
	})
	c.pa.morsels += nm
	if err != nil {
		return nil, err
	}
	c.pa.finish(ec, sp)
	return NewRelation(cols)
}

// A join chain is an expr.Source over its output columns, named as the
// relation it would materialize.
func (c *joinChain) Name() string { return "relation" }
func (c *joinChain) ColumnIndex(name string) int {
	return slices.IndexFunc(c.out, func(oc chainCol) bool { return oc.Name == name })
}
func (c *joinChain) ColumnType(i int) storage.ColumnType { return c.out[i].Type }
func (c *joinChain) Dict(i int) *storage.Dict            { return c.out[i].Dict }

// pushSemiJoin pushes a Bloom filter of build's join keys into the base
// scan feeding j's probe side, through any inner joins (star schemas push
// one filter per dimension onto the fact scan), and returns that scan for
// the caller to pop the filter from, or nil when j pushes nothing.
func (j *Join) pushSemiJoin(ec *ExecCtx, build *Relation) *Scan {
	probeScan := baseProbeScan(j.Left)
	if !j.PushSemiJoin || probeScan == nil || len(j.LeftKeys) != 1 ||
		(j.Type != InnerJoin && j.Type != SemiJoin) {
		return nil
	}
	// The key must be a base column of the probe scan's table, and not a
	// float: float join keys get no Bloom filter.
	keyCol := build.ColByName(j.RightKeys[0])
	if tbl, ok := ec.Catalog.Table(probeScan.Table); !ok ||
		tbl.ColumnIndex(probeKeyName(probeScan, j.LeftKeys[0])) < 0 || keyCol.Type == storage.Float64 {
		return nil
	}
	sj := &semiJoinFilter{
		keyCol:     probeKeyName(probeScan, j.LeftKeys[0]),
		filter:     bloom.New(build.NumRows(), 0.01),
		stringKeys: keyCol.Type == storage.String,
	}
	for row := 0; row < build.NumRows(); row++ {
		if sj.stringKeys {
			sj.filter.Add(hashString(keyCol.Dict.Value(keyCol.Ints[row])))
		} else {
			sj.filter.AddInt(keyCol.Ints[row])
		}
	}
	if desc, deps, ok := j.Right.CacheDescriptor(ec); ok {
		sj.cacheable, sj.deps = true, deps
		sj.sjKey = core.SemiJoinKey{JoinPred: "(= " + j.LeftKeys[0] + " " + j.RightKeys[0] + ")", BuildKey: desc}
	}
	probeScan.runtimeSJ = append(probeScan.runtimeSJ, sj)
	return probeScan
}

// baseProbeScan descends to the base-table scan feeding the probe side,
// crossing only row-preserving or row-filtering operators (inner/semi joins
// keep fact-row key values intact; filters only remove rows), so a Bloom
// filter on a base column remains a sound necessary condition.
func baseProbeScan(n Node) *Scan {
	switch t := n.(type) {
	case *Scan:
		return t
	case *Join:
		if t.Type == InnerJoin || t.Type == SemiJoin {
			return baseProbeScan(t.Left)
		}
	case *Filter:
		return baseProbeScan(t.Input)
	}
	return nil
}

// probeKeyName maps a join key name back to the base-table column name when
// the probe scan uses an alias.
func probeKeyName(s *Scan, key string) string {
	if s.Alias != "" {
		prefix := s.Alias + "."
		if len(key) > len(prefix) && key[:len(prefix)] == prefix {
			return key[len(prefix):]
		}
	}
	return key
}
