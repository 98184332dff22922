package engine

import (
	"fmt"
	"sync/atomic"

	"github.com/predcache/predcache/internal/bloom"
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/expr"
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
// up to pa.workers workers. A single worker inserts rows 0..n-1 directly. The
// parallel build hash-partitions instead: pass 1 computes every row's
// partition morsel-parallel, pass 2 has partition workers insert their rows
// in ascending row order — per-key chain order is identical to the serial
// build, so parallel and Serial joins return bit-identical results.
func buildJoinTable(ec *ExecCtx, rel *Relation, k keyCols, pa *parAccounting) (*joinTable, error) {
	n := rel.NumRows()
	nParts := 1
	if pa.workers > 1 && n >= 2*morselSize {
		nParts = partitionsFor(pa.workers)
	}
	jt := &joinTable{pshift: partShift(nParts), parts: make([]joinPart, nParts), next: make([]int32, n)}
	if nParts == 1 {
		p := &jt.parts[0]
		p.init(len(k), n)
		for row := 0; row < n; row++ {
			if row&(cancelCheckRows-1) == 0 {
				if err := ec.Cancelled(); err != nil {
					return nil, err
				}
			}
			jt.insert(p, k, row)
		}
		return jt, nil
	}

	// Pass 1: each row's partition, morsel-parallel.
	partOf := make([]uint8, n)
	cur := &morselCursor{rows: n}
	err := pa.run(pa.workers, func() error {
		return forEachMorsel(ec, cur, func(_, lo, hi int) error {
			for row := lo; row < hi; row++ {
				partOf[row] = uint8(k.hash(row) >> jt.pshift)
			}
			return nil
		})
	})
	pa.morsels += numMorsels(n)
	if err != nil {
		return nil, err
	}

	// Pass 2: partition workers claim partitions and insert their rows in
	// ascending row order (scanning the byte-sized partition map is cheap
	// next to the hash inserts it feeds).
	var pcur atomic.Int64
	err = pa.run(pa.workers, func() error {
		for {
			pi := int(pcur.Add(1)) - 1
			if pi >= nParts {
				return nil
			}
			if err := ec.Cancelled(); err != nil {
				return err
			}
			part := &jt.parts[pi]
			part.init(len(k), n/nParts+1)
			pb := uint8(pi)
			for row := 0; row < n; row++ {
				if row&(cancelCheckRows-1) == 0 {
					if err := ec.Cancelled(); err != nil {
						return err
					}
				}
				if partOf[row] == pb {
					jt.insert(part, k, row)
				}
			}
		}
	})
	return jt, err
}

// joinMorselOut holds one probe morsel's matches: parallel probe/build row
// lists in probe-row order. build is nil for semi/anti joins; -1 marks an
// unmatched probe row in a left outer join.
type joinMorselOut struct {
	probe []int32
	build []int32
}

// probeMorsel probes one morsel's selected rows against the build table,
// appending match pairs in probe-row order with duplicate build keys in
// build-row order — the same enumeration the serial loop produces, so the
// concatenation of per-morsel outputs is the serial result. Its only
// allocations are the two output buffers, sized for one match per selected
// row; only duplicate build keys grow them.
func (j *Join) probeMorsel(jt *joinTable, k keyCols, sel []int, needBuild bool, out *joinMorselOut) {
	probe := make([]int32, 0, len(sel))
	var build []int32
	if needBuild {
		build = make([]int32, 0, len(sel))
	}
	switch j.Type {
	case InnerJoin:
		for _, row := range sel {
			for r := jt.first(k, row); r >= 0; r = jt.next[r] {
				probe = append(probe, int32(row))
				build = append(build, r)
			}
		}
	case LeftOuterJoin:
		for _, row := range sel {
			r := jt.first(k, row)
			if r < 0 {
				probe = append(probe, int32(row))
				build = append(build, -1)
				continue
			}
			for ; r >= 0; r = jt.next[r] {
				probe = append(probe, int32(row))
				build = append(build, r)
			}
		}
	case SemiJoin:
		for _, row := range sel {
			if jt.first(k, row) >= 0 {
				probe = append(probe, int32(row))
			}
		}
	case AntiJoin:
		for _, row := range sel {
			if jt.first(k, row) < 0 {
				probe = append(probe, int32(row))
			}
		}
	}
	out.probe, out.build = probe, build
}

// joinOutSpec describes one output column of the join assembly.
type joinOutSpec struct {
	src       *RelCol
	fromBuild bool
	matched   bool // the synthesized __matched marker of a left outer join
}

// copyJoinOut gathers one morsel's slice of one output column into its
// pre-allocated region of the result — morsel regions are disjoint, so
// assembly workers write without coordination.
func copyJoinOut(dst *RelCol, spec *joinOutSpec, out *joinMorselOut, base int) {
	if spec.matched {
		d := dst.Ints[base : base+len(out.probe)]
		for i, r := range out.build {
			if r >= 0 {
				d[i] = 1
			} else {
				d[i] = 0
			}
		}
		return
	}
	rows := out.probe
	if spec.fromBuild {
		rows = out.build
	}
	if spec.src.Type == storage.Float64 {
		d := dst.Floats[base : base+len(rows)]
		src := spec.src.Floats
		for i, r := range rows {
			if r >= 0 {
				d[i] = src[r]
			} else {
				d[i] = 0
			}
		}
		return
	}
	d := dst.Ints[base : base+len(rows)]
	src := spec.src.Ints
	for i, r := range rows {
		if r >= 0 {
			d[i] = src[r]
		} else {
			d[i] = 0
		}
	}
}

// Execute runs the hash join: build on Right, probe with Left. When
// enabled, a Bloom filter of the build keys is pushed into a probe-side
// base-table scan before it runs, so the scan can cache the semi-join
// result (§4.4, Figure 12). Build, probe and output assembly are
// morsel-parallel under ExecCtx.MaxWorkers; Filter nodes directly
// under the probe side stream as per-morsel selection vectors instead of
// materializing an intermediate relation.
func (j *Join) Execute(ec *ExecCtx) (rel *Relation, err error) {
	sp := beginNodeSpan(ec, j)
	defer func() { endNodeSpan(sp, rel, err) }()
	if err = ec.Cancelled(); err != nil {
		return nil, err
	}
	buildRel, err := j.Right.Execute(ec)
	if err != nil {
		return nil, err
	}
	if len(j.LeftKeys) != len(j.RightKeys) || len(j.LeftKeys) == 0 {
		return nil, fmt.Errorf("engine: join needs matching key lists")
	}
	buildCols, buildKeys, err := relKeyCols(buildRel, j.RightKeys, "join key")
	if err != nil {
		return nil, err
	}

	pa := parAccounting{workers: ec.workers(buildRel.NumRows())}
	jt, err := buildJoinTable(ec, buildRel, buildKeys, &pa)
	if err != nil {
		return nil, err
	}

	// Semi-join filter pushdown into the base probe-side scan. The probe key
	// column originates from a base table even through a chain of inner
	// joins, so the Bloom filter can sink all the way down (star schemas
	// push one filter per dimension onto the fact scan).
	probeScan := baseProbeScan(j.Left)
	pushSJ := j.PushSemiJoin && probeScan != nil &&
		len(j.LeftKeys) == 1 && (j.Type == InnerJoin || j.Type == SemiJoin)
	if pushSJ {
		// The key must be a base column of the probe scan's table.
		if tbl, ok := ec.Catalog.Table(probeScan.Table); !ok ||
			tbl.ColumnIndex(probeKeyName(probeScan, j.LeftKeys[0])) < 0 {
			pushSJ = false
		}
	}
	if pushSJ {
		keyCol := buildRel.ColByName(j.RightKeys[0])
		sj := &semiJoinFilter{keyCol: probeKeyName(probeScan, j.LeftKeys[0])}
		sj.filter = bloom.New(buildRel.NumRows(), 0.01)
		if keyCol.Type == storage.String {
			sj.stringKeys = true
			for row := 0; row < buildRel.NumRows(); row++ {
				sj.filter.Add(hashString(keyCol.Dict.Value(keyCol.Ints[row])))
			}
		} else if keyCol.Type == storage.Float64 {
			pushSJ = false // float join keys: no bloom
		} else {
			for row := 0; row < buildRel.NumRows(); row++ {
				sj.filter.AddInt(keyCol.Ints[row])
			}
		}
		if pushSJ {
			if desc, deps, ok := j.Right.CacheDescriptor(ec); ok {
				sj.cacheable = true
				sj.sjKey = core.SemiJoinKey{
					JoinPred: "(= " + j.LeftKeys[0] + " " + j.RightKeys[0] + ")",
					BuildKey: desc,
				}
				sj.deps = deps
			}
			probeScan.runtimeSJ = append(probeScan.runtimeSJ, sj)
			defer func() { probeScan.runtimeSJ = probeScan.runtimeSJ[:len(probeScan.runtimeSJ)-1] }()
		}
	}

	// Streaming path: Filter nodes directly under the probe side evaluate
	// per morsel over the shared column vectors instead of materializing.
	probeNode, fusedPreds := fusedFilterInput(j.Left)
	probeRel, err := probeNode.Execute(ec)
	if err != nil {
		return nil, err
	}
	probeCols, probeKeys, err := relKeyCols(probeRel, j.LeftKeys, "join key")
	if err != nil {
		return nil, err
	}
	if err := matchKeys(probeKeys, probeCols, buildCols); err != nil {
		return nil, err
	}
	bounds, err := bindFused(fusedPreds, probeRel)
	if err != nil {
		return nil, err
	}
	var probeCtx *expr.BlockCtx
	if len(bounds) > 0 {
		probeCtx = probeRel.blockCtx()
		if sp.Active() {
			sp.SetInt("filters.fused", int64(len(bounds)))
		}
	}

	// Probe over morsels pulled from a shared cursor.
	pn := probeRel.NumRows()
	probeWorkers := ec.workers(pn)
	pa.workers = max(pa.workers, probeWorkers)
	nm := numMorsels(pn)
	needBuild := j.Type == InnerJoin || j.Type == LeftOuterJoin
	outs := make([]joinMorselOut, nm)
	cur := &morselCursor{rows: pn}
	err = pa.run(probeWorkers, func() error {
		scr := acquireMorselScratch()
		defer scr.release()
		return forEachMorsel(ec, cur, func(m, lo, hi int) error {
			sel := morselSel(scr, probeCtx, bounds, lo, hi)
			if len(sel) == 0 {
				return nil
			}
			j.probeMorsel(jt, probeKeys, sel, needBuild, &outs[m])
			return nil
		})
	})
	pa.morsels += nm
	if err != nil {
		return nil, err
	}

	// Assemble the output: probe columns, then (for inner/left) build
	// columns not shadowing probe names, plus a __matched marker for left
	// outer joins (this engine has no NULLs; sum(__matched) recovers SQL's
	// count(build_col) semantics). Morsel match counts prefix-sum into
	// disjoint output regions, so gathering is parallel and exact-sized.
	offs := make([]int, nm+1)
	for m := 0; m < nm; m++ {
		offs[m+1] = offs[m] + len(outs[m].probe)
	}
	total := offs[nm]

	var specs []joinOutSpec
	cols := make([]RelCol, 0, probeRel.NumCols()+buildRel.NumCols()+1)
	addCol := func(spec joinOutSpec, name string, typ storage.ColumnType, dict *storage.Dict) {
		c := RelCol{Name: name, Type: typ, Dict: dict}
		if typ == storage.Float64 {
			c.Floats = make([]float64, total)
		} else {
			c.Ints = make([]int64, total)
		}
		specs = append(specs, spec)
		cols = append(cols, c)
	}
	for i := 0; i < probeRel.NumCols(); i++ {
		src := probeRel.Col(i)
		addCol(joinOutSpec{src: src}, src.Name, src.Type, src.Dict)
	}
	if needBuild {
		for i := 0; i < buildRel.NumCols(); i++ {
			src := buildRel.Col(i)
			if probeRel.ColByName(src.Name) != nil {
				continue // shadowed (typically the join key re-appearing)
			}
			addCol(joinOutSpec{src: src, fromBuild: true}, src.Name, src.Type, src.Dict)
		}
	}
	if j.Type == LeftOuterJoin {
		addCol(joinOutSpec{matched: true}, "__matched", storage.Int64, nil)
	}

	acur := &morselCursor{rows: pn}
	err = pa.run(probeWorkers, func() error {
		return forEachMorsel(ec, acur, func(m, _, _ int) error {
			out := &outs[m]
			if len(out.probe) == 0 {
				return nil
			}
			for i := range specs {
				copyJoinOut(&cols[i], &specs[i], out, offs[m])
			}
			return nil
		})
	})
	pa.morsels += nm
	if err != nil {
		return nil, err
	}
	pa.finish(ec, sp)
	return NewRelation(cols)
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
