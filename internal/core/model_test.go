package core

// Behavioral model test: the cache's visible behaviour (which keys hit,
// what candidates they return) must match a trivial reference model under
// random sequences of Insert, Extend, Lookup, table DML and vacuum.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/predcache/predcache/internal/storage"
)

type refEntry struct {
	epoch      uint64
	depVersion uint64 // 0 = no dep
	covered    map[int]bool
	watermark  int
}

func TestCacheMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		tbl := newTestTable(t, "t", 1, 4000)
		dim := newTestTable(t, "d", 1, 100)
		c := NewCache(Config{Kind: RangeIndex, MaxRanges: 1 << 20}) // no reduction: exact
		model := map[string]*refEntry{}
		rows := 4000

		randRanges := func(limit int) ([]storage.RowRange, map[int]bool) {
			var rs []storage.RowRange
			cov := map[int]bool{}
			pos := 0
			for pos < limit && len(rs) < 20 {
				pos += r.Intn(limit/10 + 1)
				ln := 1 + r.Intn(50)
				if pos >= limit {
					break
				}
				end := pos + ln
				if end > limit {
					end = limit
				}
				rs = append(rs, storage.RowRange{Start: pos, End: end})
				for i := pos; i < end; i++ {
					cov[i] = true
				}
				pos = end + 1
			}
			return rs, cov
		}

		for step := 0; step < 200; step++ {
			switch r.Intn(6) {
			case 0: // insert a plain entry
				key := Key{Table: "t", Predicate: fmt.Sprintf("p%d", r.Intn(6))}
				rs, cov := randRanges(rows)
				c.Insert(key, tbl, tbl.LayoutEpoch(), nil, [][]storage.RowRange{rs}, []int{rows})
				model[key.String()] = &refEntry{epoch: tbl.LayoutEpoch(), covered: cov, watermark: rows}
			case 1: // insert a join entry depending on dim
				key := Key{Table: "t", Predicate: fmt.Sprintf("p%d", r.Intn(6)),
					SemiJoins: []SemiJoinKey{{JoinPred: "j", BuildKey: "b"}}}
				rs, cov := randRanges(rows)
				c.Insert(key, tbl, tbl.LayoutEpoch(), []BuildDep{{Table: dim, Version: dim.Version()}},
					[][]storage.RowRange{rs}, []int{rows})
				model[key.String()] = &refEntry{epoch: tbl.LayoutEpoch(), depVersion: dim.Version(), covered: cov, watermark: rows}
			case 2: // extend a random known key
				if len(model) == 0 {
					continue
				}
				var ks string
				for k := range model {
					ks = k
					break
				}
				newWM := model[ks].watermark + 100
				tail := []storage.RowRange{{Start: model[ks].watermark + 10, End: model[ks].watermark + 20}}
				c.Extend(ks, 0, tail, newWM)
				m := model[ks]
				// The model mirrors Extend's staleness check.
				if m.epoch == tbl.LayoutEpoch() && (m.depVersion == 0 || m.depVersion == dim.Version()) {
					for i := tail[0].Start; i < tail[0].End; i++ {
						m.covered[i] = true
					}
					m.watermark = newWM
				} else {
					delete(model, ks)
				}
			case 3: // DML on dim (invalidates join entries lazily)
				dim.BumpVersion()
			case 4: // vacuum t (invalidates everything on t lazily)
				tbl.Vacuum(0)
			case 5: // lookup a random key (possibly unknown)
				key := Key{Table: "t", Predicate: fmt.Sprintf("p%d", r.Intn(8))}
				if r.Intn(2) == 0 {
					key.SemiJoins = []SemiJoinKey{{JoinPred: "j", BuildKey: "b"}}
				}
				ks := key.String()
				cand, hit := c.Best([]string{ks})
				m := model[ks]
				valid := m != nil && m.epoch == tbl.LayoutEpoch() &&
					(m.depVersion == 0 || m.depVersion == dim.Version())
				if hit != valid {
					t.Fatalf("seed %d step %d: key %s hit=%v model=%v", seed, step, ks, hit, valid)
				}
				if !valid {
					delete(model, ks)
					continue
				}
				if cand.Watermark(0) != m.watermark {
					t.Fatalf("seed %d step %d: watermark %d model %d", seed, step, cand.Watermark(0), m.watermark)
				}
				got := map[int]bool{}
				for _, rr := range cand.AppendRanges(0, nil) {
					for i := rr.Start; i < rr.End; i++ {
						got[i] = true
					}
				}
				if len(got) != len(m.covered) {
					t.Fatalf("seed %d step %d: coverage %d model %d", seed, step, len(got), len(m.covered))
				}
				for i := range m.covered {
					if !got[i] {
						t.Fatalf("seed %d step %d: row %d missing", seed, step, i)
					}
				}
			}
		}
	}
}
