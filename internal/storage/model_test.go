package storage

// Model-based property test: a Table must behave exactly like a trivial
// in-memory reference model under any interleaving of appends, deletes,
// updates-as-delete+insert, and vacuums.

import (
	"math/rand"
	"testing"
)

type modelRow struct {
	id      int64
	val     int64
	deleted bool
}

type model struct {
	rows []modelRow
}

func (m *model) visibleIDs() map[int64]int64 {
	out := make(map[int64]int64)
	for _, r := range m.rows {
		if !r.deleted {
			out[r.id] = r.val
		}
	}
	return out
}

// tableVisible reads all visible rows of the table at the given snapshot.
func tableVisible(t *testing.T, tbl *Table, snapshot uint64) map[int64]int64 {
	t.Helper()
	out := make(map[int64]int64)
	unlock := tbl.RLockScan()
	defer unlock()
	idBuf := make([]int64, BlockSize)
	valBuf := make([]int64, BlockSize)
	for si := 0; si < tbl.NumSlices(); si++ {
		s := tbl.Slice(si)
		idCol := s.Column(0)
		valCol := s.Column(1)
		for blk := 0; blk*BlockSize < s.NumRows(); blk++ {
			base := blk * BlockSize
			n := s.NumRows() - base
			if n > BlockSize {
				n = BlockSize
			}
			idCol.ReadIntBlock(blk, idBuf)
			valCol.ReadIntBlock(blk, valBuf)
			for i := 0; i < n; i++ {
				if s.Visible(base+i, snapshot) {
					if _, dup := out[idBuf[i]]; dup {
						t.Fatalf("duplicate visible id %d", idBuf[i])
					}
					out[idBuf[i]] = valBuf[i]
				}
			}
		}
	}
	return out
}

func TestTableMatchesModelUnderRandomOps(t *testing.T) {
	schema := Schema{{Name: "id", Type: Int64}, {Name: "val", Type: Int64}}
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		cat := NewCatalog()
		tbl, err := cat.CreateTable("m", schema, 1+r.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		m := &model{}
		nextID := int64(0)

		for step := 0; step < 120; step++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3: // append a batch
				n := 1 + r.Intn(400)
				b := NewBatch(schema)
				for i := 0; i < n; i++ {
					v := r.Int63n(1000)
					b.Cols[0].Ints = append(b.Cols[0].Ints, nextID)
					b.Cols[1].Ints = append(b.Cols[1].Ints, v)
					m.rows = append(m.rows, modelRow{id: nextID, val: v})
					nextID++
				}
				b.N = n
				if err := cat.Commit(func(xid uint64) error { return tbl.Append(b, xid) }); err != nil {
					t.Fatal(err)
				}
			case 4, 5, 6: // delete random visible ids
				vis := m.visibleIDs()
				if len(vis) == 0 {
					continue
				}
				// Pick some ids to delete from the model...
				var targets []int64
				for id := range vis {
					if r.Intn(10) == 0 {
						targets = append(targets, id)
					}
					if len(targets) >= 30 {
						break
					}
				}
				if len(targets) == 0 {
					continue
				}
				del := make(map[int64]bool, len(targets))
				for _, id := range targets {
					del[id] = true
				}
				for i := range m.rows {
					if del[m.rows[i].id] {
						m.rows[i].deleted = true
					}
				}
				// ...and find their physical rows in the table.
				unlock := tbl.RLockScan()
				type loc struct {
					slice int
					row   int
				}
				var locs []loc
				buf := make([]int64, BlockSize)
				for si := 0; si < tbl.NumSlices(); si++ {
					s := tbl.Slice(si)
					for blk := 0; blk*BlockSize < s.NumRows(); blk++ {
						base := blk * BlockSize
						n := s.NumRows() - base
						if n > BlockSize {
							n = BlockSize
						}
						s.Column(0).ReadIntBlock(blk, buf)
						for i := 0; i < n; i++ {
							if del[buf[i]] && !s.HasDeletionsIn(base+i, base+i+1) {
								locs = append(locs, loc{si, base + i})
							}
						}
					}
				}
				unlock()
				perSlice := make([][]int, tbl.NumSlices())
				for _, l := range locs {
					perSlice[l.slice] = append(perSlice[l.slice], l.row)
				}
				_ = cat.Commit(func(xid uint64) error { tbl.DeleteRows(perSlice, xid); return nil }) // apply cannot fail
			case 7, 8: // vacuum
				tbl.Vacuum(cat.Snapshot())
				// The model compacts too (deleted rows disappear).
				kept := m.rows[:0]
				for _, row := range m.rows {
					if !row.deleted {
						kept = append(kept, row)
					}
				}
				m.rows = kept
			case 9: // no-op version bump
				tbl.BumpVersion()
			}

			got := tableVisible(t, tbl, cat.Snapshot())
			want := m.visibleIDs()
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d visible rows, model has %d", seed, step, len(got), len(want))
			}
			for id, v := range want {
				if got[id] != v {
					t.Fatalf("seed %d step %d: id %d = %d, model %d", seed, step, id, got[id], v)
				}
			}
		}
	}
}
