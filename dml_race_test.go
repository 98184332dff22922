package predcache_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/obs"
)

// mustPred parses a WHERE condition or fails the test.
func mustPred(t *testing.T, cond string) predcache.Pred {
	t.Helper()
	p, err := predcache.ParseWhere(cond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUpdateWhereFailedAppendKeepsRows is the regression test for the lost-
// rows bug: UpdateWhere used to delete the matched rows before appending the
// updated copies, so an apply callback that corrupted the batch (mismatched
// column lengths) returned an error with the original rows already gone.
// The update must be all-or-nothing.
func TestUpdateWhereFailedAppendKeepsRows(t *testing.T) {
	db := openWithData(t, 3000)
	count := func() int64 {
		res, err := db.Query("select count(*) as n from t where val >= 50")
		if err != nil {
			t.Fatal(err)
		}
		return res.Col(0).Ints[0]
	}
	before := count()
	if before == 0 {
		t.Fatal("no matching rows to start with")
	}
	_, err := db.UpdateWhere("t", mustPred(t, "val >= 50"), func(b *predcache.Batch) {
		// Corrupt the batch: drop one value from the id column.
		b.Cols[0].Ints = b.Cols[0].Ints[:len(b.Cols[0].Ints)-1]
	})
	if err == nil {
		t.Fatal("corrupted batch did not fail the update")
	}
	if after := count(); after != before {
		t.Fatalf("failed update lost rows: %d matching before, %d after", before, after)
	}
}

// TestDMLOnRowidColumn: DML finds its rows with a scan whose first output
// column is named rowid, so a table column of that name must not clash with
// it, in an update (which copies every column) or a delete.
func TestDMLOnRowidColumn(t *testing.T) {
	db := predcache.Open(predcache.WithSlices(2))
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "rowid", Type: predcache.Int64},
		{Name: "tag", Type: predcache.String},
	}
	if err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	batch := predcache.NewBatch(schema)
	for i := 0; i < 3000; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Ints = append(batch.Cols[1].Ints, int64(i%1000))
		batch.Cols[2].Strings = append(batch.Cols[2].Strings, "a")
	}
	batch.N = 3000
	if err := db.Insert("r", batch); err != nil {
		t.Fatal(err)
	}
	count := func(where string) int64 {
		t.Helper()
		res, err := db.Query("select count(*) as n from r where " + where)
		if err != nil {
			t.Fatal(err)
		}
		return res.Col(0).Ints[0]
	}
	n, err := db.UpdateWhere("r", mustPred(t, "rowid < 10"), func(b *predcache.Batch) {
		for i := range b.Cols[1].Ints {
			b.Cols[1].Ints[i] += 5000
			b.Cols[2].Strings[i] = "x"
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("UpdateWhere = %d, want 30", n)
	}
	if got := count("rowid >= 5000 and tag = 'x'"); got != 30 {
		t.Fatalf("%d updated rows visible, want 30", got)
	}
	if n, err = db.DeleteWhere("r", mustPred(t, "rowid >= 5000")); err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("DeleteWhere = %d, want 30", n)
	}
	if got := count("id >= 0"); got != 2970 {
		t.Fatalf("%d rows left, want 2970", got)
	}
}

// TestRunCtxDefaultsParallel:a caller-provided context that names no degree
// of parallelism (MaxWorkers == 0) takes the database's, one that names its
// own keeps it, and Serial wins over both.
func TestRunCtxDefaultsParallel(t *testing.T) {
	db := openWithData(t, 20000, predcache.WithMaxWorkers(3))
	node, err := db.Plan("select count(*) from t where val > 10")
	if err != nil {
		t.Fatal(err)
	}
	// widest runs node under ec and returns the most workers any operator used.
	widest := func(ec *predcache.ExecCtx) (w int64) {
		t.Helper()
		ec.Trace = obs.NewTrace()
		if _, err := db.RunCtx(node, ec); err != nil {
			t.Fatal(err)
		}
		for _, sp := range ec.Trace.Spans() {
			v, _ := sp.IntAttr("parallel.workers")
			w = max(w, v)
		}
		return w
	}
	ec := &predcache.ExecCtx{}
	if w := widest(ec); ec.MaxWorkers != 3 || w != 3 {
		t.Fatalf("MaxWorkers = %d and %d workers ran, want the database's 3", ec.MaxWorkers, w)
	}
	if w := widest(&predcache.ExecCtx{MaxWorkers: 2}); w != 2 {
		t.Fatalf("%d workers ran under MaxWorkers 2", w)
	}
	if w := widest(&predcache.ExecCtx{Serial: true}); w != 1 {
		t.Fatalf("%d workers ran under Serial", w)
	}
}

// TestDMLVacuumRace interleaves UpdateWhere/DeleteWhere with Vacuum and
// parallel cached scans on a sort-keyed table. Vacuum renumbers physical
// rows, so without the epoch re-verification the DML statements would delete
// or update arbitrary rows captured under the old numbering. Invariants:
// readers never miss a row that was never touched (no false negatives from
// the predicate cache), every deleted id disappears exactly once, and the
// final row count is exact. Run with -race.
func TestDMLVacuumRace(t *testing.T) {
	const n = 12000
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "bucket", Type: predcache.Int64},
		{Name: "val", Type: predcache.Int64},
	}
	db := predcache.Open(predcache.WithSlices(4))
	if err := db.CreateTable("t", schema, "bucket"); err != nil {
		t.Fatal(err)
	}
	batch := predcache.NewBatch(schema)
	for i := 0; i < n; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Ints = append(batch.Cols[1].Ints, int64(i%64))
		batch.Cols[2].Ints = append(batch.Cols[2].Ints, 0)
	}
	batch.N = n
	if err := db.Load("t", batch); err != nil {
		t.Fatal(err)
	}

	// Disjoint id sets: updaters touch ids ≡ 1 (mod 4), deleters ids ≡ 2
	// (mod 4); ids ≡ 0 (mod 4) are never touched and must stay visible.
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	var deleted atomic.Int64

	// pred parses a condition without touching t (goroutine-safe).
	pred := func(cond string) (predcache.Pred, error) { return predcache.ParseWhere(cond) }

	wg.Add(1)
	go func() { // updater
		defer wg.Done()
		for i := 0; i < 40; i++ {
			id := int64(4*(i%(n/4)) + 1)
			p, err := pred(fmt.Sprintf("id = %d", id))
			if err != nil {
				errCh <- err
				return
			}
			_, err = db.UpdateWhere("t", p, func(b *predcache.Batch) {
				for j := range b.Cols[2].Ints {
					b.Cols[2].Ints[j]++
				}
			})
			if err != nil {
				errCh <- fmt.Errorf("update id %d: %w", id, err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // deleter: each id deleted exactly once
		defer wg.Done()
		for i := 0; i < 40; i++ {
			id := int64(4*i + 2)
			p, err := pred(fmt.Sprintf("id = %d", id))
			if err != nil {
				errCh <- err
				return
			}
			cnt, err := db.DeleteWhere("t", p)
			if err != nil {
				errCh <- fmt.Errorf("delete id %d: %w", id, err)
				return
			}
			if cnt > 1 {
				errCh <- fmt.Errorf("delete id %d removed %d rows", id, cnt)
				return
			}
			deleted.Add(int64(cnt))
		}
	}()

	wg.Add(1)
	go func() { // vacuum loop: renumbers rows under the writers' feet
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := db.Vacuum("t"); err != nil {
				errCh <- fmt.Errorf("vacuum: %w", err)
				return
			}
		}
	}()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) { // readers: cached scans over untouched ids
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := 4 * ((w*50 + i) % (n / 4))
				res, err := db.Query(fmt.Sprintf("select count(*) as c from t where id = %d", id))
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
				if got := res.Col(0).Ints[0]; got != 1 {
					errCh <- fmt.Errorf("reader %d: id %d visible %d times, want 1", w, id, got)
					return
				}
			}
		}(w)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Final invariants on the quiesced table.
	res, err := db.Query("select count(*) as c from t")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n) - deleted.Load()
	if got := res.Col(0).Ints[0]; got != want {
		t.Fatalf("final count %d, want %d (deleted %d)", got, want, deleted.Load())
	}
	res, err = db.Query("select id from t")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, res.NumRows())
	for _, id := range res.Col(0).Ints {
		if seen[id] {
			t.Fatalf("id %d appears more than once after concurrent updates", id)
		}
		seen[id] = true
	}
}
