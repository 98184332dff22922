package predcache_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// rows, so a DML statement whose match scan and mutation straddled a vacuum
// would delete or update arbitrary rows captured under the old numbering;
// the table's write gate, held from the match scan to the mutation, keeps
// vacuums out. Invariants: readers see exactly one version of a row that was
// never touched (no false negatives from the predicate cache) and of a row
// being updated (no snapshot sees an update half applied or its old version
// vacuumed away), every deleted id disappears exactly once, and the final
// row count is exact. Run with -race.
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
		go func(w int) { // readers: cached scans over untouched and updated ids
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, id := range []int{4 * ((w*50 + i) % (n / 4)), 4*((w*50+i)%40) + 1} {
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

// selfJoin counts t joined with itself on (id, val). Every visible row
// matches exactly its own version, so at any consistent snapshot the count is
// the table's row count, however the rows are being updated.
const selfJoin = "select count(*) as c from t as a, t as b where a.id = b.id and a.val = b.val"

// readsUnder runs write until it returns while three readers loop query,
// and returns how many of the readers' statements counted something other
// than want, out of how many ran. The writer runs for at most d.
func readsUnder(t *testing.T, db *predcache.DB, query string, want int64, d time.Duration, write func(deadline time.Time) error) (wrong, total int64) {
	t.Helper()
	var done atomic.Bool
	var nWrong, nTotal atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				res, err := db.Query(query)
				if err != nil {
					errCh <- err
					return
				}
				nTotal.Add(1)
				if res.Col(0).Ints[0] != want {
					nWrong.Add(1)
				}
			}
		}()
	}
	err := write(time.Now().Add(d))
	done.Store(true)
	wg.Wait()
	close(errCh)
	if err != nil {
		t.Fatal(err)
	}
	for err := range errCh {
		t.Fatal(err)
	}
	return nWrong.Load(), nTotal.Load()
}

// bumpVal adds one to every updated row's val.
func bumpVal(b *predcache.Batch) {
	for i := range b.Cols[2].Floats {
		b.Cols[2].Floats[i]++
	}
}

// TestSelfJoinUnderUpdate: a statement's snapshot may include only xids
// whose rows are fully applied. If an UPDATE's xid became visible before its
// copies landed, one scan of the self-join could read the table before the
// update and the other after it, and the count would fall short.
func TestSelfJoinUnderUpdate(t *testing.T) {
	db := openWithData(t, 4000, predcache.WithoutPredicateCache())
	all := mustPred(t, "id >= 0")
	wrong, total := readsUnder(t, db, selfJoin, 4000, time.Second, func(deadline time.Time) error {
		for time.Now().Before(deadline) {
			if _, err := db.UpdateWhere("t", all, bumpVal); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("%d of %d self-join counts under a looping UPDATE were not 4000", wrong, total)
	if wrong > 0 {
		t.Fail()
	}
}

// TestSelfJoinUnderUpdateVacuum: vacuum may reclaim only row versions that
// no running statement can see. Reclaiming up to the latest snapshot removes
// an updated row's old version under a statement whose snapshot predates the
// update, and that statement cannot see the new version either.
func TestSelfJoinUnderUpdateVacuum(t *testing.T) {
	db := openWithData(t, 4000, predcache.WithoutPredicateCache())
	wrong, total := readsUnder(t, db, selfJoin, 4000, time.Second, func(deadline time.Time) error {
		for k := 0; time.Now().Before(deadline); k++ {
			if _, err := db.UpdateWhere("t", mustPred(t, fmt.Sprintf("id = %d", k%4000)), bumpVal); err != nil {
				return err
			}
			if err := db.Vacuum("t"); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("%d of %d self-join counts under UPDATE + VACUUM were not 4000", wrong, total)
	if wrong > 0 {
		t.Fail()
	}
}

// TestConcurrentUpdatesKeepRowCount: two UPDATEs of the same rows must not
// both copy them. Unless writers on a table exclude each other, both match
// the same version, each appends its own copy, and the rows multiply.
func TestConcurrentUpdatesKeepRowCount(t *testing.T) {
	db := openWithData(t, 2000, predcache.WithoutPredicateCache())
	all := mustPred(t, "id >= 0")
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := db.UpdateWhere("t", all, bumpVal); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res, err := db.Query("select count(*) as c from t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Col(0).Ints[0]; got != 2000 {
		t.Fatalf("%d rows visible after two concurrent UPDATE loops, want 2000", got)
	}
}

// TestDeleteRacesUpdate: a DELETE and an UPDATE of every row, run at once,
// must leave the table empty, as either serial order does. Unless the second
// writer sees the first one's rows, the update's copies survive the delete.
func TestDeleteRacesUpdate(t *testing.T) {
	all := mustPred(t, "id >= 0")
	const rounds = 20
	survived := 0
	for r := 0; r < rounds; r++ {
		db := openWithData(t, 2000, predcache.WithoutPredicateCache())
		start := make(chan struct{})
		var wg sync.WaitGroup
		errCh := make(chan error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if _, err := db.DeleteWhere("t", all); err != nil {
				errCh <- err
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if _, err := db.UpdateWhere("t", all, bumpVal); err != nil {
				errCh <- err
			}
		}()
		close(start)
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		res, err := db.Query("select count(*) as c from t")
		if err != nil {
			t.Fatal(err)
		}
		if res.Col(0).Ints[0] != 0 {
			survived++
		}
	}
	if survived > 0 {
		t.Fatalf("rows survived a DELETE racing an UPDATE in %d of %d rounds", survived, rounds)
	}
}
