package main

import (
	"fmt"
	"math/rand"
	"time"

	predcache "github.com/predcache/predcache"
)

// verdict is the oracle's finding on one timed window.
type verdict struct {
	attempted int // operations sent
	failed    int // errored, refused or wrong-result operations
	reads     int
	distinct  int // distinct read statements (wire workloads)
	checked   int // reads compared against the twin DB
	seconds   float64
	firstErr  string
}

// twinRead executes a read on the accelerator-free twin: planned from
// scratch, run serially, with the encoded-domain kernels off (there is no
// DB-level switch for those, hence Plan + RunCtx).
func twinRead(twin *predcache.DB, sql string) (uint64, error) {
	plan, err := twin.Plan(sql)
	if err != nil {
		return 0, err
	}
	res, err := twin.RunCtx(plan, &predcache.ExecCtx{Serial: true, DisableEncodedKernels: true})
	if err != nil {
		return 0, err
	}
	return hashRelation(res), nil
}

// verify checks every operation of the window. Errors fail outright. On the
// read-only workloads every execution of one statement must return the same
// digest (the first was a cache miss or an early hit, later ones hits), and
// the digests of up to sz.VerifyMax distinct statements — all of them when
// there are no more, else a seeded sample — must equal the twin's. On
// mixed_dml results change with the data, so the twin replays the whole
// operation sequence and checks a seeded 1-in-16 sample of reads at the
// same sequence point.
func verify(spec workloadSpec, sz sizes, seed int64, w *window) (verdict, error) {
	start := time.Now()
	var v verdict
	fail := func(format string, args ...any) {
		v.failed++
		if v.firstErr == "" {
			v.firstErr = fmt.Sprintf(format, args...)
		}
	}
	twin, err := spec.open(sz, seed, true)
	if err != nil {
		return v, fmt.Errorf("%s: open twin: %w", spec.name, err)
	}
	if spec.sessions == 0 {
		err = verifyReplay(spec, sz, seed, w, twin, &v, fail)
	} else {
		verifyDistinct(sz, seed, w, twin, &v, fail)
	}
	v.seconds = time.Since(start).Seconds()
	return v, err
}

func verifyDistinct(sz sizes, seed int64, w *window, twin *predcache.DB, v *verdict, fail func(string, ...any)) {
	expected := make(map[string]uint64)
	var order []string
	for _, ss := range w.samples {
		for i := range ss {
			s := &ss[i]
			if s.err != nil {
				continue
			}
			if _, ok := expected[s.sql]; !ok {
				expected[s.sql] = s.hash
				order = append(order, s.sql)
			}
		}
	}
	v.distinct = len(order)
	if len(order) > sz.VerifyMax {
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		order = order[:sz.VerifyMax]
	}
	for _, sql := range order {
		want, err := twinRead(twin, sql)
		if err != nil {
			fail("twin: %s: %v", sql, err)
			continue
		}
		expected[sql] = want
		v.checked++
	}
	for _, ss := range w.samples {
		for i := range ss {
			s := &ss[i]
			v.attempted++
			v.reads++
			switch {
			case s.err != nil:
				fail("%s: %v", s.sql, s.err)
			case s.hash != expected[s.sql]:
				fail("wrong result for %s", s.sql)
			}
		}
	}
}

func verifyReplay(spec workloadSpec, sz sizes, seed int64, w *window, twin *predcache.DB, v *verdict, fail func(string, ...any)) error {
	ex := &dbExecutor{db: twin, st: spec.stream(sz, seed, 0)}
	for i, warm := 0, spec.warmup(sz); i < warm; i++ {
		if o := ex.st.next(); o.kind != opRead {
			if _, err := ex.exec(o); err != nil {
				return fmt.Errorf("%s: twin warm-up: %w", spec.name, err)
			}
		}
	}
	pick := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range w.samples[0] {
		s := &w.samples[0][i]
		o := ex.st.next()
		v.attempted++
		if s.err != nil {
			fail("%v", s.err)
		}
		if o.kind != opRead {
			if _, err := ex.exec(o); err != nil {
				return fmt.Errorf("%s: twin replay: %w", spec.name, err)
			}
			continue
		}
		v.reads++
		if o.sql != s.sql {
			return fmt.Errorf("%s: replay diverged at operation %d", spec.name, i)
		}
		if pick.Intn(16) != 0 || s.err != nil {
			continue
		}
		v.checked++
		want, err := twinRead(twin, o.sql)
		if err != nil {
			return fmt.Errorf("%s: twin read: %w", spec.name, err)
		}
		if want != s.hash {
			fail("wrong result at operation %d: %s", i, o.sql)
		}
	}
	return nil
}
