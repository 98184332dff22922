// Package noalloc is a pclint test fixture; "want" comment markers flag the
// lines where the noalloc analyzer must report.
package noalloc

type scratch struct {
	ints []int
	fn   func()
}

// hot is a hot-path root: no allocation in it or anything it reaches.
// pclint:noalloc
func hot(s *scratch, xs []int) int {
	total := 0
	inc := func(v int) int { return v + 1 } // local-call-only closure: no escape
	for _, x := range xs {
		total += inc(x)
	}
	m := make([]int, 8) // want — make
	_ = m
	var acc []int
	acc = append(acc, total) // want — append to nil-started slice
	_ = acc
	s.ints = append(s.ints, total) // ok: amortized into caller-owned scratch
	s.fn = func() {}               // want — escaping closure
	go func() {}()                 // want — go statement
	sink(total)                    // want — boxing int into any
	helper(s, "x")
	dyn(func() {}) // want — closure passed as argument escapes
	cold(s)
	return total
}

func sink(v any) { _ = v }

// helper is reachable from hot and checked transitively.
func helper(s *scratch, pfx string) {
	s.ints = s.ints[:0]
	name := pfx + "!"  // want — string concatenation
	bs := []byte(name) // want — string to []byte conversion
	_ = bs
}

// dyn calls through a function value; the callee is unknowable.
func dyn(f func()) {
	f() // want — dynamic call
}

// cold grows the scratch slice; amortized, exempt from traversal.
// pclint:allowalloc amortized growth path
func cold(s *scratch) {
	s.ints = append(s.ints, make([]int, 16)...)
}

// notHot is not reachable from any noalloc root; it may allocate freely.
func notHot() []int {
	return make([]int, 4)
}

// suppressedRoot shows the line-level escape hatch.
// pclint:noalloc
func suppressedRoot() {
	s := make([]int, 2) // pclint:allow noalloc: provably stack-allocated here
	_ = s
}

// The shapes below mirror the trace-retention handoff: a completed trace's
// span slice moves into a preallocated ring by pointer, never by copy.

type span struct{ id int }

type trace struct{ spans []span }

type traceRing struct {
	slots [][]span
	head  int
}

// takeSpans detaches and parks the span slice — pure pointer moves, and the
// analyzer must accept it without annotations.
// pclint:noalloc
func takeSpans(tr *trace, r *traceRing) {
	sp := tr.spans // ok: slice-header move, no copy
	tr.spans = nil
	r.slots[r.head] = sp // ok: store into a preallocated slot
	r.head++
}

// badHandoff copies the spans instead of moving the slice header; any
// allocation here defeats the O(1) handoff guarantee and must be flagged.
// pclint:noalloc
func badHandoff(tr *trace, r *traceRing) {
	dup := make([]span, len(tr.spans)) // want — make on the handoff path
	copy(dup, tr.spans)
	var out []span
	out = append(out, dup...) // want — append to nil-started slice
	r.slots[r.head] = out
}

// The shapes below mirror the morsel-parallel probe loop: a worker probes
// one morsel of rows against a shared chained hash table, appending matches
// into pre-sized per-morsel buffers and keyed lookups into a map indexed by
// a scratch byte key.

type morselTable struct {
	idx   map[string]int32
	heads []int32
	next  []int32
}

type workerScratch struct {
	key   []byte
	probe []int32
}

// probeHot is the morsel probe shape: chain walks, map lookups via
// string(b) conversion at the index expression (compiled allocation-free,
// suppressed with a line-level allow), and appends into the worker's
// pre-sized match buffer — all without per-row allocation.
// pclint:noalloc
func probeHot(t *morselTable, scr *workerScratch, rows []int32) int {
	matches := 0
	for _, row := range rows {
		scr.key = scr.key[:0]
		scr.key = append(scr.key, byte(row)) // ok: amortized into caller-owned scratch
		ci, ok := t.idx[string(scr.key)]     // pclint:allow noalloc: map index with string(b) does not allocate
		if !ok {
			continue
		}
		for r := t.heads[ci]; r >= 0; r = t.next[r] {
			scr.probe = append(scr.probe, r) // ok: amortized into caller-owned scratch
			matches++
		}
	}
	return matches
}

// probeBad materializes a string key per probe row and boxes the match
// count; both per-row allocations must be flagged.
// pclint:noalloc
func probeBad(t *morselTable, scr *workerScratch, rows []int32) int {
	matches := 0
	for _, row := range rows {
		scr.key = scr.key[:0]
		scr.key = append(scr.key, byte(row))
		k := string(scr.key) // want — []byte to string conversion
		if _, ok := t.idx[k]; ok {
			matches++
		}
	}
	sink(matches) // want — boxing int into any
	return matches
}

// The shapes below mirror per-query resource attribution: a worker folds its
// busy time into shared atomic-style counters (modelled here as plain int64
// fields behind a pointer), and the coordinator computes the attribution
// deltas after execution. The accounting itself must stay allocation-free —
// only the reporting tail (off the hot path) may build rows.

type attrCounters struct {
	workerExtraNanos int64
	allocObjects     int64
	allocBytes       int64
}

type attrScratch struct {
	labels []string
}

// foldAttribution is the per-worker accounting shape: pure arithmetic folds
// into caller-owned counters, no allocation anywhere.
// pclint:noalloc
func foldAttribution(c *attrCounters, busyNanos, elapsedNanos int64) {
	extra := busyNanos - elapsedNanos
	if extra < 0 {
		extra = 0
	}
	c.workerExtraNanos += extra
}

// snapshotDelta is the coordinator's delta shape: subtract two counter
// snapshots, clamping at zero — again pure arithmetic.
// pclint:noalloc
func snapshotDelta(before, after *attrCounters) (objects, bytes int64) {
	objects = after.allocObjects - before.allocObjects
	bytes = after.allocBytes - before.allocBytes
	if objects < 0 {
		objects = 0
	}
	if bytes < 0 {
		bytes = 0
	}
	return objects, bytes
}

// attributeBad builds the pprof label set inside the per-morsel loop: a map
// composite literal and a string concatenation per morsel, exactly the
// mistake the execution path avoids by labelling once around the whole
// query. Both must be flagged.
// pclint:noalloc
func attributeBad(c *attrCounters, scr *attrScratch, morsels []int64) {
	for _, m := range morsels {
		labels := map[string]string{"query_id": "q"} // want — map literal per morsel
		_ = labels
		tag := "shape" + "=" + "s"           // constant-folded: no allocation
		scr.labels = append(scr.labels, tag) // ok: amortized into caller-owned scratch
		c.workerExtraNanos += m              // the actual accounting is free
		sink(c.workerExtraNanos)             // want — boxing int64 into any
	}
}
