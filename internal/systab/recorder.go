package systab

import (
	"sync"

	"github.com/predcache/predcache/internal/obs"
)

// QueryRecord is one row of pc.query_log: the statement's event, stored as
// the DB emitted it.
type QueryRecord = obs.QueryEvent

// QueryRecorder is a bounded, always-on query history: a preallocated ring
// buffer of QueryRecords. Recording one query is a mutex acquire plus a
// struct copy — no allocation — so it stays on for every query, matching
// the paper's premise that the workload telemetry the cache learns from
// (§2) is collected continuously, not sampled.
//
// A nil *QueryRecorder is valid and drops every record (recording
// disabled).
type QueryRecorder struct {
	mu   sync.Mutex
	buf  []QueryRecord // ring storage, len == capacity
	next int           // guarded by mu; next write position
	n    int           // guarded by mu; number of valid records (≤ len(buf))
}

// NewQueryRecorder creates a recorder holding the most recent capacity
// records (nil, i.e. disabled, when capacity ≤ 0).
func NewQueryRecorder(capacity int) *QueryRecorder {
	if capacity <= 0 {
		return nil
	}
	return &QueryRecorder{buf: make([]QueryRecord, capacity)}
}

// Append copies one event into the ring, overwriting the oldest when full.
// The sequence number and the slow flag are the DB's: the recorder stores
// what it is given, so rows appear in completion order.
func (q *QueryRecorder) Append(ev *QueryRecord) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.buf[q.next] = *ev
	q.next = (q.next + 1) % len(q.buf)
	if q.n < len(q.buf) {
		q.n++
	}
	q.mu.Unlock()
}

// Records returns the retained history, oldest first.
func (q *QueryRecorder) Records() []QueryRecord {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QueryRecord, 0, q.n)
	start := q.next - q.n
	if start < 0 {
		start += len(q.buf)
	}
	for i := 0; i < q.n; i++ {
		out = append(out, q.buf[(start+i)%len(q.buf)])
	}
	return out
}

// Len returns the number of retained records.
func (q *QueryRecorder) Len() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Capacity returns the ring size (0 for a nil recorder).
func (q *QueryRecorder) Capacity() int {
	if q == nil {
		return 0
	}
	return len(q.buf)
}
