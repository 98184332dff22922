package predcache

import (
	"context"

	"github.com/predcache/predcache/internal/obs"
)

// Per-query resource attribution (DESIGN.md §16): every SQL-originated
// execution runs under pprof goroutine labels (query_id, shape, session),
// measures its CPU and allocation footprint, and folds the result into the
// pc.query_shapes heavy-hitter ledger. The leak sentinels ride the runtime
// sampler (StartRuntimeSampler) and surface transitions as pc.alerts.

// Re-exported attribution types.
type (
	// ShapeRow is one pc.query_shapes row: a shape's resource ledger.
	ShapeRow = obs.ShapeRow
	// Alert is one pc.alerts row: a leak-sentinel transition.
	Alert = obs.Alert
)

// QueryShapes returns the per-shape resource ledger ranked by total
// attributed CPU, heaviest first — the same rows served by pc.query_shapes.
func (db *DB) QueryShapes() []ShapeRow {
	return db.shapes.Snapshot()
}

// Alerts returns the retained leak-sentinel transitions, oldest first — the
// same rows served by pc.alerts.
func (db *DB) Alerts() []Alert {
	return db.alerts.Alerts()
}

// sessionKey is the context key ContextWithSession stores the session label
// under.
type sessionKey struct{}

// ContextWithSession returns a context whose queries are attributed to the
// given session label (the network server stamps "s<id>" per connection).
// The label appears as the session pprof label and is bounded-cardinality by
// construction: one value per connection, not per query.
func ContextWithSession(ctx context.Context, session string) context.Context {
	return context.WithValue(ctx, sessionKey{}, session)
}

// sessionFromCtx extracts the session label ("" when none).
func sessionFromCtx(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if s, ok := ctx.Value(sessionKey{}).(string); ok {
		return s
	}
	return ""
}
