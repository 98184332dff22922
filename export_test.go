package predcache

import (
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/systab"
)

// Sinks are the stores behind the pc.* tables, for tests whose reads must not
// themselves be statements: a SQL read of a pc.* table is one, and lands in
// the sinks being counted.
type Sinks struct {
	Log     *systab.QueryRecorder
	Traces  *obs.TraceStore
	SLO     *obs.SLOSet
	Shapes  *obs.ShapeStats
	Runtime *obs.RuntimeCollector
	Tables  *systab.Registry
}

// SinksOf returns db's sinks.
func SinksOf(db *DB) Sinks {
	return Sinks{db.qlog, db.traces, db.slo, db.shapes, db.runtime.Load(), db.sysTables}
}
