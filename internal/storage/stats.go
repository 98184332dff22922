package storage

import "sync/atomic"

// ScanStats accumulates the counters the paper's evaluation reports per
// query (Table 4): rows scanned (rows the vectorized filter actually
// evaluated) and blocks accessed (per-column block decompressions). Block
// elimination is split by mechanism: BlocksSkipped counts row blocks pruned
// by zone maps after the candidate set still included them, while
// BlocksPrunedCache counts row blocks a predicate-cache hit excluded from
// the candidate ranges entirely (the blocks the cache saved). Safe for
// concurrent use by parallel slice scans.
type ScanStats struct {
	RowsScanned       atomic.Int64
	RowsQualified     atomic.Int64
	BlocksAccessed    atomic.Int64
	BlocksSkipped     atomic.Int64
	BlocksPrunedCache atomic.Int64
	CacheHits         atomic.Int64
	CacheMisses       atomic.Int64
	// Encoding-aware kernel breakdown: of the accessed (column, block)
	// pairs, how many were actually decompressed (BlocksDecoded) versus
	// evaluated directly on their stored form (BlocksKernel counts kernel
	// evaluations), and how many values the partial decoder materialized
	// (RowsDecoded; full-block decodes count BlockSize).
	BlocksDecoded atomic.Int64
	BlocksKernel  atomic.Int64
	RowsDecoded   atomic.Int64
	// Morsel-parallel operator counters: morsels claimed by join/aggregation
	// workers and their summed busy time. WorkerNanos vs. query wall time is
	// the parallel-efficiency signal (cpu ≈ wall means the query ran serial;
	// cpu ≈ W×wall means W workers stayed busy).
	Morsels     atomic.Int64
	WorkerNanos atomic.Int64
	// WorkerExtraNanos is the busy time spawned workers contributed beyond
	// the coordinator's wall-clock wait for them: for a parallel phase with W
	// workers and summed busy time B over elapsed E, the extra is B − E
	// (≈ (W−1)×E when all workers stay busy). Query wall time plus this sum
	// is the query's attributed CPU time — the cpu_us column of pc.query_log
	// and pc.query_shapes. Serial phases contribute zero.
	WorkerExtraNanos atomic.Int64
}

// Snapshot returns a plain-struct copy for reporting.
func (s *ScanStats) Snapshot() ScanStatsSnapshot {
	return ScanStatsSnapshot{
		RowsScanned:       s.RowsScanned.Load(),
		RowsQualified:     s.RowsQualified.Load(),
		BlocksAccessed:    s.BlocksAccessed.Load(),
		BlocksSkipped:     s.BlocksSkipped.Load(),
		BlocksPrunedCache: s.BlocksPrunedCache.Load(),
		CacheHits:         s.CacheHits.Load(),
		CacheMisses:       s.CacheMisses.Load(),
		BlocksDecoded:     s.BlocksDecoded.Load(),
		BlocksKernel:      s.BlocksKernel.Load(),
		RowsDecoded:       s.RowsDecoded.Load(),
		Morsels:           s.Morsels.Load(),
		WorkerNanos:       s.WorkerNanos.Load(),
		WorkerExtraNanos:  s.WorkerExtraNanos.Load(),
	}
}

// ScanStatsSnapshot is an immutable copy of ScanStats.
type ScanStatsSnapshot struct {
	RowsScanned       int64
	RowsQualified     int64
	BlocksAccessed    int64
	BlocksSkipped     int64
	BlocksPrunedCache int64
	CacheHits         int64
	CacheMisses       int64
	BlocksDecoded     int64
	BlocksKernel      int64
	RowsDecoded       int64
	Morsels           int64
	WorkerNanos       int64
	WorkerExtraNanos  int64
}
