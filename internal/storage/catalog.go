package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Catalog is the database catalog: the set of tables plus the global
// transaction-id source used for MVCC snapshots.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table // guarded by mu

	commitMu sync.Mutex
	xid      atomic.Uint64 // the last published xid; written only under commitMu

	pinMu sync.Mutex
	pins  []uint64 // guarded by pinMu; the running statements' snapshots, ascending
}

// NewCatalog returns an empty catalog. Transaction ids start at 1.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Commit runs one writing statement: it allocates the next xid, runs apply
// with it, and publishes the xid to snapshots only after apply returns.
// Commits are serialized. A failed apply must leave the tables unchanged.
// Lock order: a table's write gate, then commitMu, then the table's lock.
func (c *Catalog) Commit(apply func(xid uint64) error) error {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	xid := c.xid.Load() + 1
	err := apply(xid)
	c.xid.Store(xid)
	return err
}

// Snapshot returns the last published xid: every committed statement is
// visible at it. Unlike Pin, it does not hold back vacuum.
func (c *Catalog) Snapshot() uint64 { return c.xid.Load() }

// Pin returns the current snapshot and keeps Horizon at or below it until
// the matching Unpin. Choosing and registering the snapshot is one step
// under pinMu, so no vacuum computes a horizon past it in between.
func (c *Catalog) Pin() uint64 {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	s := c.xid.Load()
	c.pins = append(c.pins, s) // published xids only grow: pins stays ascending
	return s
}

// Unpin releases a snapshot Pin returned.
func (c *Catalog) Unpin(snapshot uint64) {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	i := slices.Index(c.pins, snapshot)
	c.pins = slices.Delete(c.pins, i, i+1)
}

// Horizon returns the oldest pinned snapshot, or the current one when none
// is pinned. A row deleted at or before it is invisible to every running and
// future statement, so vacuum may reclaim it.
func (c *Catalog) Horizon() uint64 {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	if len(c.pins) == 0 {
		return c.xid.Load()
	}
	return c.pins[0]
}

// CreateTable creates and registers a table.
func (c *Catalog) CreateTable(name string, schema Schema, numSlices int, sortKey ...string) (*Table, error) {
	t, err := NewTable(name, schema, numSlices, sortKey...)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("storage: table %s already exists", name)
	}
	c.tables[name] = t
	return t, nil
}

// RegisterTable adds an externally built table (used by reorganization
// baselines that construct a sorted copy).
func (c *Catalog) RegisterTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[t.Name()]; exists {
		return fmt.Errorf("storage: table %s already exists", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) {
	c.mu.Lock()
	delete(c.tables, name)
	c.mu.Unlock()
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// TableNames returns the registered table names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
