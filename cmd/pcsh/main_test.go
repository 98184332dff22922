package main

import (
	"strings"
	"testing"

	predcache "github.com/predcache/predcache"
)

// TestMetaCommands runs every meta command's SQL against the pc.* schemas of
// an in-process database holding one small table, so renaming a system-table
// column breaks this test instead of the shell. Session commands must pass
// through unchanged.
func TestMetaCommands(t *testing.T) {
	db := predcache.Open()
	schema := predcache.Schema{{Name: "x", Type: predcache.Int64}}
	if err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	b := predcache.NewBatch(schema)
	b.Cols[0].Ints = []int64{1, 2, 3}
	b.N = 3
	if err := db.Insert("t", b); err != nil {
		t.Fatal(err)
	}
	// Statement 0 is retained as the first of its shape: \trace 0 has spans.
	for i := 0; i < 2; i++ {
		if _, err := db.Query("select count(*) from t where x > 1"); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []struct{ name, cmd string }{
		{"stats", `\stats`},
		{"cache", `\cache`},
		{"entries", `\entries`},
		{"log", `\log`},
		{"storage", `\storage`},
		{"trace", `\trace`},
		{"trace_id", `\trace 0`},
		{"slo", `\slo`},
		{"top", `\top`},
		{"explain", `\explain select count(*) from t where x > 1`},
		{"tables", `\tables`},
	} {
		t.Run(m.name, func(t *testing.T) {
			q, err := expand(m.cmd)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(q, `\`) {
				t.Fatalf("%s expanded to %q, want SQL", m.cmd, q)
			}
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", m.cmd, q, err)
			}
			if res.NumRows() == 0 {
				t.Fatalf("%s: %s returned no rows", m.cmd, q)
			}
		})
	}
	t.Run("trace_bad_id", func(t *testing.T) {
		if _, err := expand(`\trace x`); err == nil {
			t.Fatal(`\trace x expanded`)
		}
	})
	for _, m := range []struct{ name, cmd string }{{"q", `\q`}, {"exit", "exit"}, {"quit", "quit"}} {
		t.Run(m.name, func(t *testing.T) {
			if q, _ := expand(m.cmd); q != `\quit` {
				t.Fatalf(`%s expanded to %q, want \quit`, m.cmd, q)
			}
		})
	}
	for _, cmd := range []string{`\prepare p select count(*) from t`, `\exec p`, `\cancel`, `\ping`, `\quit`} {
		t.Run(strings.Fields(cmd)[0][1:], func(t *testing.T) {
			if q, err := expand(cmd); err != nil || q != cmd {
				t.Fatalf("%s expanded to %q, %v", cmd, q, err)
			}
		})
	}
}
