package main

import (
	"testing"

	predcache "github.com/predcache/predcache"
)

func TestLoadDatasets(t *testing.T) {
	for _, ds := range []string{"tpch", "tpch-skewed", "ssb", "tpcds"} {
		db := predcache.Open()
		if err := load(db, ds, 0.001, 1); err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if len(db.Catalog().TableNames()) == 0 {
			t.Fatalf("%s: no tables", ds)
		}
	}
	if err := load(predcache.Open(), "nope", 0.001, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
