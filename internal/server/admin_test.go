package server

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/predcache/predcache/internal/obs"
)

// TestAdminEndpoint drives the admin listener as pcserver -admin runs it:
// /metrics serves a valid exposition carrying the engine, cache and runtime
// families after one statement, the pprof handlers answer, and the paths the
// endpoint no longer serves are 404s.
func TestAdminEndpoint(t *testing.T) {
	db := testDB(t, 1000)
	srv := newTestServer(t, db, Config{AdminAddr: "127.0.0.1:0"})
	c := dialPipe(t, srv)
	if n := c.queryInt(t, "select count(*) from t where id < 10"); n != 10 {
		t.Fatalf("count = %d, want 10", n)
	}

	get := func(t *testing.T, path string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + srv.AdminAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	t.Run("metrics", func(t *testing.T) {
		code, ct, body := get(t, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		if err := obs.ValidateExposition(body); err != nil {
			t.Fatalf("served exposition invalid: %v", err)
		}
		for _, family := range []string{"predcache_queries_total", "predcache_cache_hits_total", "predcache_runtime_goroutines"} {
			if !bytes.Contains(body, []byte(family)) {
				t.Errorf("exposition lacks %s", family)
			}
		}
	})
	t.Run("pprof_index", func(t *testing.T) {
		code, _, body := get(t, "/debug/pprof/")
		if code != http.StatusOK || !bytes.Contains(body, []byte("profile")) {
			t.Fatalf("status %d, pprof index missing:\n%s", code, body)
		}
	})
	t.Run("pprof_heap", func(t *testing.T) {
		if code, _, _ := get(t, "/debug/pprof/heap"); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	})
	for _, path := range []string{"/metrics.json", "/stats", "/sessions", "/profile/cpu", "/profile/heap"} {
		t.Run("404_"+strings.ReplaceAll(path[1:], "/", "_"), func(t *testing.T) {
			if code, _, _ := get(t, path); code != http.StatusNotFound {
				t.Fatalf("status %d, want 404", code)
			}
		})
	}
}
