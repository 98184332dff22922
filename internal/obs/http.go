package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry over HTTP:
//
//	/metrics        Prometheus text exposition format
//	/debug/pprof/*  the standard pprof handlers (profile, heap, trace, ...);
//	                CPU samples carry the query_id/shape/session labels
//
// internal/server mounts it on the admin listener (pcserver -admin).
func Handler(m *Metrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := m.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "predcache admin endpoint\n/metrics\n/debug/pprof/\n")
	})
	return mux
}
