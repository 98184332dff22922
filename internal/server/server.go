// Package server is predcache's network front-end: a TCP line-protocol
// listener multiplexing many client sessions onto one embedded DB, with
// per-session prepared statements, cooperative query cancellation,
// admission control, and an admin HTTP endpoint.
//
// The wire protocol is newline-delimited text (see session.go); it exists
// so the paper's fleet-style workloads — thousands of mostly-idle
// connections issuing near-verbatim repeated queries — can be replayed
// against the engine without linking it into the client.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/systab"
)

// ErrOverloaded is returned to (and sent over the wire for) statements that
// arrive while MaxConcurrent statements are executing and MaxQueue more are
// already waiting. Clients should back off and retry.
var ErrOverloaded = errors.New("overloaded: admission queue full")

// ErrDraining rejects new statements once Shutdown has begun.
var ErrDraining = errors.New("server draining")

// Config shapes a Server. The zero value is usable: an ephemeral listen
// port, concurrency bounded by GOMAXPROCS, and a five-second drain.
type Config struct {
	// Addr is the TCP listen address; empty selects an ephemeral localhost
	// port (the chosen address is available from Server.Addr).
	Addr string
	// AdminAddr optionally serves the admin HTTP endpoint (obs.Handler:
	// /metrics and /debug/pprof/); empty disables it.
	AdminAddr string
	// MaxConcurrent bounds statements executing at once across all sessions
	// (<= 0 selects 2×GOMAXPROCS). Sessions beyond it queue.
	MaxConcurrent int
	// MaxQueue bounds statements waiting for an execution slot (<= 0
	// selects 64× MaxConcurrent); beyond it statements fail fast with
	// ErrOverloaded instead of building an unbounded convoy.
	MaxQueue int
	// DrainTimeout is how long Shutdown waits for in-flight statements and
	// open sessions before cancelling them (<= 0 selects 5s).
	DrainTimeout time.Duration
	// Logger receives structured connection/lifecycle lines; nil drops them.
	Logger *slog.Logger
	// Metrics, when set, is served by the admin endpoint at /metrics.
	Metrics *obs.Metrics
}

// Server accepts client connections and executes their statements against
// one shared DB.
type Server struct {
	db  *predcache.DB
	cfg Config
	log *slog.Logger

	ln        net.Listener
	admin     *http.Server
	adminAddr atomic.Value // string; set once the admin listener binds

	// sem holds one token per executing statement; queued counts statements
	// waiting for a token (bounded by cfg.MaxQueue).
	sem    chan struct{}
	queued atomic.Int64

	mu       sync.Mutex
	sessions map[int64]*session
	closed   bool
	nextID   atomic.Int64

	// wg tracks session goroutines; lnWg the accept + admin loops.
	wg   sync.WaitGroup
	lnWg sync.WaitGroup

	// Wire-level counters, read through StatsNow.
	accepted  atomic.Int64
	statement atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
}

// New builds a Server over db, binds its listener(s), and registers the
// pc.sessions system table. Serve must be called to start accepting.
func New(db *predcache.DB, cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64 * cfg.MaxConcurrent
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.AdminAddr != "" && cfg.Metrics == nil {
		// The admin endpoint always serves /metrics; wire a registry in when
		// the caller did not bring one.
		cfg.Metrics = obs.NewMetrics()
		db.EnableMetrics(cfg.Metrics)
	}
	s := &Server{
		db:       db,
		cfg:      cfg,
		log:      cfg.Logger,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		sessions: make(map[int64]*session),
	}
	if err := db.RegisterSystemTable(systab.SessionsTable(s.SessionInfos)); err != nil {
		return nil, fmt.Errorf("server: register pc.sessions: %w", err)
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	if cfg.AdminAddr != "" {
		aln, err := net.Listen("tcp", cfg.AdminAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("server: admin listen %s: %w", cfg.AdminAddr, err)
		}
		s.admin = &http.Server{Handler: obs.Handler(s.cfg.Metrics), ReadHeaderTimeout: 5 * time.Second}
		s.lnWg.Add(1)
		go func() {
			defer s.lnWg.Done()
			if err := s.admin.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) && s.log != nil {
				s.log.Error("admin server failed", "error", err.Error())
			}
		}()
		s.adminAddr.Store(aln.Addr().String())
	}
	return s, nil
}

// Addr returns the SQL listener's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AdminAddr returns the admin endpoint's bound address ("" when disabled).
func (s *Server) AdminAddr() string {
	if v := s.adminAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Serve accepts connections until Shutdown (or a fatal listener error). It
// always runs the accept loop on the calling goroutine; start it with `go
// srv.Serve()`.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.startSession(conn, conn.RemoteAddr().String())
	}
}

// ServeConn runs the wire protocol over a pre-established connection (tests
// drive thousands of in-memory sessions through net.Pipe without TCP).
func (s *Server) ServeConn(conn net.Conn, remote string) {
	s.startSession(conn, remote)
}

func (s *Server) startSession(conn net.Conn, remote string) {
	sess := &session{
		srv:      s,
		conn:     conn,
		id:       s.nextID.Add(1),
		remote:   remote,
		started:  time.Now(),
		prepared: make(map[string]string),
	}
	sess.last.Store(sess.started.UnixMicro())
	sess.state.Store(stateIdle)
	sess.current.Store("")

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	s.accepted.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.run()
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
	}()
}

// admit blocks until an execution slot frees, ctx is done, or the wait
// queue is already full (ErrOverloaded, without blocking). release must be
// called exactly once when err is nil.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return nil, ErrOverloaded
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Shutdown drains the server: the listeners close (no new sessions), idle
// sessions are told to disconnect, and in-flight statements get up to
// DrainTimeout (bounded additionally by ctx) before their contexts are
// cancelled and the connections closed. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if !already {
		s.ln.Close()
		for _, sess := range sessions {
			sess.beginDrain()
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.forceClose(done)
	case <-ctx.Done():
		s.forceClose(done)
	}
	if s.admin != nil {
		s.admin.Close()
	}
	s.lnWg.Wait()
	return ctx.Err()
}

// forceClose cancels every in-flight statement and closes the remaining
// connections, then waits for their goroutines.
func (s *Server) forceClose(done chan struct{}) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	// Close outside mu: Close can block, and the session goroutines we are
	// unblocking need mu to deregister themselves.
	for _, sess := range sessions {
		sess.cancelInflight()
		sess.conn.Close()
	}
	<-done
}

// SessionInfos snapshots every live session for pc.sessions.
func (s *Server) SessionInfos() []systab.SessionInfo {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	out := make([]systab.SessionInfo, len(sessions))
	for i, sess := range sessions {
		out[i] = sess.info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats is the server-level counter snapshot: the benchmark driver reads it
// per run and pcserver prints it after a drain.
type Stats struct {
	Sessions   int
	Accepted   int64
	Statements int64
	Rejected   int64
	Cancelled  int64
	Executing  int
	Queued     int64
}

// StatsNow snapshots the server counters.
func (s *Server) StatsNow() Stats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return Stats{
		Sessions:   n,
		Accepted:   s.accepted.Load(),
		Statements: s.statement.Load(),
		Rejected:   s.rejected.Load(),
		Cancelled:  s.cancelled.Load(),
		Executing:  len(s.sem),
		Queued:     s.queued.Load(),
	}
}
