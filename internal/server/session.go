package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/systab"
)

// Wire protocol (newline-delimited text, one statement per line):
//
//	<sql>                 execute a SELECT / EXPLAIN statement
//	\prepare <name> <sql> remember sql under name for this session
//	\exec <name>          execute the statement prepared under name
//	\cancel               cancel the statement this session is executing
//	\ping                 liveness check
//	\quit                 close the session
//
// Responses:
//
//	ok <nrows> <ncols>    then a TSV header line, nrows TSV rows, and a
//	                      lone "." terminator line
//	ok                    statement without a result set (\prepare, \cancel)
//	pong                  for \ping
//	bye                   for \quit (then the connection closes)
//	err <message>         failure (single line; message newlines collapsed)
//
// \cancel is read and applied by the session's reader goroutine while the
// statement is still executing — that goroutine only pumps lines and never
// blocks on the engine, which is what makes mid-query cancellation (and
// detecting a vanished client) possible on a single TCP stream.

// session states reported by pc.sessions.
const (
	stateIdle    = "idle"
	stateActive  = "active"
	stateClosing = "closing"
)

// maxLineBytes bounds one wire line (statements and responses).
const maxLineBytes = 1 << 20

// session is one client connection's state.
type session struct {
	srv     *Server
	conn    net.Conn
	id      int64
	remote  string
	started time.Time

	// writeMu serializes response writes: the executor goroutine writes
	// results while the reader goroutine may write \cancel acknowledgements.
	writeMu sync.Mutex
	// resultW buffers result frames; guarded by writeMu and allocated by the
	// session's first result. It is empty whenever writeMu is free, so a line
	// written straight to the connection never lands inside a buffered frame.
	resultW *bufio.Writer

	// cancel aborts the in-flight statement's context; nil when idle.
	cancelMu sync.Mutex
	cancel   context.CancelFunc

	state   atomic.Value // stateIdle | stateActive | stateClosing
	last    atomic.Int64 // unix micros of last statement start/finish
	queries atomic.Int64
	current atomic.Value // string; SQL of the executing statement, "" when idle

	prepMu   sync.Mutex
	prepared map[string]string // guarded by prepMu; pc.sessions reads its size cross-goroutine

	draining atomic.Bool
}

// run owns the session: a reader goroutine pumps lines (handling \cancel
// inline), this goroutine executes them in arrival order.
func (s *session) run() {
	defer s.conn.Close()

	lines := make(chan string)
	readErr := make(chan error, 1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(s.conn)
		sc.Buffer(make([]byte, 64<<10), maxLineBytes)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			if line == `\cancel` {
				// Handled here, not queued: the executor goroutine is busy
				// inside the engine right now.
				s.cancelInflight()
				s.writeLine("ok")
				continue
			}
			lines <- line
		}
		// EOF or a broken connection: abort whatever is executing — the
		// client is gone and nobody will read the result.
		s.cancelInflight()
		readErr <- sc.Err()
	}()

	for line := range lines {
		if s.handleLine(line) || s.draining.Load() {
			break
		}
	}
	// Unblock the reader: close the connection, then swallow any lines it
	// already read before waiting for it — it could be parked on `lines <-`
	// (a client that pipelined statements past \quit) and would otherwise
	// never observe the close.
	s.conn.Close()
	go func() {
		for range lines {
		}
	}()
	if err := <-readErr; err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) && s.srv.log != nil {
		s.srv.log.Error("session read failed", "session", s.id, "error", err.Error())
	}
}

// handleLine executes one protocol line; true means the session should end.
func (s *session) handleLine(line string) (quit bool) {
	switch {
	case line == `\quit`:
		s.writeLine("bye")
		return true
	case line == `\ping`:
		s.writeLine("pong")
		return false
	case strings.HasPrefix(line, `\prepare `):
		rest := strings.TrimSpace(strings.TrimPrefix(line, `\prepare `))
		name, sql, ok := strings.Cut(rest, " ")
		if !ok || strings.TrimSpace(sql) == "" {
			s.writeLine(`err \prepare wants a name and a statement`)
			return false
		}
		s.prepMu.Lock()
		s.prepared[name] = strings.TrimSpace(sql)
		s.prepMu.Unlock()
		s.writeLine("ok")
		return false
	case strings.HasPrefix(line, `\exec `):
		name := strings.TrimSpace(strings.TrimPrefix(line, `\exec `))
		s.prepMu.Lock()
		sql, ok := s.prepared[name]
		s.prepMu.Unlock()
		if !ok {
			s.writeLine(fmt.Sprintf("err no prepared statement %q", name))
			return false
		}
		s.execute(sql)
		return false
	case strings.HasPrefix(line, `\`):
		s.writeLine(fmt.Sprintf("err unknown command %q", line))
		return false
	default:
		s.execute(line)
		return false
	}
}

// execute runs one SQL statement through admission control and the engine,
// then writes the result (or error) as a wire response.
func (s *session) execute(sql string) {
	if s.draining.Load() {
		s.writeLine("err " + ErrDraining.Error())
		return
	}
	// The session label rides the context into per-query resource
	// attribution: every query this connection runs carries a session pprof
	// label, so a profile can be cut by connection as well as by shape.
	ctx, cancel := context.WithCancel(
		predcache.ContextWithSession(context.Background(), "s"+strconv.FormatInt(s.id, 10)))
	s.setCancel(cancel)
	defer func() {
		s.clearCancel()
		cancel()
	}()

	s.state.Store(stateActive)
	s.current.Store(sql)
	s.last.Store(time.Now().UnixMicro())
	defer func() {
		s.state.Store(stateIdle)
		s.current.Store("")
		s.last.Store(time.Now().UnixMicro())
	}()

	release, err := s.srv.admit(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			s.srv.cancelled.Add(1)
		}
		s.writeLine("err " + errLine(err))
		return
	}
	defer release()

	s.srv.statement.Add(1)
	s.queries.Add(1)
	res, err := s.srv.db.QueryCtx(ctx, sql)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			s.srv.cancelled.Add(1)
		}
		s.writeLine("err " + errLine(err))
		return
	}
	s.writeResult(res)
}

// writeResult streams a relation as one buffered wire response.
func (s *session) writeResult(res *predcache.Result) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.resultW == nil {
		s.resultW = bufio.NewWriterSize(s.conn, 32<<10)
	}
	w := s.resultW
	fmt.Fprintf(w, "ok %d %d\n", res.NumRows(), res.NumCols())
	w.WriteString(strings.Join(res.ColumnNames(), "\t"))
	w.WriteByte('\n')
	for row := 0; row < res.NumRows(); row++ {
		for col := 0; col < res.NumCols(); col++ {
			if col > 0 {
				w.WriteByte('\t')
			}
			w.WriteString(sanitize(res.StringValue(row, col)))
		}
		w.WriteByte('\n')
	}
	w.WriteString(".\n")
	if err := w.Flush(); err != nil {
		// The connection is gone (the reader goroutine ends the session).
		// Drop the unsent bytes and the sticky error, so that whatever is
		// written next does not start in the middle of this frame.
		w.Reset(s.conn)
	}
}

// writeLine writes one response line under the write mutex, unbuffered:
// resultW holds nothing between frames.
func (s *session) writeLine(line string) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	io.WriteString(s.conn, line+"\n")
}

// errLine renders an error as a single wire line.
func errLine(err error) string {
	return strings.Join(strings.Fields(err.Error()), " ")
}

// sanitize keeps TSV framing intact for values containing tabs/newlines.
func sanitize(v string) string {
	if !strings.ContainsAny(v, "\t\n\r") {
		return v
	}
	r := strings.NewReplacer("\t", " ", "\n", " ", "\r", " ")
	return r.Replace(v)
}

func (s *session) setCancel(fn context.CancelFunc) {
	s.cancelMu.Lock()
	s.cancel = fn
	s.cancelMu.Unlock()
}

func (s *session) clearCancel() {
	s.cancelMu.Lock()
	s.cancel = nil
	s.cancelMu.Unlock()
}

// cancelInflight aborts the statement this session is executing, if any.
func (s *session) cancelInflight() {
	s.cancelMu.Lock()
	fn := s.cancel
	s.cancelMu.Unlock()
	if fn != nil {
		fn()
	}
}

// beginDrain marks the session closing: the current statement finishes, the
// next one is refused. Idle sessions are closed outright — their reader is
// blocked in Scan and would otherwise hold the drain until timeout.
func (s *session) beginDrain() {
	s.draining.Store(true)
	s.state.Store(stateClosing)
	if s.current.Load() == "" {
		s.conn.Close()
	}
}

// info snapshots the session for pc.sessions.
func (s *session) info() systab.SessionInfo {
	s.prepMu.Lock()
	nprep := len(s.prepared)
	s.prepMu.Unlock()
	state, _ := s.state.Load().(string)
	current, _ := s.current.Load().(string)
	return systab.SessionInfo{
		ID:          s.id,
		RemoteAddr:  s.remote,
		State:       state,
		StartMicros: s.started.UnixMicro(),
		LastMicros:  s.last.Load(),
		Queries:     s.queries.Load(),
		Prepared:    int64(nprep),
		CurrentSQL:  current,
	}
}
