package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	predcache "github.com/predcache/predcache"
)

func testDB(t *testing.T, rows int) *predcache.DB {
	t.Helper()
	db := predcache.Open(predcache.WithSlices(2))
	schema := predcache.Schema{
		{Name: "id", Type: predcache.Int64},
		{Name: "grp", Type: predcache.String},
		{Name: "val", Type: predcache.Float64},
	}
	if err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	batch := predcache.NewBatch(schema)
	for i := 0; i < rows; i++ {
		batch.Cols[0].Ints = append(batch.Cols[0].Ints, int64(i))
		batch.Cols[1].Strings = append(batch.Cols[1].Strings, []string{"a", "b", "c"}[i%3])
		batch.Cols[2].Floats = append(batch.Cols[2].Floats, float64(i%100))
	}
	batch.N = rows
	if err := db.Insert("t", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestServer(t *testing.T, db *predcache.DB, cfg Config) *Server {
	t.Helper()
	srv, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// client speaks the wire protocol over any net.Conn.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialPipe(t *testing.T, srv *Server) *client {
	t.Helper()
	c1, c2 := net.Pipe()
	srv.ServeConn(c2, "pipe")
	t.Cleanup(func() { c1.Close() })
	return &client{conn: c1, r: bufio.NewReader(c1)}
}

func (c *client) send(t *testing.T, line string) {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("send %q: %v", line, err)
	}
}

func (c *client) line(t *testing.T) string {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	s, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return strings.TrimRight(s, "\n")
}

// query sends sql and parses a full response, returning the data rows (nil
// with ok==false when the server answered err).
func (c *client) query(t *testing.T, sql string) (rows [][]string, errLine string) {
	t.Helper()
	c.send(t, sql)
	head := c.line(t)
	if strings.HasPrefix(head, "err ") {
		return nil, strings.TrimPrefix(head, "err ")
	}
	var nrows, ncols int
	if _, err := fmt.Sscanf(head, "ok %d %d", &nrows, &ncols); err != nil {
		t.Fatalf("bad response header %q", head)
	}
	c.line(t) // header
	for i := 0; i < nrows; i++ {
		rows = append(rows, strings.Split(c.line(t), "\t"))
	}
	if term := c.line(t); term != "." {
		t.Fatalf("bad terminator %q", term)
	}
	return rows, ""
}

func (c *client) queryInt(t *testing.T, sql string) int64 {
	t.Helper()
	rows, errl := c.query(t, sql)
	if errl != "" {
		t.Fatalf("%s: %s", sql, errl)
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("%s: rows %v", sql, rows)
	}
	n, err := strconv.ParseInt(rows[0][0], 10, 64)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return n
}

func TestServerOverTCP(t *testing.T) {
	db := testDB(t, 3000)
	srv := newTestServer(t, db, Config{})
	go srv.Serve()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &client{conn: conn, r: bufio.NewReader(conn)}

	c.send(t, `\ping`)
	if got := c.line(t); got != "pong" {
		t.Fatalf("ping: %q", got)
	}
	if n := c.queryInt(t, "select count(*) as n from t where id < 500"); n != 500 {
		t.Fatalf("count = %d", n)
	}
	if _, errl := c.query(t, "select nope from t"); errl == "" {
		t.Fatal("bad query did not err")
	}
	// The session survives statement errors.
	if n := c.queryInt(t, "select count(*) as n from t"); n != 3000 {
		t.Fatalf("count = %d", n)
	}
	c.send(t, `\quit`)
	if got := c.line(t); got != "bye" {
		t.Fatalf("quit: %q", got)
	}
}

func TestServerPreparedStatements(t *testing.T) {
	db := testDB(t, 3000)
	srv := newTestServer(t, db, Config{})
	c := dialPipe(t, srv)

	c.send(t, `\prepare q1 select count(*) as n from t where id < 500`)
	if got := c.line(t); got != "ok" {
		t.Fatalf("prepare: %q", got)
	}
	c.send(t, `\exec q1`)
	head := c.line(t)
	if head != "ok 1 1" {
		t.Fatalf("exec: %q", head)
	}
	c.line(t) // header
	if got := c.line(t); got != "500" {
		t.Fatalf("exec value: %q", got)
	}
	c.line(t) // terminator
	c.send(t, `\exec nope`)
	if got := c.line(t); !strings.HasPrefix(got, "err ") {
		t.Fatalf("exec missing: %q", got)
	}
	// Prepared statements are visible in pc.sessions.
	if n := c.queryInt(t, "select count(*) as n from pc.sessions where prepared = 1"); n != 1 {
		t.Fatalf("pc.sessions prepared = %d", n)
	}
}

func TestServerSessionsTable(t *testing.T) {
	db := testDB(t, 100)
	srv := newTestServer(t, db, Config{})
	a := dialPipe(t, srv)
	dialPipe(t, srv) // second idle session

	// Both sessions are visible; poll briefly — the second session registers
	// asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := a.queryInt(t, "select count(*) as n from pc.sessions"); n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second session never appeared in pc.sessions")
		}
		time.Sleep(5 * time.Millisecond)
	}
	infos := srv.SessionInfos()
	if len(infos) != 2 || infos[0].Queries == 0 {
		t.Fatalf("infos = %+v", infos)
	}
}

func TestServerAdmissionControl(t *testing.T) {
	db := testDB(t, 100)
	srv := newTestServer(t, db, Config{MaxConcurrent: 1, MaxQueue: 1})

	// Occupy the only execution slot directly, so admission behavior is
	// deterministic without depending on query timing.
	srv.sem <- struct{}{}

	queued := dialPipe(t, srv)
	queued.send(t, "select count(*) as n from t")
	// Wait until that statement is parked in the admission queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("statement never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next statement fails fast with overloaded.
	rejected := dialPipe(t, srv)
	rejected.send(t, "select count(*) as n from t")
	if got := rejected.line(t); !strings.Contains(got, "overloaded") {
		t.Fatalf("want overloaded, got %q", got)
	}
	if srv.StatsNow().Rejected != 1 {
		t.Fatalf("stats = %+v", srv.StatsNow())
	}

	// Freeing the slot lets the queued statement through.
	<-srv.sem
	head := queued.line(t)
	if !strings.HasPrefix(head, "ok ") {
		t.Fatalf("queued statement: %q", head)
	}
}

func TestServerCancelMidQuery(t *testing.T) {
	db := testDB(t, 200000)
	srv := newTestServer(t, db, Config{})
	c := dialPipe(t, srv)

	// A self-join slow enough to still be running when \cancel lands.
	c.send(t, "select count(*) as n from t a, t b where a.id = b.id")
	time.Sleep(2 * time.Millisecond)
	c.send(t, `\cancel`)

	// Two lines arrive: the cancel ack ("ok") and the statement response —
	// either "err ... canceled" (cancel won) or a full result (query won).
	sawAck, sawCancelled := false, false
	for i := 0; i < 2; i++ {
		switch got := c.line(t); {
		case got == "ok":
			sawAck = true
		case strings.HasPrefix(got, "err "):
			if !strings.Contains(got, "cancel") {
				t.Fatalf("unexpected error %q", got)
			}
			sawCancelled = true
		case strings.HasPrefix(got, "ok "):
			// Query finished first: drain its rows.
			var nrows, ncols int
			fmt.Sscanf(got, "ok %d %d", &nrows, &ncols)
			for j := 0; j < nrows+2; j++ {
				c.line(t)
			}
		default:
			t.Fatalf("unexpected line %q", got)
		}
	}
	if !sawAck {
		t.Fatal("no cancel ack")
	}
	if sawCancelled && srv.StatsNow().Cancelled == 0 {
		t.Fatalf("stats = %+v", srv.StatsNow())
	}
	// The session keeps working after a cancelled statement.
	if n := c.queryInt(t, "select count(*) as n from t where id < 10"); n != 10 {
		t.Fatalf("post-cancel count = %d", n)
	}
}

func TestServerDisconnectMidQueryCancels(t *testing.T) {
	db := testDB(t, 200000)
	srv := newTestServer(t, db, Config{})
	c := dialPipe(t, srv)
	c.send(t, "select count(*) as n from t a, t b where a.id = b.id")
	time.Sleep(2 * time.Millisecond)
	c.conn.Close()

	// The session must unwind (its context is cancelled by the reader
	// goroutine noticing the close) without waiting for the query to finish.
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.SessionInfos()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not unwind after disconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerDrain(t *testing.T) {
	db := testDB(t, 100)
	srv := newTestServer(t, db, Config{DrainTimeout: 5 * time.Second})
	c := dialPipe(t, srv)
	if n := c.queryInt(t, "select count(*) as n from t"); n != 100 {
		t.Fatalf("count = %d", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("drain of an idle server took %v", elapsed)
	}
	if got := len(srv.SessionInfos()); got != 0 {
		t.Fatalf("%d sessions after drain", got)
	}
}

// The headline stress test: 1000 concurrent sessions connecting, querying,
// cancelling and disconnecting mid-query against one DB. Run under -race by
// `make race`.
func TestServerThousandConcurrentSessions(t *testing.T) {
	db := testDB(t, 5000)
	srv := newTestServer(t, db, Config{MaxConcurrent: 16})

	const sessions = 1000
	var wg sync.WaitGroup
	var failures atomic.Int64
	errCh := make(chan string, 8)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c1, c2 := net.Pipe()
			srv.ServeConn(c2, fmt.Sprintf("stress-%d", i))
			defer c1.Close()
			// Bound every read AND write: an unbuffered pipe write blocks
			// until the peer reads, and a test bug must fail, not hang.
			c1.SetDeadline(time.Now().Add(120 * time.Second))
			r := bufio.NewReader(c1)
			send := func(line string) bool {
				_, err := fmt.Fprintf(c1, "%s\n", line)
				return err == nil
			}
			read := func() (string, bool) {
				c1.SetReadDeadline(time.Now().Add(60 * time.Second))
				s, err := r.ReadString('\n')
				return strings.TrimRight(s, "\n"), err == nil
			}
			want := 1 + i%4999
			q := fmt.Sprintf("select count(*) as n from t where id < %d", want)
			switch i % 5 {
			case 0: // disconnect mid-query
				send(q)
				return
			case 1: // cancel, then disconnect
				if !send(q) || !send(`\cancel`) {
					return
				}
				for j := 0; j < 2; j++ {
					if _, ok := read(); !ok {
						failures.Add(1)
						return
					}
				}
				// The statement response may be a full result block with
				// unread lines; writing \quit now could deadlock against the
				// server's pending writes on an unbuffered pipe — just
				// disconnect (the deferred Close) like a vanishing client.
			default: // plain query; result must be exact
				if !send(q) {
					failures.Add(1)
					return
				}
				head, ok := read()
				if !ok || !strings.HasPrefix(head, "ok ") {
					failures.Add(1)
					select {
					case errCh <- fmt.Sprintf("session %d: head %q ok=%v", i, head, ok):
					default:
					}
					return
				}
				var nrows, ncols int
				fmt.Sscanf(head, "ok %d %d", &nrows, &ncols)
				read() // column header
				val, _ := read()
				for j := 0; j < nrows; j++ { // remaining rows + terminator
					read()
				}
				if val != strconv.Itoa(want) {
					failures.Add(1)
					select {
					case errCh <- fmt.Sprintf("session %d: got %q want %d", i, val, want):
					default:
					}
					return
				}
				send(`\quit`)
			}
		}(i)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		close(errCh)
		for msg := range errCh {
			t.Error(msg)
		}
		t.Fatalf("%d/%d sessions failed", n, sessions)
	}
	st := srv.StatsNow()
	if st.Accepted != sessions {
		t.Fatalf("accepted %d sessions, want %d", st.Accepted, sessions)
	}
	if st.Rejected != 0 {
		t.Fatalf("%d rejections with the default queue", st.Rejected)
	}
}

// tornConn records what a session writes and can fail one write half-way.
type tornConn struct {
	net.Conn
	out  strings.Builder
	tear bool
}

func (c *tornConn) Write(p []byte) (int, error) {
	if c.tear {
		c.tear = false
		c.out.Write(p[:len(p)/2])
		return len(p) / 2, fmt.Errorf("torn write")
	}
	return c.out.Write(p)
}

// One buffered writer serves every result of a session, and a result whose
// flush fails leaves nothing behind in it: the next frame — an error line
// written straight to the connection, or another result — starts clean.
func TestSessionResultWriterReuse(t *testing.T) {
	db := testDB(t, 10)
	res, err := db.Query("select id from t where id < 3")
	if err != nil {
		t.Fatal(err)
	}
	conn := &tornConn{}
	s := &session{conn: conn}
	const frame = "ok 3 1\nid\n0\n1\n2\n.\n"

	s.writeResult(res)
	w := s.resultW
	s.writeResult(res)
	if s.resultW != w {
		t.Fatal("second result allocated a new writer")
	}
	if got := conn.out.String(); got != frame+frame {
		t.Fatalf("two results wrote %q", got)
	}

	conn.out.Reset()
	conn.tear = true
	s.writeResult(res)
	torn := conn.out.Len()
	s.writeLine("err boom")
	s.writeResult(res)
	if got := conn.out.String()[torn:]; got != "err boom\n"+frame {
		t.Fatalf("frames after a torn write = %q", got)
	}
}
