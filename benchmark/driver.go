package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	predcache "github.com/predcache/predcache"
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/server"
)

// FNV-1a, inlined so hashing a response allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// resultHash accumulates an order-insensitive digest of a result set: the
// header line's hash, plus the wrapping sum of every row line's hash, plus
// the row count. The wire client feeds it response lines; hashRelation feeds
// it the same lines rendered from an in-process result.
type resultHash struct {
	header uint64
	sum    uint64
	rows   uint64
}

func (h *resultHash) value() uint64 {
	return (h.header*31+h.sum)*31 + h.rows
}

// hashRelation digests an in-process result exactly as the wire client
// digests the server's rendering of it (tab-separated StringValue cells).
func hashRelation(res *predcache.Result) uint64 {
	var h resultHash
	line := []byte(strings.Join(res.ColumnNames(), "\t"))
	h.header = fnvAdd(fnvOffset, line)
	for row := 0; row < res.NumRows(); row++ {
		line = line[:0]
		for col := 0; col < res.NumCols(); col++ {
			if col > 0 {
				line = append(line, '\t')
			}
			line = append(line, res.StringValue(row, col)...)
		}
		h.sum += fnvAdd(fnvOffset, line)
		h.rows++
	}
	return h.value()
}

// wireClient is one closed-loop session speaking internal/server's line
// protocol: it sends a statement and reads the whole framed response before
// the caller may send the next.
type wireClient struct {
	conn net.Conn
	r    *bufio.Reader
	out  []byte
}

func dialWire(addr string) (*wireClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &wireClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *wireClient) close() {
	c.conn.Close()
}

func (c *wireClient) send(line string) error {
	c.out = append(append(c.out[:0], line...), '\n')
	if err := c.conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return err
	}
	_, err := c.conn.Write(c.out)
	return err
}

// readLine returns the next response line without its newline. The slice is
// only valid until the next read. Lines longer than the buffer are joined.
func (c *wireClient) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		long := append([]byte(nil), line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = c.r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// ping measures one \ping round trip.
func (c *wireClient) ping() error {
	if err := c.send(`\ping`); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if string(line) != "pong" {
		return fmt.Errorf("ping: got %q", line)
	}
	return nil
}

// query executes one statement and returns the digest of its result set and
// the number of response bytes. An "err" response is returned as an error.
func (c *wireClient) query(sql string) (hash uint64, nbytes int, err error) {
	if err := c.send(sql); err != nil {
		return 0, 0, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, 0, err
	}
	nbytes = len(line) + 1
	if !strings.HasPrefix(string(line), "ok ") {
		return 0, nbytes, fmt.Errorf("server: %s", line)
	}
	nrows, _, ok := strings.Cut(string(line[3:]), " ")
	want, convErr := strconv.Atoi(nrows)
	if !ok || convErr != nil {
		return 0, nbytes, fmt.Errorf("malformed response header %q", line)
	}
	var h resultHash
	if line, err = c.readLine(); err != nil {
		return 0, nbytes, err
	}
	nbytes += len(line) + 1
	h.header = fnvAdd(fnvOffset, line)
	for i := 0; i < want; i++ {
		if line, err = c.readLine(); err != nil {
			return 0, nbytes, err
		}
		nbytes += len(line) + 1
		h.sum += fnvAdd(fnvOffset, line)
		h.rows++
	}
	if line, err = c.readLine(); err != nil {
		return 0, nbytes, err
	}
	nbytes += len(line) + 1
	if string(line) != "." {
		return 0, nbytes, fmt.Errorf("missing result terminator, got %q", line)
	}
	return h.value(), nbytes, nil
}

// instance is one set-up workload: its database, the server in front of it
// and one executor per session, warmed up and ready for the timed window.
type instance struct {
	spec      workloadSpec
	db        *predcache.DB
	srv       *server.Server
	serveErr  chan error
	executors []executor
}

// executor runs one session's operations, over the wire or in-process.
type executor interface {
	// exec runs op and returns the result digest (reads only).
	exec(o op) (hash uint64, err error)
	stream() stream
	close()
}

type wireExecutor struct {
	c  *wireClient
	st stream
}

func (e *wireExecutor) exec(o op) (uint64, error) {
	hash, _, err := e.c.query(o.sql)
	return hash, err
}
func (e *wireExecutor) stream() stream { return e.st }
func (e *wireExecutor) close()         { e.c.close() }

// dbExecutor applies operations straight to a DB: the mixed_dml workload
// (the wire protocol carries no DML) and every twin.
type dbExecutor struct {
	db *predcache.DB
	st stream
}

func (e *dbExecutor) stream() stream { return e.st }
func (e *dbExecutor) close()         {}

func (e *dbExecutor) exec(o op) (uint64, error) {
	switch o.kind {
	case opRead:
		res, err := e.db.Query(o.sql)
		if err != nil {
			return 0, err
		}
		return hashRelation(res), nil
	case opInsert:
		return 0, e.db.Insert("events", o.batch)
	case opDelete, opUpdate:
		pred, err := predcache.ParseWhere(o.sql)
		if err != nil {
			return 0, err
		}
		if o.kind == opDelete {
			_, err = e.db.DeleteWhere("events", pred)
		} else {
			_, err = e.db.UpdateWhere("events", pred, bumpQty)
		}
		return 0, err
	default:
		return 0, e.db.Vacuum("events")
	}
}

// setUp builds the workload's database, starts the server, connects the
// sessions and runs each session's warm-up operations. Everything it does
// is what setup_s times.
func setUp(spec workloadSpec, sz sizes, seed int64) (*instance, error) {
	db, err := spec.open(sz, seed, false)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", spec.name, err)
	}
	in := &instance{spec: spec, db: db}
	if spec.sessions == 0 {
		in.executors = []executor{&dbExecutor{db: db, st: spec.stream(sz, seed, 0)}}
	} else {
		if err := in.serve(); err != nil {
			return nil, err
		}
		for s := 0; s < spec.sessions; s++ {
			c, err := dialWire(in.srv.Addr())
			if err != nil {
				in.tearDown()
				return nil, err
			}
			in.executors = append(in.executors, &wireExecutor{c: c, st: spec.stream(sz, seed, s)})
		}
	}
	warm := spec.warmup(sz)
	for _, ex := range in.executors {
		for i := 0; i < warm; i++ {
			if _, err := ex.exec(ex.stream().next()); err != nil {
				in.tearDown()
				return nil, fmt.Errorf("%s: warm-up: %w", spec.name, err)
			}
		}
	}
	return in, nil
}

// serve boots internal/server over the instance's database on an ephemeral
// loopback port, as cmd/pcserver does.
func (in *instance) serve() error {
	srv, err := server.New(in.db, server.Config{})
	if err != nil {
		return fmt.Errorf("%s: %w", in.spec.name, err)
	}
	in.srv = srv
	in.serveErr = make(chan error, 1)
	// pclint:allow goroutinectx: Serve returns once tearDown calls Shutdown, and tearDown waits on serveErr
	go func() { in.serveErr <- srv.Serve() }()
	return nil
}

// tearDown closes the sessions and drains the server.
func (in *instance) tearDown() {
	for _, ex := range in.executors {
		ex.close()
	}
	in.executors = nil
	if in.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		in.srv.Shutdown(ctx)
		cancel()
		<-in.serveErr
		in.srv = nil
	}
}

// sample is one executed operation of the timed window.
type sample struct {
	kind  opKind
	sql   string
	hash  uint64
	at    int64 // when the operation was sent, in ns since the window opened
	nanos int64
	err   error
}

// window is what the timed window measured, before verification.
type window struct {
	samples  [][]sample // per session, in execution order
	elapsed  time.Duration
	cpu      usage
	allocKB  float64
	peakRSS  int64
	rejected int64
	cache    core.Stats
}

// runWindow drives every session closed-loop for d: each sends its next
// operation only after the previous reply arrived, the way a dashboard or an
// ETL job waits for its answer.
func (in *instance) runWindow(d time.Duration) window {
	w := window{samples: make([][]sample, len(in.executors))}
	for i := range w.samples {
		w.samples[i] = make([]sample, 0, 1<<17)
	}
	// Return set-up garbage to the OS first, so the peak below is the
	// workload's own: table data, cache bytes and per-query garbage.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readUsage()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, ex := range in.executors {
		wg.Add(1)
		go func(i int, ex executor) {
			defer wg.Done()
			st := ex.stream()
			for time.Now().Before(deadline) {
				o := st.next()
				t0 := time.Now()
				hash, err := ex.exec(o)
				w.samples[i] = append(w.samples[i], sample{
					kind: o.kind, sql: o.sql, hash: hash, at: t0.Sub(start).Nanoseconds(), nanos: time.Since(t0).Nanoseconds(), err: err,
				})
			}
		}(i, ex)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = readUsage().sub(cpu0)
	runtime.ReadMemStats(&ms1)
	w.peakRSS = rss.stop()
	w.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	if in.srv != nil {
		w.rejected = in.srv.StatsNow().Rejected
	}
	w.cache = in.db.CacheStats()
	return w
}

// latencies returns the sorted latencies in milliseconds of the samples
// selected by keep.
func (w *window) latencies(keep func(*sample) bool) []float64 {
	var out []float64
	for _, ss := range w.samples {
		for i := range ss {
			if keep(&ss[i]) {
				out = append(out, float64(ss[i].nanos)/1e6)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// Slicing of the timed window for tail latency. A percentile over the whole
// window follows whatever the shared host did during its worst second; the
// median over time slices of each slice's percentile does not, and a stall
// that lasts still moves it. A slice keeps at least minSliceSamples samples
// on average, so that ten or more lie beyond its 99th percentile.
const (
	maxSlices       = 20
	minSliceSamples = 1000
)

// slicePercentiles cuts the window into equal time slices and returns the
// q-quantile of the selected samples' latencies (ms) in each non-empty slice.
func (w *window) slicePercentiles(q float64, keep func(*sample) bool) []float64 {
	n := 0
	for _, ss := range w.samples {
		for i := range ss {
			if keep(&ss[i]) {
				n++
			}
		}
	}
	k := min(max(n/minSliceSamples, 1), maxSlices)
	width := w.elapsed.Nanoseconds()/int64(k) + 1
	slices := make([][]float64, k)
	for _, ss := range w.samples {
		for i := range ss {
			if keep(&ss[i]) {
				j := min(int(ss[i].at/width), k-1)
				slices[j] = append(slices[j], float64(ss[i].nanos)/1e6)
			}
		}
	}
	var out []float64
	for _, lat := range slices {
		if len(lat) > 0 {
			sort.Float64s(lat)
			out = append(out, percentile(lat, q))
		}
	}
	return out
}
