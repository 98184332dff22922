// Command pcsh is the interactive SQL shell of pcserver: it reads statements
// from stdin, one per line, sends each to the server and prints the framed
// reply as it comes — the "ok <nrows> <ncols>" header, the TSV header and
// rows and the "." terminator of a result set, or a single "ok", "pong",
// "bye" or "err ..." line.
//
// Usage:
//
//	pcsh [-addr 127.0.0.1:5433] [-timeout 30s]
//
// A trailing ';' is dropped, so a line typed at the terminal and a line of a
// SQL script read the same; blank lines and lines starting with "--" are
// skipped:
//
//	pcsh -addr 127.0.0.1:5433 < workload.sql
//
// The dataset, cache and logging flags belong to pcserver, which owns the
// database. EXPLAIN prints the plan; EXPLAIN ANALYZE executes the statement
// and annotates each operator with wall time, cardinalities and per-scan
// cache outcomes.
//
// Meta commands expand to SQL over the server's pc.* system tables:
//
//	\stats          scan counters of the newest pc.query_log row
//	\cache          predicate-cache counters from pc.cache_stats
//	\entries        predicate-cache entries from pc.cache_entries
//	\log            recent queries from pc.query_log (newest first)
//	\storage        per-column storage breakdown from pc.table_storage
//	\trace [id]     retained traces from pc.traces, or trace id's spans from pc.trace_spans
//	\slo            latency percentiles per query class from pc.slo
//	\top            heaviest query shapes by attributed CPU from pc.query_shapes
//	\explain <sql>  show the plan without executing
//	\tables         tables and their row counts from pc.table_storage
//	\q, exit, quit  quit
//
// The server is shared: the newest pc.query_log row that \stats reads may be
// another session's statement. The session commands \prepare <name> <sql>,
// \exec <name>, \cancel, \ping and \quit pass through unchanged.
//
// The shell waits for each reply before it reads the next line, so a \cancel
// typed after a long statement reaches the server only once that statement
// has finished, and cancels nothing; \cancel is for clients that pipeline.
// To abort a running statement from pcsh, press Ctrl-C: the shell exits, the
// server sees the session disconnect and cancels the statement. A reply that
// takes longer than -timeout (default 30s) also ends the shell with status 1.
//
// The pc.*
// tables join against user tables like any other — e.g. the spans of the
// slowest retained traces:
//
//	SELECT s.name, s.dur_us FROM pc.trace_spans s, pc.traces t
//	WHERE s.trace_id = t.trace_id AND t.reason = 'slow'
//
// Exit status is 0 when every statement got a reply and the input or the
// session ended cleanly; transport errors and reply timeouts exit 1.
// Statement errors ("err ..." replies) are part of the protocol: they are
// printed and do not fail the shell.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"
)

// metaSQL is the SQL each argument-free meta command sends.
var metaSQL = map[string]string{
	`\stats`:   "select seq, rows_scanned, rows_qualified, blocks_accessed, blocks_pruned_zonemap, blocks_pruned_cache, cache_hits, cache_misses from pc.query_log order by seq desc limit 1",
	`\cache`:   "select entries, mem_bytes, hits, misses, inserts, extends, invalidations, evictions from pc.cache_stats",
	`\entries`: "select kind, semijoin, est_rows, mem_bytes, hits, key from pc.cache_entries",
	`\log`:     "select seq, query_text, wall_us, result_rows, cache_hits, cache_misses, slow from pc.query_log order by seq desc limit 20",
	`\storage`: "select table_name, column_name, column_type, result_rows, blocks, payload_bytes, zonemap_bytes, dict_bytes from pc.table_storage order by table_name",
	`\trace`:   "select trace_id, query_class, cache_hit, reason, wall_us, spans, error, query_text from pc.traces order by trace_id desc limit 20",
	`\slo`:     "select query_class, cache_outcome, sample_count, p50_us, p99_us, p999_us, max_us, exemplar_trace_id from pc.slo",
	`\top`:     "select shape_id, calls, cpu_us, p99_cpu_us, allocs, cache_hit_rate, shape_text from pc.query_shapes order by cpu_us desc limit 20",
	`\tables`:  "select table_name, count(*) as columns, max(result_rows) as result_rows from pc.table_storage group by table_name order by table_name",
	`\q`:       `\quit`,
	"exit":     `\quit`,
	"quit":     `\quit`,
}

// expand turns one input line into the line sent to the server: meta
// commands become their SQL, everything else (SQL and the session commands)
// goes as typed.
func expand(line string) (string, error) {
	if q, ok := metaSQL[line]; ok {
		return q, nil
	}
	if rest, ok := strings.CutPrefix(line, `\trace `); ok {
		id, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return "", fmt.Errorf(`\trace wants a trace id: %w`, err)
		}
		return fmt.Sprintf("select span_id, parent_id, kind, name, dur_us, attrs from pc.trace_spans where trace_id = %d order by span_id", id), nil
	}
	if rest, ok := strings.CutPrefix(line, `\explain `); ok {
		return "explain " + rest, nil
	}
	return line, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:5433", "pcserver address")
	timeout := flag.Duration("timeout", 30*time.Second, "per-reply read deadline")
	flag.Parse()

	conn, err := net.DialTimeout("tcp", *addr, *timeout)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 64*1024), 1<<20)
	r := bufio.NewReader(conn)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	for in.Scan() {
		line := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(in.Text()), ";"))
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		stmt, err := expand(line)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			continue
		}
		if err := conn.SetDeadline(time.Now().Add(*timeout)); err != nil {
			fatal(err)
		}
		if _, err := fmt.Fprintf(conn, "%s\n", stmt); err != nil {
			fatal(err)
		}
		resp, err := readLine(r)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", stmt, err))
		}
		fmt.Fprintln(out, resp)
		if resp == "bye" {
			return
		}
		// A result set follows its "ok <nrows> <ncols>" header; relay it
		// through the terminating "." line. Bare "ok" acks have no body.
		var nrows, ncols int
		if n, _ := fmt.Sscanf(resp, "ok %d %d", &nrows, &ncols); n == 2 {
			for {
				row, err := readLine(r)
				if err != nil {
					fatal(fmt.Errorf("%s: result body: %w", stmt, err))
				}
				fmt.Fprintln(out, row)
				if row == "." {
					break
				}
			}
		}
		// Interactive use sees each reply before typing the next line.
		out.Flush()
	}
	if err := in.Err(); err != nil {
		fatal(err)
	}
}

func readLine(r *bufio.Reader) (string, error) {
	s, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pcsh: %v\n", err)
	os.Exit(1)
}
