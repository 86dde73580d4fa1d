// Command sqlsh is an interactive shell over the uniqopt engine:
// CREATE TABLE, INSERT INTO … VALUES, data loading via \load,
// queries with the uniqueness optimizer, and side-by-side baseline
// comparison.
//
// With -connect host:port the same REPL runs against a uniqoptd
// server through the wire-protocol client library instead of an
// embedded database: statements and EXPLAIN work identically, \d
// lists the server's tables, and \prepare/\exec drive server-side
// prepared statements with host-variable bindings. Transient dial
// failures are retried with capped, jittered backoff.
//
// With -data DIR the embedded database is crash-safe: writes go
// through a write-ahead log in DIR and are fsynced before the shell
// reports success, and a later sqlsh -data DIR (or uniqoptd -data
// DIR) session recovers them.
//
// Statements end with ';'. EXPLAIN and EXPLAIN ANALYZE prefixes on a
// query print the typed plan tree (with per-operator metrics for
// ANALYZE) and the uniqueness analyzer's provenance trace. Shell
// commands:
//
//	\d              list tables
//	\baseline       toggle baseline (no-rewrite) execution
//	\stats          toggle per-query statistics output
//	\load demo      load the paper's demo supplier database
//	\analyze SQL;   analyze without executing
//	\help           describe statements and commands
//	\q              quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"uniqopt"
	"uniqopt/internal/server/client"
	"uniqopt/internal/workload"
)

// helpText documents the shell's statements and commands (\help).
const helpText = `statements (end with ';'):
  CREATE TABLE ...           define a table (keys, CHECKs, FKs)
  INSERT INTO t VALUES ...   insert rows (fsynced before 'ok' with -data)
  SELECT ... / INTERSECT / EXCEPT
                             run a query through the uniqueness optimizer
  EXPLAIN <query>;           show the plan tree and the analyzer's
                             uniqueness provenance without reading data
  EXPLAIN ANALYZE <query>;   execute and show the plan tree annotated
                             with per-operator rows and wall time
commands:
  \d              list tables
  \baseline       toggle baseline (no-rewrite) execution
  \stats          toggle per-query statistics output
  \load demo      load the paper's demo supplier database
  \analyze SQL;   run Algorithm 1 on a query without executing it
  \help           this message
  \q              quit
`

func main() {
	connect := flag.String("connect", "", "connect to a uniqoptd server at host:port instead of running embedded")
	data := flag.String("data", "", "open this crash-safe data directory instead of an in-memory database (embedded mode)")
	flag.Parse()
	var err error
	switch {
	case *connect != "":
		// Transient dial failures (a daemon still binding or
		// restarting) are retried with backoff before giving up.
		var c *client.Client
		if c, err = client.DialRetry(*connect, client.Options{}); err == nil {
			defer c.Close()
			err = remoteRepl(os.Stdin, os.Stdout, c)
		}
	case *data != "":
		var db *uniqopt.DB
		if db, err = uniqopt.OpenPersistent(*data, uniqopt.Options{}); err == nil {
			err = replDB(os.Stdin, os.Stdout, db)
			if cerr := db.Close(); err == nil {
				err = cerr
			}
		}
	default:
		err = repl(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlsh:", err)
		os.Exit(1)
	}
}

type shell struct {
	db       *uniqopt.DB
	baseline bool
	stats    bool
	out      io.Writer
}

func repl(in io.Reader, out io.Writer) error {
	return replDB(in, out, uniqopt.Open())
}

func replDB(in io.Reader, out io.Writer, db *uniqopt.DB) error {
	sh := &shell{db: db, out: out}
	return replLoop(in, out,
		"uniqopt sqlsh — statements end with ';', \\q quits, \\load demo loads the paper schema",
		sh.command, sh.execute)
}

// replLoop is the statement-accumulating read loop shared by the
// embedded and remote shells: '\'-commands run immediately,
// statements run when the terminating ';' arrives.
func replLoop(in io.Reader, out io.Writer, banner string, command func(string) bool, execute func(string)) error {
	fmt.Fprintln(out, banner)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(out, "sql> ")
		} else {
			fmt.Fprint(out, "...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if strings.TrimSpace(buf.String()) == "" {
			buf.Reset()
		}
		if buf.Len() == 0 && trimmed == "" {
			prompt()
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if quit := command(trimmed); quit {
				return nil
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := strings.TrimSpace(buf.String())
			stmt = strings.TrimSuffix(stmt, ";")
			buf.Reset()
			execute(stmt)
		}
		prompt()
	}
	return sc.Err()
}

func (sh *shell) command(cmd string) (quit bool) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\d":
		for _, name := range sh.db.Store().Catalog().TableNames() {
			t, _ := sh.db.Store().Catalog().Table(name)
			st, _ := sh.db.Store().Table(name)
			fmt.Fprintf(sh.out, "%s (%s) — %d rows\n",
				name, strings.Join(t.ColumnNames(), ", "), st.Len())
		}
	case "\\baseline":
		sh.baseline = !sh.baseline
		fmt.Fprintf(sh.out, "baseline execution: %v\n", sh.baseline)
	case "\\stats":
		sh.stats = !sh.stats
		fmt.Fprintf(sh.out, "statistics output: %v\n", sh.stats)
	case "\\load":
		if len(fields) < 2 || fields[1] != "demo" {
			fmt.Fprintln(sh.out, "usage: \\load demo")
			break
		}
		sh.loadDemo()
	case "\\help", "\\h", "\\?":
		fmt.Fprint(sh.out, helpText)
	case "\\analyze":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\analyze"))
		rest = strings.TrimSuffix(rest, ";")
		a, err := sh.db.Analyze(rest)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		fmt.Fprintf(sh.out, "unique=%v distinct-redundant=%v V=%v\n",
			a.Unique, a.DistinctRedundant, a.BoundColumns)
	default:
		fmt.Fprintf(sh.out, "unknown command %s\n", fields[0])
	}
	return false
}

func (sh *shell) loadDemo() {
	if len(sh.db.Store().Catalog().TableNames()) > 0 {
		fmt.Fprintln(sh.out, "error: \\load demo needs an empty database (tables already defined)")
		return
	}
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 25
	cfg.PartsPerSupplier = 4
	fresh, err := workload.NewDB(cfg)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	for _, ddl := range workload.BenchDDL {
		if err := sh.db.Exec(ddl); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
	}
	for _, name := range []string{"SUPPLIER", "PARTS", "AGENTS"} { // parents before FK children
		src := fresh.MustTable(name)
		for i := 0; i < src.Len(); i++ {
			if err := sh.db.InsertRow(name, src.Row(i)); err != nil {
				fmt.Fprintln(sh.out, "error:", err)
				return
			}
		}
	}
	if err := sh.db.Sync(); err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	fmt.Fprintln(sh.out, "demo supplier database loaded (25 suppliers, 100 parts, 50 agents)")
}

func (sh *shell) execute(stmt string) {
	stmt = strings.TrimSpace(stmt)
	upper := strings.ToUpper(stmt)
	if strings.HasPrefix(upper, "EXPLAIN") {
		rest := strings.TrimSpace(stmt[len("EXPLAIN"):])
		analyze := false
		if up := strings.ToUpper(rest); strings.HasPrefix(up, "ANALYZE ") || strings.HasPrefix(up, "ANALYZE\n") || strings.HasPrefix(up, "ANALYZE\t") {
			analyze = true
			rest = strings.TrimSpace(rest[len("ANALYZE"):])
		}
		e, err := sh.db.ExplainWith(context.Background(), rest, nil, !sh.baseline, analyze)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		fmt.Fprint(sh.out, e.String())
		if sh.stats && analyze {
			fmt.Fprintf(sh.out, "stats: %s\n", e.Stats.String())
		}
		return
	}
	if strings.HasPrefix(upper, "CREATE") {
		if err := sh.db.Exec(stmt); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		fmt.Fprintln(sh.out, "ok")
		return
	}
	if strings.HasPrefix(upper, "INSERT") {
		n, err := sh.db.ExecWith(stmt, nil)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		// Make the rows durable before claiming success.
		if err := sh.db.Sync(); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		fmt.Fprintf(sh.out, "INSERT %d\n", n)
		return
	}
	rows, err := sh.db.QueryWith(stmt, nil, !sh.baseline)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	for _, info := range rows.Rewrites {
		fmt.Fprintf(sh.out, "-- rewrite [%s]: %s\n", info.Rule, info.After)
	}
	printRows(sh.out, rows.Columns, rows.Data)
	if sh.stats {
		fmt.Fprintf(sh.out, "stats: %s\n", rows.Stats.String())
	}
}

// printRows renders a result table: pipe-separated header, rows with
// NULL spelled out, and a row count.
func printRows(out io.Writer, cols []string, data [][]any) {
	fmt.Fprintln(out, strings.Join(cols, " | "))
	for _, r := range data {
		cells := make([]string, len(r))
		for i, v := range r {
			if v == nil {
				cells[i] = "NULL"
			} else {
				cells[i] = fmt.Sprint(v)
			}
		}
		fmt.Fprintln(out, strings.Join(cells, " | "))
	}
	fmt.Fprintf(out, "(%d rows)\n", len(data))
}

// remoteHelpText documents the remote shell's commands.
const remoteHelpText = `statements (end with ';'):
  CREATE TABLE ...           define a table on the server
  SELECT ... / INTERSECT / EXCEPT
                             run a query through the server's optimizer
  EXPLAIN [ANALYZE] <query>; show the server's plan tree and the
                             analyzer's uniqueness provenance
commands:
  \d                    list the server's tables
  \prepare NAME SQL;    prepare a statement under NAME in this session
  \exec NAME [K=V ...]  run a prepared statement; values: 123, 'text',
                        true/false, NULL
  \help                 this message
  \q                    quit
`

// remoteShell drives a uniqoptd session: same REPL, statements
// travel the wire.
type remoteShell struct {
	c   *client.Client
	out io.Writer
}

func remoteRepl(in io.Reader, out io.Writer, c *client.Client) error {
	sh := &remoteShell{c: c, out: out}
	info := c.Info()
	banner := fmt.Sprintf("uniqopt sqlsh — connected to %s (session %d, %d tables); statements end with ';', \\q quits",
		info.Server, info.Session, len(info.Tables))
	return replLoop(in, out, banner, sh.command, sh.execute)
}

func (sh *remoteShell) command(cmd string) (quit bool) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\d":
		info, err := sh.c.Refresh()
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		for _, name := range info.Tables {
			fmt.Fprintln(sh.out, name)
		}
	case "\\prepare":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\prepare"))
		rest = strings.TrimSuffix(rest, ";")
		name, sql, ok := strings.Cut(rest, " ")
		if !ok || strings.TrimSpace(sql) == "" {
			fmt.Fprintln(sh.out, "usage: \\prepare NAME SELECT ...;")
			break
		}
		if err := sh.c.Prepare(name, strings.TrimSpace(sql)); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		fmt.Fprintf(sh.out, "prepared %s\n", name)
	case "\\exec":
		if len(fields) < 2 {
			fmt.Fprintln(sh.out, "usage: \\exec NAME [K=V ...]")
			break
		}
		name := strings.TrimSuffix(fields[1], ";")
		args, err := parseExecArgs(fields[2:])
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		res, err := sh.c.Exec(name, args)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		sh.printResult(res)
	case "\\help", "\\h", "\\?":
		fmt.Fprint(sh.out, remoteHelpText)
	default:
		fmt.Fprintf(sh.out, "unknown command %s (remote mode; \\help lists commands)\n", fields[0])
	}
	return false
}

// parseExecArgs turns K=V fields into host-variable bindings: 123 is
// INTEGER, 'text' (or bare text) is VARCHAR, true/false BOOLEAN, and
// NULL the null value.
func parseExecArgs(fields []string) (map[string]any, error) {
	if len(fields) == 0 {
		return nil, nil
	}
	args := make(map[string]any, len(fields))
	for _, f := range fields {
		f = strings.TrimSuffix(f, ";")
		if f == "" {
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("binding %q is not K=V", f)
		}
		switch {
		case v == "NULL" || v == "null":
			args[k] = nil
		case v == "true" || v == "false":
			args[k] = v == "true"
		default:
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				args[k] = n
			} else {
				args[k] = strings.Trim(v, "'")
			}
		}
	}
	return args, nil
}

func (sh *remoteShell) execute(stmt string) {
	stmt = strings.TrimSpace(stmt)
	upper := strings.ToUpper(stmt)
	if strings.HasPrefix(upper, "EXPLAIN") {
		rest := strings.TrimSpace(stmt[len("EXPLAIN"):])
		analyze := false
		if up := strings.ToUpper(rest); strings.HasPrefix(up, "ANALYZE ") || strings.HasPrefix(up, "ANALYZE\n") || strings.HasPrefix(up, "ANALYZE\t") {
			analyze = true
			rest = strings.TrimSpace(rest[len("ANALYZE"):])
		}
		text, _, err := sh.c.Explain(rest, analyze)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		fmt.Fprint(sh.out, text)
		return
	}
	res, err := sh.c.Query(stmt)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if strings.HasPrefix(upper, "CREATE") {
		fmt.Fprintf(sh.out, "ok (catalog version %d)\n", res.CatalogVersion)
		return
	}
	if strings.HasPrefix(upper, "INSERT") {
		fmt.Fprintf(sh.out, "INSERT %d\n", res.RowsAffected)
		return
	}
	sh.printResult(res)
}

func (sh *remoteShell) printResult(res *client.Result) {
	for _, info := range res.Rewrites {
		fmt.Fprintf(sh.out, "-- rewrite [%s]: %s\n", info.Rule, info.Description)
	}
	if res.Reprepared {
		fmt.Fprintln(sh.out, "-- statement re-validated after schema change")
	}
	printRows(sh.out, res.Columns, res.Rows)
}
