package client_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"uniqopt"
	"uniqopt/internal/server"
	"uniqopt/internal/server/client"
	"uniqopt/internal/testleak"
)

// serve runs a server over db on a loopback listener, shut down in
// cleanup, and returns a session on it.
func serve(t *testing.T, db *uniqopt.DB, cfg server.Config) *client.Client {
	t.Helper()
	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestValuesRoundTrip binds every kind of value the protocol has, at
// its extremes, stores it through a real server and reads it back: the
// cells that come out are the Go values that went in.
func TestValuesRoundTrip(t *testing.T) {
	testleak.Check(t)
	db := uniqopt.Open()
	if err := db.Exec(`CREATE TABLE V (K INTEGER NOT NULL, N INTEGER, S VARCHAR, B BOOLEAN, PRIMARY KEY (K))`); err != nil {
		t.Fatal(err)
	}
	c := serve(t, db, server.Config{})
	if err := c.Prepare("put", `INSERT INTO V VALUES (:K, :N, :S, :B)`); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("get", `SELECT V.K, V.N, V.S, V.B FROM V WHERE V.K = :K`); err != nil {
		t.Fatal(err)
	}
	rows := [][]any{
		{int64(math.MaxInt64), int64(math.MinInt64), "quote \" slash \\ <html> &  \u2028 \x00 \u00e9 \U0001f600", true},
		{int64(math.MinInt64), int64(math.MaxInt64), "", false},
		{int64(0), nil, nil, nil},
	}
	for _, row := range rows {
		res, err := c.Exec("put", map[string]any{"K": row[0], "N": row[1], "S": row[2], "B": row[3]})
		if err != nil || res.RowsAffected != 1 {
			t.Fatalf("put %v: %+v, %v", row, res, err)
		}
	}
	for _, row := range rows {
		res, err := c.Exec("get", map[string]any{"K": row[0]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, [][]any{row}) {
			t.Fatalf("get %v = %#v", row[0], res.Rows)
		}
	}
	// A Go int binds like an int64.
	if res, err := c.Exec("get", map[string]any{"K": 0}); err != nil || len(res.Rows) != 1 {
		t.Fatalf("int binding: %+v, %v", res, err)
	}
	// A value the protocol has no type for is refused before anything is
	// sent, so the session is still in step afterwards.
	if _, err := c.Exec("get", map[string]any{"K": 1.5}); err == nil || !strings.Contains(err.Error(), "host :K") {
		t.Fatalf("float binding err = %v", err)
	}
	if res, err := c.Exec("get", map[string]any{"K": int64(0)}); err != nil || len(res.Rows) != 1 {
		t.Fatalf("after a refused binding: %+v, %v", res, err)
	}
}

// TestRemoteErrorIs: a budget overrun on the server satisfies the
// embedded library's sentinel and carries the governor's accounting; an
// ordinary failure does not.
func TestRemoteErrorIs(t *testing.T) {
	testleak.Check(t)
	db := uniqopt.Open()
	if err := db.Exec(`CREATE TABLE T (N INTEGER NOT NULL, PRIMARY KEY (N))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := db.Insert("T", i); err != nil {
			t.Fatal(err)
		}
	}
	c := serve(t, db, server.Config{SessionMaxRows: 100})

	_, err := c.Query(`SELECT A.N, B.N FROM T A, T B WHERE A.N < B.N`)
	var re *client.RemoteError
	if !errors.Is(err, uniqopt.ErrBudgetExceeded) || !errors.As(err, &re) {
		t.Fatalf("err = %v, want a RemoteError matching ErrBudgetExceeded", err)
	}
	if re.Code != server.CodeBudget || re.Resource != "rows" || re.Limit != 100 || re.Used <= re.Limit {
		t.Fatalf("budget accounting lost: %+v", re)
	}

	_, err = c.Query(`SELECT FROM`)
	if !errors.As(err, &re) || re.Code != server.CodeParse || errors.Is(err, uniqopt.ErrBudgetExceeded) {
		t.Fatalf("parse failure = %v", err)
	}
	// Neither failure cost the session.
	if res, err := c.Query(`SELECT T.N FROM T WHERE T.N = 7`); err != nil || len(res.Rows) != 1 {
		t.Fatalf("after errors: %+v, %v", res, err)
	}
}

// TestResponseIDMismatch: a response carrying another request's id is
// reported as a desynchronized session, not returned as an answer.
func TestResponseIDMismatch(t *testing.T) {
	testleak.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		// Answer HELLO properly, then every request with a stale id.
		for skew := uint64(0); ; skew = 1 {
			var req server.Request
			if err := server.ReadFrame(conn, &req); err != nil {
				done <- nil
				return
			}
			resp := &server.Response{ID: req.ID - skew, OK: true, Proto: server.ProtocolVersion}
			if err := server.WriteFrame(conn, resp); err != nil {
				done <- err
				return
			}
		}
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT 1`); err == nil || !strings.Contains(err.Error(), "desynchronized") {
		t.Fatalf("err = %v, want a desynchronization report", err)
	}
	if err := c.Abandon(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestExecAfterClose: a closed session refuses work without touching the
// connection, and closing twice is harmless.
func TestExecAfterClose(t *testing.T) {
	testleak.Check(t)
	db := uniqopt.Open()
	c := serve(t, db, server.Config{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("q", nil); err == nil || !strings.Contains(err.Error(), "session closed") {
		t.Fatalf("Exec after Close = %v", err)
	}
	if _, err := c.Query(`SELECT 1`); err == nil {
		t.Fatal("Query after Close succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := c.Abandon(); err != nil {
		t.Fatalf("Abandon after Close = %v", err)
	}
}

// wideDB holds W: 31 rows keyed from 1000, one in group 1 and thirty in
// group 2, each with a string that needs escaping or is not ASCII, a
// boolean and a NULL-able integer.
func wideDB(t *testing.T) *uniqopt.DB {
	t.Helper()
	db := uniqopt.Open()
	if err := db.Exec(`CREATE TABLE W (K INTEGER NOT NULL, G INTEGER, S VARCHAR, B BOOLEAN, N INTEGER, PRIMARY KEY (K))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 31; i++ {
		var n any
		if i%3 != 0 {
			n = i - 15
		}
		if err := db.Insert("W", 1000+i, min(i, 1)+1, fmt.Sprintf("<w-%d> é", i), i%2 == 0, n); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestResultOutlivesTheNextCall: the client decodes every answer into
// its own response and hands the fields on, so a Result must not share
// storage with what a later call decodes — its columns, rows and
// strings are what they were — and each of its rows is its own: an
// append to one cannot reach the next.
func TestResultOutlivesTheNextCall(t *testing.T) {
	testleak.Check(t)
	c := serve(t, wideDB(t), server.Config{})
	if err := c.Prepare("q", `SELECT W.K, W.S, W.B, W.N FROM W WHERE W.G = :G`); err != nil {
		t.Fatal(err)
	}
	first, err := c.Exec("q", map[string]any{"G": 2})
	if err != nil || len(first.Rows) != 30 {
		t.Fatalf("group 2: %+v, %v", first, err)
	}
	want := &client.Result{Columns: slices.Clone(first.Columns), CatalogVersion: first.CatalogVersion}
	for _, row := range first.Rows {
		row = slices.Clone(row)
		row[1] = strings.Clone(row[1].(string))
		want.Rows = append(want.Rows, row)
	}
	if second, err := c.Exec("q", map[string]any{"G": 1}); err != nil || len(second.Rows) != 1 {
		t.Fatalf("group 1: %+v, %v", second, err)
	}
	if _, err := c.Query(`SELECT W.S, W.K FROM W WHERE W.K = 1000`); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("a later call changed an earlier Result:\n got %v\nwant %v", first, want)
	}

	row1 := slices.Clone(first.Rows[1])
	first.Rows[0] = append(first.Rows[0], "appended")
	if !reflect.DeepEqual(first.Rows[1], row1) {
		t.Fatalf("appending to row 0 changed row 1: %v, was %v", first.Rows[1], row1)
	}
}
