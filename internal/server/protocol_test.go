package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"uniqopt"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Request{ID: 42, Cmd: CmdExec, Name: "q", Args: map[string]any{
		"N": int64(1 << 40), "S": "x", "B": true, "NIL": nil,
	}}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 42 || out.Cmd != CmdExec || out.Name != "q" {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	// Large integers survive: the frame decoder delivers numbers as
	// int64, with no float64 detour and nothing for checkArgs to refuse.
	hosts := out.Args
	if err := checkArgs(hosts); err != nil {
		t.Fatal(err)
	}
	if hosts["N"] != int64(1<<40) || hosts["S"] != "x" || hosts["B"] != true || hosts["NIL"] != nil {
		t.Fatalf("args lost precision or typing: %#v", hosts)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var resp Response
	err := ReadFrame(bytes.NewReader(hdr[:]), &resp)
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxFrame") {
		t.Fatalf("oversized frame err = %v", err)
	}
}

func TestAdmissionConcurrencyAndMemory(t *testing.T) {
	a := &admission{maxConcurrent: 2, memBudget: 100}
	if err := a.acquire(60); err != nil {
		t.Fatal(err)
	}
	// Memory pool exhausted before the concurrency cap.
	err := a.acquire(60)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Resource != "memory" || ae.Limit != 100 || ae.Used != 60 {
		t.Fatalf("memory rejection = %v", err)
	}
	if err := a.acquire(40); err != nil {
		t.Fatal(err)
	}
	// Now the concurrency cap bites even with memory to spare.
	err = a.acquire(0)
	if !errors.As(err, &ae) || ae.Resource != "concurrency" || ae.Limit != 2 || ae.Used != 2 {
		t.Fatalf("concurrency rejection = %v", err)
	}
	a.release(60)
	if err := a.acquire(60); err != nil {
		t.Fatalf("after release: %v", err)
	}
	a.release(60)
	a.release(40)
	if a.inFlight != 0 || a.memInUse != 0 {
		t.Fatalf("accounting drifted: inFlight=%d mem=%d", a.inFlight, a.memInUse)
	}
}

func TestAdmissionUnlimited(t *testing.T) {
	a := &admission{}
	for i := 0; i < 100; i++ {
		if err := a.acquire(1 << 30); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWireErrorMapping(t *testing.T) {
	we := wireError(&uniqopt.BudgetError{Resource: "rows", Limit: 10, Used: 11})
	if we.Code != CodeBudget || we.Resource != "rows" || we.Limit != 10 || we.Used != 11 {
		t.Fatalf("budget mapping: %+v", we)
	}
	we = wireError(&AdmissionError{Resource: "sessions", Limit: 1, Used: 1})
	if we.Code != CodeAdmission || we.Resource != "sessions" {
		t.Fatalf("admission mapping: %+v", we)
	}
}

func TestClampBudget(t *testing.T) {
	cases := []struct{ req, ceil, want int64 }{
		{0, 0, 0},       // both unlimited
		{50, 0, 50},     // no ceiling: as requested
		{0, 100, 100},   // default: the ceiling
		{50, 100, 50},   // under: as requested
		{500, 100, 100}, // over: clamped
	}
	for _, c := range cases {
		if got := clampBudget(c.req, c.ceil); got != c.want {
			t.Errorf("clampBudget(%d, %d) = %d, want %d", c.req, c.ceil, got, c.want)
		}
	}
}
