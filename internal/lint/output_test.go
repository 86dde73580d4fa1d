package lint

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func sampleFindings() []Finding {
	return []Finding{
		{
			Pos:      token.Position{Filename: "internal/engine/stream.go", Line: 42, Column: 7},
			Analyzer: "govpair",
			Message:  "governor charge not released on this path; 50% of exits leak",
		},
		{
			Pos:        token.Position{Filename: "internal/engine/ops.go", Line: 7},
			Analyzer:   "rowalias",
			Message:    "suppressed one",
			Suppressed: true,
		},
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	sum := Summary{Packages: 3, Findings: 1, Suppressed: 1}
	if err := WriteJSON(&sb, sampleFindings(), sum); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Findings []struct {
			File       string `json:"file"`
			Line       int    `json:"line"`
			Column     int    `json:"column"`
			Analyzer   string `json:"analyzer"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
		} `json:"findings"`
		Summary Summary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %d, want 2 (suppressed included)", len(rep.Findings))
	}
	f := rep.Findings[0]
	if f.File != "internal/engine/stream.go" || f.Line != 42 || f.Column != 7 || f.Analyzer != "govpair" {
		t.Errorf("first finding mismatched: %+v", f)
	}
	if !rep.Findings[1].Suppressed {
		t.Error("suppressed flag lost in JSON")
	}
	if rep.Summary != sum {
		t.Errorf("summary = %+v, want %+v", rep.Summary, sum)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, nil, Summary{Packages: 5}); err != nil {
		t.Fatal(err)
	}
	// The findings key must be an empty array, not null, for easy
	// consumption with jq and the like.
	if !strings.Contains(sb.String(), `"findings": []`) {
		t.Errorf("empty run must render findings as []:\n%s", sb.String())
	}
}

func TestWriteGHA(t *testing.T) {
	var sb strings.Builder
	if err := WriteGHA(&sb, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("GHA output = %d lines, want 1 (suppressed omitted):\n%s", len(lines), out)
	}
	line := lines[0]
	if !strings.HasPrefix(line, "::error file=internal/engine/stream.go,line=42,title=uniqlint/govpair::") {
		t.Errorf("workflow command prefix wrong: %s", line)
	}
	// The % in the message must be escaped per runner rules.
	if !strings.Contains(line, "50%25 of exits") {
		t.Errorf("%% not escaped in message: %s", line)
	}
}

func TestGHAEscaping(t *testing.T) {
	var sb strings.Builder
	err := WriteGHA(&sb, []Finding{{
		Pos:      token.Position{Filename: "a,b:c.go", Line: 1},
		Analyzer: "x",
		Message:  "multi\nline %",
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\n") != 1 {
		t.Errorf("newline in message must be escaped, got:\n%q", out)
	}
	if !strings.Contains(out, "file=a%2Cb%3Ac.go") {
		t.Errorf("property delimiters not escaped: %q", out)
	}
	if !strings.Contains(out, "multi%0Aline %25") {
		t.Errorf("message escaping wrong: %q", out)
	}
}
