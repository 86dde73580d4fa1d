package lint

import (
	"fmt"
	"io"
	"strings"
)

// This file renders findings as GitHub Actions workflow commands, so CI
// failures annotate the offending lines in pull-request diffs.

// ghaEscape escapes a workflow-command property or message per the
// GitHub Actions runner rules: % first, then CR and LF.
func ghaEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// ghaEscapeProp additionally escapes the property delimiters.
func ghaEscapeProp(s string) string {
	s = ghaEscape(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

// WriteGHA renders unsuppressed findings as GitHub Actions ::error
// workflow commands, one per line, so a CI lint step annotates the
// exact source lines in the pull-request view. Suppressed findings are
// omitted: they are accepted exceptions, not failures.
func WriteGHA(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		_, err := fmt.Fprintf(w, "::error file=%s,line=%d,title=%s::%s\n",
			ghaEscapeProp(f.Pos.Filename), f.Pos.Line,
			ghaEscapeProp("uniqlint/"+f.Analyzer), ghaEscape(f.Message))
		if err != nil {
			return err
		}
	}
	return nil
}
