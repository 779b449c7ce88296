package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentIsAUsageError: a mistyped -exp used to match no
// run(...) block, print nothing and exit 0.
func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-exp", "tabel1"}, &stderr); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"tabel1"`) {
		t.Errorf("stderr does not name the bad experiment: %q", msg)
	}
	for _, e := range experimentTable {
		if !strings.Contains(msg, e.name) {
			t.Errorf("stderr does not list experiment %q: %q", e.name, msg)
		}
	}
}

func TestExperimentTableDrivesHelp(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, &stderr); code != 0 {
		t.Errorf("-h exit code = %d, want 0", code)
	}
	help := stderr.String()
	seen := map[string]bool{"all": true}
	for _, e := range experimentTable {
		if seen[e.name] {
			t.Errorf("experiment name %q is not unique", e.name)
		}
		seen[e.name] = true
		if e.title == "" || e.run == nil {
			t.Errorf("experiment %q has no title or body", e.name)
		}
		if !strings.Contains(help, e.name+", ") {
			t.Errorf("-exp help does not list %q: %q", e.name, help)
		}
	}
}
