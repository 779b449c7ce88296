package wal

import (
	"errors"
	"strings"
	"testing"
)

// TestIncidentRoundTrip: a KindIncident record survives append + scan with
// every field intact, and String renders the tier transition.
func TestIncidentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := &Record{Kind: KindIncident, Incident: &Incident{
		Program: "p", Hash: "abc123", From: "aot", To: "jit",
		Cause: "divergence", Fire: 42, Detail: "verdict mismatch: native 7 checked 5",
	}}
	if _, err := l.Append(in); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 1 {
		t.Fatalf("scanned %d records", len(sc.Records))
	}
	got := sc.Records[0].Incident
	if got == nil || *got != *in.Incident {
		t.Fatalf("incident = %+v, want %+v", got, in.Incident)
	}
	if s := sc.Records[0].String(); !strings.Contains(s, "incident") || !strings.Contains(s, "aot->jit") {
		t.Fatalf("String() = %q", s)
	}
}

// TestIncidentValidate: malformed incidents are rejected at append time, and
// incidents may not ride inside transactions (they are observations, not
// transactional mutations).
func TestIncidentValidate(t *testing.T) {
	l, _ := Open(t.TempDir(), Options{})
	defer l.Close()
	bad := []*Record{
		{Kind: KindIncident}, // no payload
		{Kind: KindIncident, Incident: &Incident{To: "jit"}}, // no hash
		{Kind: KindIncident, Incident: &Incident{Hash: "x"}}, // no target tier
		{Kind: KindTxnCommit, Sub: []*Record{{Kind: KindIncident, Incident: &Incident{Hash: "x", To: "jit"}}}},
	}
	for i, r := range bad {
		if _, err := l.Append(r); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("bad record %d: err = %v, want ErrCorruptRecord", i, err)
		}
	}
	if _, err := l.Append(&Record{Kind: KindIncident, Incident: &Incident{Hash: "x", To: "jit"}}); err != nil {
		t.Fatalf("minimal valid incident rejected: %v", err)
	}
}
