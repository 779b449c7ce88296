package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		0: {Parent: -1, Start: 0, End: 100},   // root
		1: {Parent: 0, Start: 10, End: 30},    // child
		2: {Parent: 0, Start: 20, End: 50},    // overlaps child 1: union is 10..50
		3: {Parent: 0, Start: 60, End: 70},    // disjoint child
		4: {Parent: 2, Start: 25, End: 45},    // grandchild: counts against 2 only
		5: {Parent: 0, Start: 90, End: 130},   // runs past the parent: clipped to 90..100
		6: {Parent: 0, Start: 65, End: 68},    // inside child 3: adds nothing
		7: {Parent: -1, Start: 200, End: 260}, // a second root with no children
	}
	self := selfTimes(spans)
	want := []int64{
		0: 100 - (40 + 10 + 10), // union(10..50) + 60..70 + 90..100
		1: 20,
		2: 30 - 20,
		3: 10,
		4: 20,
		5: 40,
		6: 3,
		7: 60,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestTracerNestingAndFile(t *testing.T) {
	tr := newTracer()
	outer := tr.begin(tr.name("outer"), 7)
	inner := tr.begin(tr.name("inner"), 8)
	tr.end(inner)
	tr.add(tr.name("leaf"), 9, tr.epoch, tr.epoch)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[2].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Fatalf("parents = %d, %d, %d", tr.spans[outer].Parent, tr.spans[inner].Parent, tr.spans[2].Parent)
	}
	if len(tr.durations("inner")) != 1 || len(tr.durations("absent")) != 0 {
		t.Error("durations does not select by name")
	}
	if got, want := tr.selfByName("outer"), selfTimes(tr.spans)[outer]; got != want {
		t.Errorf("selfByName = %d, want %d", got, want)
	}

	path, err := tr.write(t.TempDir(), "unit", 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Recorded int    `json:"spans_recorded"`
		Spans    []struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start"`
			End    int64  `json:"end"`
			Parent int    `json:"parent"`
			Op     int64  `json:"op"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if doc.Workload != "unit" || doc.Seed != 3 || doc.Recorded != 3 || len(doc.Spans) != 3 {
		t.Fatalf("trace header = %+v", doc)
	}
	if s := doc.Spans[1]; s.Name != "inner" || s.Parent != 0 || s.Op != 8 || s.End < s.Start {
		t.Errorf("span 1 = %+v", s)
	}
}
