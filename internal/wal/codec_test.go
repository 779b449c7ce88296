package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzRecord builds a record from fuzzed fields: each has* bit of mask
// fills its field from a, b, u, s1, s2 and blob. Empty slices stay nil, the
// form the decoder yields.
func fuzzRecord(kind uint8, mask uint32, a, b int64, u uint64, s1, s2 string, blob []byte) *Record {
	var data []byte
	if len(blob) > 0 {
		data = blob
	}
	e := Entry{Key: u, PrefixLen: uint8(a), Lo: uint64(b), Hi: u ^ 1, Mask: uint64(a), Priority: int32(b),
		Action: Action{Kind: uint8(b), Param: a, ProgID: b, ModelID: -a}}
	act := e.Action
	r := &Record{Seq: u >> 1, Kind: Kind(kind % 24), Bump: mask&hasBump != 0}
	if mask&hasID != 0 {
		r.ID = a
	}
	if mask&hasTable != 0 {
		r.Table = s1
	}
	if mask&hasHook != 0 {
		r.Hook = s2
	}
	if mask&hasMatch != 0 {
		r.Match = uint8(b)
	}
	if mask&hasEntry != 0 {
		r.Entry = &e
	}
	if mask&hasRows != 0 {
		r.Rows = []Entry{e, {}}
	}
	if mask&hasKey != 0 {
		r.Key = u
	}
	if mask&hasAction != 0 {
		r.Action = &act
	}
	if mask&hasProgram != 0 {
		r.Program = &Program{Name: s1, Hook: s2, Code: data, Helpers: []int64{a}, Tails: []int64{b, a}}
	}
	if mask&hasModel != 0 {
		r.Model = &Model{Codec: s2, Data: data}
	}
	if mask&hasModelID != 0 {
		r.ModelID = b
	}
	if mask&hasTenant != 0 {
		r.Tenant = s2
	}
	if mask&hasQuota != 0 {
		r.Quota = &Quota{Class: uint8(a), RatePerSec: a, Burst: b, Weight: int(a), MaxTables: int(b),
			MaxPrograms: -int(a), StepBudget: b, StepSLO: a, LatencySLO: int64(u)}
	}
	if mask&hasSub != 0 {
		r.Sub = []*Record{
			{Kind: KindAddEntry, Table: s1, Entry: &e},
			{Kind: KindUpdateAction, Table: s2, Key: u, Action: &Action{Param: b}},
		}
	}
	if mask&hasRef != 0 {
		r.Ref = u
	}
	if mask&hasIncident != 0 {
		r.Incident = &Incident{Program: s1, Hash: s2, From: s1, To: s2, Cause: string(blob), Fire: a, Detail: s1 + s2}
	}
	if mask&hasMatrix != 0 {
		r.Matrix = &Matrix{In: int(a), Out: int(b), W: []int64{a, b}, B: []int64{b}}
	}
	if mask&hasAlloc != 0 {
		r.Alloc = &Alloc{Table: a, Prog: b, Model: -a, Mat: -b, Version: u}
	}
	return r
}

// FuzzRecordCodec checks the binary record codec: arbitrary payload bytes
// never panic the decoder; a payload that decodes (and so passes validate)
// re-encodes to the same bytes; and a record built from fuzzed fields that
// passes validate round-trips to an equal record, as a log payload and in
// a checkpoint.
func FuzzRecordCodec(f *testing.F) {
	seeds := []struct {
		kind Kind
		mask uint32
	}{
		{KindCreateTable, hasID | hasTable | hasHook | hasMatch | hasRows | hasAction},
		{KindAddEntry, hasTable | hasEntry},
		{KindUpdateAction, hasTable | hasKey | hasAction},
		{KindLoadProgram, hasID | hasProgram},
		{KindRegisterModel, hasID | hasTenant | hasModel},
		{KindPushModel, hasModelID | hasModel},
		{KindTxnCommit, hasSub | hasBump},
		{KindAbort, hasRef},
		{KindRegisterTenant, hasTenant | hasQuota},
		{KindIncident, hasIncident},
		{KindRegisterMatrix, hasID | hasMatrix},
		{KindAllocState, hasAlloc},
	}
	for _, s := range seeds {
		r := fuzzRecord(uint8(s.kind), s.mask, -3, 1<<40, 7, "t", "hook/x", []byte{1, 2})
		payload, err := appendPayload(nil, r)
		if err != nil {
			f.Fatalf("seed %s: %v", s.kind, err)
		}
		f.Add(payload, uint8(s.kind), s.mask, int64(-3), int64(1<<40), uint64(7), "t", "hook/x", []byte{1, 2})
	}
	f.Add([]byte(`{"seq":1,"kind":1,"table":"t"}`), uint8(0), uint32(0), int64(0), int64(0), uint64(0), "", "", []byte(nil))
	f.Add([]byte{}, uint8(KindAbort), uint32(hasRef), int64(0), int64(0), uint64(1), "", "", []byte(nil))

	f.Fuzz(func(t *testing.T, payload []byte, kind uint8, mask uint32, a, b int64, u uint64, s1, s2 string, blob []byte) {
		if r, err := decodePayload(payload); err == nil {
			again, err := appendPayload(nil, r)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("decoded %+v re-encodes to %x (%v), read from %x", r, again, err, payload)
			}
		}
		DecodeCheckpoint(payload)

		r := fuzzRecord(kind, mask, a, b, u, s1, s2, blob)
		if r.validate(false) != nil {
			return
		}
		enc, err := appendPayload(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("%+v does not decode from its own encoding: %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, r)
		}
		ckpt, err := EncodeCheckpoint([]*Record{r, r})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := DecodeCheckpoint(ckpt)
		if err != nil || len(recs) != 2 || !reflect.DeepEqual(recs[1], r) {
			t.Fatalf("checkpoint round trip: %d records, err %v", len(recs), err)
		}
	})
}
