package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func entryRec(key uint64) *Record {
	return &Record{Kind: KindAddEntry, Table: "t", Entry: &Entry{Key: key, Action: Action{Kind: 4, Param: int64(key)}}}
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []*Record{
		{Kind: KindCreateTable, Table: "t", Hook: "mm/x", Match: 2},
		entryRec(7),
		{Kind: KindUpdateAction, Table: "t", Key: 7, Action: &Action{Kind: 4, Param: 9}},
		{Kind: KindLoadProgram, Program: &Program{Name: "p", Hook: "mm/x", Code: []byte{1, 2, 3}}},
		{Kind: KindTxnCommit, Bump: true, Sub: []*Record{entryRec(8), entryRec(9)}},
		{Kind: KindAbort, Ref: 5},
	}
	for i, r := range kinds {
		seq, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq = %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Corruption != nil || sc.DiscardedBytes != 0 {
		t.Fatalf("clean log reported corruption: %v (discarded %d)", sc.Corruption, sc.DiscardedBytes)
	}
	if len(sc.Records) != len(kinds) {
		t.Fatalf("scanned %d records, want %d", len(sc.Records), len(kinds))
	}
	for i, r := range sc.Records {
		if r.Kind != kinds[i].Kind || r.Seq != uint64(i+1) {
			t.Fatalf("record %d: kind=%v seq=%d", i, r.Kind, r.Seq)
		}
	}
	if got := sc.Records[4]; len(got.Sub) != 2 || got.Sub[1].Entry.Key != 9 || !got.Bump {
		t.Fatalf("txn record mangled: %+v", got)
	}
}

func TestScanDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(entryRec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: cut three bytes off the end.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 3 {
		t.Fatalf("scanned %d records after tear, want 3", len(sc.Records))
	}
	if !errors.Is(sc.Corruption, ErrShortRead) {
		t.Fatalf("corruption = %v, want ErrShortRead", sc.Corruption)
	}
	if sc.DiscardedBytes == 0 {
		t.Fatal("no bytes reported discarded")
	}
	// Reopen for append: the torn tail is truncated and sequence resumes.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Seq() != 3 {
		t.Fatalf("reopened seq = %d, want 3", l2.Seq())
	}
	if seq, err := l2.Append(entryRec(99)); err != nil || seq != 4 {
		t.Fatalf("append after tear: seq=%d err=%v", seq, err)
	}
	sc2, _ := Scan(dir)
	if len(sc2.Records) != 4 || sc2.Corruption != nil {
		t.Fatalf("post-repair scan: %d records, corruption=%v", len(sc2.Records), sc2.Corruption)
	}
}

func TestScanDiscardsCRCFlip(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(entryRec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(path)
	sc0, _ := Scan(dir)
	// Flip one bit inside the second record's payload.
	off := sc0.Offsets[1] + frameHeader + 2
	data[off] ^= 0x10
	os.WriteFile(path, data, 0o644)
	sc, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 1 {
		t.Fatalf("scanned %d records after flip, want 1 (suffix discarded)", len(sc.Records))
	}
	if !errors.Is(sc.Corruption, ErrCorruptRecord) {
		t.Fatalf("corruption = %v, want ErrCorruptRecord", sc.Corruption)
	}
}

func TestCheckpointLatestAndCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestCheckpoint(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v, want ErrNoCheckpoint", err)
	}
	if err := WriteCheckpoint(dir, 5, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, 9, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	seq, body, err := LatestCheckpoint(dir)
	if err != nil || seq != 9 || string(body) != `{"v":2}` {
		t.Fatalf("latest = %d %q %v", seq, body, err)
	}
	// Truncate the newest checkpoint: recovery must fall back to seq 5.
	path := filepath.Join(dir, checkpointName(9))
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	seq, body, err = LatestCheckpoint(dir)
	if err != nil || seq != 5 || string(body) != `{"v":1}` {
		t.Fatalf("fallback = %d %q %v", seq, body, err)
	}
}

func TestCheckpointPruneKeepsTwo(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{1, 2, 3, 4} {
		if err := WriteCheckpoint(dir, seq, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := checkpointSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("retained checkpoints = %v, want [3 4]", seqs)
	}
}

func TestCompactDropsCoveredPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{NoSync: true})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(entryRec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteCheckpoint(dir, 4, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(4); err != nil {
		t.Fatal(err)
	}
	// Appends continue after compaction on the same handle.
	if seq, err := l.Append(entryRec(100)); err != nil || seq != 7 {
		t.Fatalf("append after compact: seq=%d err=%v", seq, err)
	}
	l.Close()
	sc, _ := Scan(dir)
	if len(sc.Records) != 3 || sc.Records[0].Seq != 5 || sc.Records[2].Seq != 7 {
		var seqs []uint64
		for _, r := range sc.Records {
			seqs = append(seqs, r.Seq)
		}
		t.Fatalf("post-compact seqs = %v, want [5 6 7]", seqs)
	}
	// Reopen: sequence resumes past both the log tail and the checkpoint.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Seq() != 7 {
		t.Fatalf("reopened seq = %d, want 7", l2.Seq())
	}
}

func TestOpenResumesSeqFromCheckpointAfterFullCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{NoSync: true})
	for i := 0; i < 3; i++ {
		l.Append(entryRec(uint64(i)))
	}
	WriteCheckpoint(dir, 3, []byte("state"))
	l.Compact(3)
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Seq() != 3 {
		t.Fatalf("seq = %d, want 3 (from checkpoint)", l2.Seq())
	}
}

func TestMarshalRejectsMalformedRecords(t *testing.T) {
	l, _ := Open(t.TempDir(), Options{})
	defer l.Close()
	bad := []*Record{
		{Kind: 0},
		{Kind: KindAddEntry, Table: "t"}, // no entry
		{Kind: KindLoadProgram},          // no program
		{Kind: KindTxnCommit, Sub: []*Record{{Kind: KindAbort, Ref: 1}}},             // abort inside txn
		{Kind: KindTxnCommit, Sub: []*Record{{Kind: KindTxnCommit}}},                 // nested txn
		{Kind: KindPushModel, ModelID: 1},                                            // no model payload
		{Kind: KindTxnCommit, Sub: []*Record{{Kind: KindRemoveTenant, Tenant: "t"}}}, // not transactional
		{Kind: KindRegisterMatrix},                                                   // no matrix
		{Kind: KindAllocState},                                                       // no allocators
		// Retired kinds, each with the payload its writer gave it.
		{Kind: 7, Model: &Model{Codec: "qmlp", Data: []byte(`{}`)}}, // register-qmlp
		{Kind: 9, ModelID: 1},  // rollback-model
		{Kind: 10, Table: "t"}, // retarget
		{Kind: 13},             // epoch: its one field, the epoch number, left Record with it
	}
	for i, r := range bad {
		if _, err := l.Append(r); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("bad record %d: err = %v, want ErrCorruptRecord", i, err)
		}
	}
	// A retired kind read back from disk is refused too, and the kinds
	// around the retired slots keep their numbers.
	for _, r := range []*Record{
		{Seq: 1, Kind: 7, Model: &Model{Codec: "qmlp", Data: []byte(`{}`)}},
		{Seq: 1, Kind: 9, ModelID: 1},
		{Seq: 1, Kind: 10, Table: "t"},
		{Seq: 1, Kind: 13},
	} {
		if _, err := decodePayload(appendBody([]byte{recordVersion}, r)); err == nil {
			t.Fatalf("decoded a retired kind: %v", r.Kind)
		}
	}
	if KindRegisterModel != 6 || KindPushModel != 8 || KindTxnCommit != 11 ||
		KindRegisterTenant != 14 || KindIncident != 17 || KindAllocState != 19 {
		t.Fatalf("kind numbers moved: register-model=%d push-model=%d txn-commit=%d register-tenant=%d incident=%d alloc-state=%d",
			KindRegisterModel, KindPushModel, KindTxnCommit, KindRegisterTenant, KindIncident, KindAllocState)
	}
}

// TestScanTornHeaderBoundary: a frame torn exactly at the header boundary
// — the 4-byte length made it to disk, the CRC and payload did not. The
// scan must stop at the preceding record boundary, report the 4 stray
// bytes as a short read, and Open must truncate them so appends resume
// cleanly.
func TestScanTornHeaderBoundary(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(entryRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Tear: exactly the 4 length bytes of a would-be next frame.
	torn := append(append([]byte(nil), intact...), 0x40, 0x00, 0x00, 0x00)
	if err := os.WriteFile(LogPath(dir), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	sc, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 1 || sc.Records[0].Seq != 1 {
		t.Fatalf("records = %d, want the intact prefix", len(sc.Records))
	}
	if sc.ValidBytes != int64(len(intact)) {
		t.Fatalf("ValidBytes = %d, want boundary at %d", sc.ValidBytes, len(intact))
	}
	if sc.DiscardedBytes != 4 {
		t.Fatalf("DiscardedBytes = %d, want the 4 header bytes", sc.DiscardedBytes)
	}
	if !errors.Is(sc.Corruption, ErrShortRead) {
		t.Fatalf("corruption = %v, want ErrShortRead", sc.Corruption)
	}

	// Reopen truncates the stray header and appends continue at seq 2.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(entryRec(2))
	if err != nil || seq != 2 {
		t.Fatalf("append after truncation: seq=%d err=%v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err = Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 2 || sc.Corruption != nil || sc.DiscardedBytes != 0 {
		t.Fatalf("post-repair scan: %d records, corruption=%v", len(sc.Records), sc.Corruption)
	}
}

// jsonFrame frames payload as the log did when records were JSON: the same
// header, a CRC32C that matches, a payload whose first byte is '{'.
func jsonFrame(payload string) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum([]byte(payload), castagnoli))
	return append(frame, payload...)
}

// TestOpenRefusesOtherFormat: an intact frame of another record version
// ends the scan with ErrFormat, not ErrCorruptRecord, and Open refuses the
// directory and leaves wal.log byte-identical instead of truncating the
// frame away. A zero-filled tail, which has no version byte, is still
// damage: Open truncates it.
func TestOpenRefusesOtherFormat(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(entryRec(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	intact, _ := os.ReadFile(LogPath(dir))
	mixed := append(append([]byte(nil), intact...), jsonFrame(`{"seq":2,"kind":1,"table":"t"}`)...)
	if err := os.WriteFile(LogPath(dir), mixed, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 1 || !errors.Is(sc.Corruption, ErrFormat) || errors.Is(sc.Corruption, ErrCorruptRecord) {
		t.Fatalf("scan: %d records, corruption %v; want 1 and ErrFormat", len(sc.Records), sc.Corruption)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("open over a JSON frame: %v, want ErrFormat", err)
	}
	if got, _ := os.ReadFile(LogPath(dir)); !bytes.Equal(got, mixed) {
		t.Fatal("a refused log was modified")
	}

	zeroed := append(append([]byte(nil), intact...), make([]byte, 2*frameHeader)...)
	os.WriteFile(LogPath(dir), zeroed, 0o644)
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over a zero-filled tail: %v", err)
	}
	l.Close()
	if got, _ := os.ReadFile(LogPath(dir)); !bytes.Equal(got, intact) {
		t.Fatalf("zero-filled tail: log is %d bytes, want the %d intact ones", len(got), len(intact))
	}

	if _, err := DecodeCheckpoint([]byte(`{"format":2,"records":[]}`)); !errors.Is(err, ErrFormat) {
		t.Fatalf("format-2 checkpoint: %v, want ErrFormat", err)
	}
}

// TestCompactCopiesFrames: compaction keeps the kept frames' bytes as they
// are, on a handle whose frame index Open seeded as well as on one Append
// extended, and twice in a row (the index rebases).
func TestCompactCopiesFrames(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{NoSync: true})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(entryRec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	before, _ := os.ReadFile(LogPath(dir))
	sc, _ := Scan(dir)
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Compact(2); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(LogPath(dir))
	if !bytes.Equal(after, before[sc.Offsets[2]:]) || l.Size() != int64(len(after)) {
		t.Fatalf("compacted log is %d bytes (size %d), want the %d-byte suffix from #3", len(after), l.Size(), len(before)-int(sc.Offsets[2]))
	}
	if _, err := l.Append(entryRec(7)); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(5); err != nil {
		t.Fatal(err)
	}
	sc, _ = Scan(dir)
	if len(sc.Records) != 2 || sc.Records[0].Seq != 6 || sc.Records[1].Seq != 7 || sc.Corruption != nil {
		t.Fatalf("after the second compaction: %d records from #%d, corruption %v", len(sc.Records), sc.Records[0].Seq, sc.Corruption)
	}
	if err := l.Compact(7); err != nil || l.Size() != 0 {
		t.Fatalf("compacting every record: size %d, err %v", l.Size(), err)
	}
}
