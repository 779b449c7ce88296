package ctrl

import (
	"errors"
	"os"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

// fuzzSeeds builds a small valid log and a checkpoint of the same state
// (the happy-path seeds the fuzzer mutates) and returns their raw bytes.
func fuzzSeeds(f *testing.F) (log, ckpt []byte) {
	f.Helper()
	dir := f.TempDir()
	p, err := Open(core.NewKernel(core.Config{}), dir, wal.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := p.CreateTable("fz_tab", "hook/fz", table.MatchExact); err != nil {
		f.Fatal(err)
	}
	if err := p.AddEntry("fz_tab", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 4}}); err != nil {
		f.Fatal(err)
	}
	if _, err := p.RegisterModel(testTree(2)); err != nil {
		f.Fatal(err)
	}
	txn := p.Begin()
	txn.AddEntry("fz_tab", &table.Entry{Key: 2, Action: table.Action{Kind: table.ActionParam, Param: 5}})
	txn.PushModel(1, testTree(3), 0, 0)
	if err := txn.Commit(); err != nil {
		f.Fatal(err)
	}
	if log, err = os.ReadFile(wal.LogPath(dir)); err != nil {
		f.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if _, ckpt, err = wal.LatestCheckpoint(dir); err != nil {
		f.Fatal(err)
	}
	return log, ckpt
}

// FuzzWALReplay feeds arbitrary bytes to the full recovery pipeline
// (checkpoint decode → restore → scan → truncate torn tail → replay →
// invariant check). The log bytes are the log; non-empty checkpoint bytes
// are written through wal.WriteCheckpoint as a checkpoint at seq 0, which
// the whole log then replays on top of. The properties: no panic on any
// input, the accepted prefix always yields a plane whose invariants hold,
// and replay accounts for every scanned record.
func FuzzWALReplay(f *testing.F) {
	seed, ckpt := fuzzSeeds(f)
	f.Add(seed, []byte(nil))
	f.Add(seed[:len(seed)-3], []byte(nil)) // torn tail
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x10 // bit rot mid-log
	f.Add(flipped, []byte(nil))
	f.Add([]byte{}, []byte(nil))
	f.Add([]byte("not a log at all"), []byte(nil))
	f.Add([]byte{}, ckpt)                        // a real checkpoint alone
	f.Add([]byte{}, []byte(oldFormatCheckpoint)) // refused: format 1
	f.Add([]byte{}, []byte(jsonCheckpoint))      // refused: format 2
	f.Add(seed, ckpt[:len(ckpt)/2])              // a cut record sequence

	f.Fuzz(func(t *testing.T, data, ckpt []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(wal.LogPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(ckpt) > 0 {
			if err := wal.WriteCheckpoint(dir, 0, ckpt); err != nil {
				t.Fatal(err)
			}
		}
		sc, err := wal.Scan(dir)
		if err != nil {
			t.Fatalf("scan errored on in-log corruption: %v", err)
		}
		p, st, err := Recover(dir, core.Config{}, wal.Options{NoSync: true}, nil)
		if err != nil {
			// Recovery may refuse fuzzed history (e.g. a log that starts
			// past seq 1 looks compacted-without-checkpoint, or a checkpoint
			// that does not decode or apply), but the refusal must be a
			// deliberate verdict, not an invariant break discovered after
			// replay already mutated state.
			if errors.Is(err, ErrRecoveryMismatch) && st.Replayed > 0 {
				t.Fatalf("accepted prefix broke invariants: %v (%s)", err, st)
			}
			return
		}
		if got := st.Replayed + st.Aborted + st.Skipped; got > len(sc.Records) {
			t.Fatalf("replay accounted %d records, scan saw %d", got, len(sc.Records))
		}
		// The recovered plane must be fully operational: probing every hook
		// must not panic, and a fresh mutation must append cleanly.
		for _, hook := range p.K.Hooks() {
			p.K.Fire(hook, 1, 2, 3)
		}
		if _, _, err := p.CreateTable("post_fz", "hook/post", table.MatchExact); err != nil {
			t.Fatalf("recovered plane rejected a fresh mutation: %v", err)
		}
	})
}
