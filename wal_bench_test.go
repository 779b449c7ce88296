// Durability benchmark suite: the WAL measurements the CI perf gate tracks
// alongside the hot-path numbers. BenchmarkWALAppend is the control plane's
// per-mutation logging cost (NoSync, so it measures framing + buffered
// write, not the device's fsync latency); BenchmarkRecover is the crash-to
// -serving cost of rebuilding a plane from a checkpoint plus a log suffix.
// ns/op is per appended record / per recovery.
package rmtk_test

import (
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

// walFixture builds a durable plane with a served table so appended entry
// records carry a realistic payload.
func walFixture(b *testing.B, dir string) *ctrl.Plane {
	b.Helper()
	p, err := ctrl.Open(core.NewKernel(core.Config{}), dir, wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := p.CreateTable("bench_tab", "hook/bench", table.MatchExact); err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkWALAppend(b *testing.B) {
	p := walFixture(b, b.TempDir())
	defer p.WAL().Close()
	b.ResetTimer()
	// Bounded key space: each append overwrites one of 256 rows, so the
	// table's size stays constant and ns/op tracks the logging path, not
	// table growth.
	for i := 0; i < b.N; i++ {
		e := &table.Entry{
			Key:    uint64(i % 256),
			Action: table.Action{Kind: table.ActionParam, Param: int64(i)},
		}
		if err := p.AddEntry("bench_tab", e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecover(b *testing.B) {
	// Fixed-shape state directory: a checkpoint carrying 256 entries, then
	// 256 post-checkpoint records to replay, as a steady-state plane would
	// look between checkpoint rotations.
	dir := b.TempDir()
	p := walFixture(b, dir)
	add := func(from, to int) {
		for i := from; i < to; i++ {
			e := &table.Entry{
				Key:    uint64(i),
				Action: table.Action{Kind: table.ActionParam, Param: int64(i)},
			}
			if err := p.AddEntry("bench_tab", e); err != nil {
				b.Fatal(err)
			}
		}
	}
	add(0, 256)
	if _, err := p.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	add(256, 512)
	if err := p.WAL().Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, st, err := ctrl.Recover(dir, core.Config{}, wal.Options{NoSync: true}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.Replayed != 256 {
			b.Fatalf("replayed %d records, want 256", st.Replayed)
		}
		if err := r.WAL().Close(); err != nil {
			b.Fatal(err)
		}
	}
}
