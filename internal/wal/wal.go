// Package wal implements a crash-safe write-ahead log and snapshot
// checkpointing for the control plane. The paper assumes a long-lived
// control plane that installs tables, programs and learned models into the
// in-kernel RMT VM; this package makes that assumption survivable — every
// committed control-plane mutation is appended as a typed, checksummed
// record *before* it is applied, so a process crash at any instruction
// boundary recovers to a state the plane actually committed, never a torn
// one.
//
// On-disk layout (one directory per plane):
//
//	wal.log                  framed record stream, append-only
//	checkpoint-<seq>.ckpt    full-state snapshot as of record <seq>
//
// Each log record is framed as
//
//	[4B little-endian payload length][4B CRC32C of payload][payload]
//
// where the payload is a version byte and the record's binary encoding
// (codec.go). CRC32C (Castagnoli) is the same polynomial production storage
// stacks use; a torn final write or a flipped bit fails the checksum and
// Scan cleanly discards the suffix from the first bad frame on — never a
// half-applied record. An intact frame of another version (a log written
// in an older format) is not damage: Scan stops there and reports ErrFormat,
// and Open refuses the directory rather than truncate it.
//
// A checkpoint's payload is a format byte and a compacted record list
// (EncodeCheckpoint): the records that rebuild the state from an empty
// kernel, carrying explicit ids. Checkpoints are written to a temporary file
// and renamed into place, so a truncated checkpoint write can never shadow a
// previous intact one; the newest *valid* checkpoint wins and corrupt ones
// are skipped. The package is stdlib-only and knows nothing about the
// control plane's types beyond the record schema — internal/ctrl owns the
// semantics of replay.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Exported sentinels. Callers branch with errors.Is: ErrCorruptRecord marks
// a frame whose checksum, length bound, or payload decoding failed;
// ErrShortRead marks a frame cut off by a torn final write; ErrFormat marks
// an intact frame of another record version. All three end a Scan at the
// last intact record boundary rather than failing it.
var (
	// ErrCorruptRecord is wrapped when a frame fails its CRC32C, declares
	// an absurd length, or carries an undecodable payload.
	ErrCorruptRecord = errors.New("wal: corrupt record")
	// ErrShortRead is wrapped when the log ends in the middle of a frame —
	// the signature of a torn final write.
	ErrShortRead = errors.New("wal: short read (torn record)")
	// ErrNoCheckpoint is returned by LatestCheckpoint when the directory
	// holds no valid checkpoint.
	ErrNoCheckpoint = errors.New("wal: no valid checkpoint")
	// ErrFormat is wrapped when a log frame or a checkpoint payload was
	// written in a format this build does not read — a JSON-era record or
	// checkpoint. No reader for older formats exists: recover such a
	// directory with the build that wrote it.
	ErrFormat = errors.New("wal: unsupported format")
)

const (
	logName = "wal.log"
	// frameHeader is the per-record framing overhead: 4 bytes of payload
	// length plus 4 bytes of CRC32C.
	frameHeader = 8
	// maxPayload bounds a frame's declared length so a corrupt length
	// field cannot drive a giant allocation.
	maxPayload = 1 << 26
)

// castagnoli is the CRC32C table shared by records and checkpoints.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options parameterizes a Log.
type Options struct {
	// NoSync skips the per-append fsync. Appends still reach the file via
	// write(2), so a process crash loses nothing; only a host power loss
	// can drop the unsynced tail. Simulated workloads use it for speed.
	NoSync bool
}

// Log is an append-only record log rooted in one directory. Append is safe
// for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex
	f    *os.File
	seq  uint64 // last assigned record sequence number
	size int64  // current valid log size in bytes
	// frames indexes wal.log in file order: each frame's record sequence
	// number and byte offset, so Compact cuts by offset without decoding.
	frames []frameAt
	// buf is Append's frame buffer, reused from one append to the next.
	buf []byte
}

// frameAt locates one frame of wal.log.
type frameAt struct {
	seq uint64
	off int64
}

// Open opens (creating if needed) the log in dir. The existing file is
// scanned; a corrupt or torn suffix is truncated away so subsequent appends
// extend the last intact record boundary. A log holding a frame of another
// format is refused (wrapping ErrFormat) and left as it is. The next
// sequence number resumes after the highest of the last scanned record and
// the newest valid checkpoint (a compacted log can be empty while
// checkpoints carry state).
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sc, err := Scan(dir)
	if err != nil {
		return nil, err
	}
	if errors.Is(sc.Corruption, ErrFormat) {
		return nil, fmt.Errorf("wal: %s: %w", dir, sc.Corruption)
	}
	frames := make([]frameAt, len(sc.Records))
	for i, r := range sc.Records {
		frames[i] = frameAt{seq: r.Seq, off: sc.Offsets[i]}
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if sc.DiscardedBytes > 0 {
		if err := f.Truncate(sc.ValidBytes); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(sc.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	seq := uint64(0)
	if n := len(sc.Records); n > 0 {
		seq = sc.Records[n-1].Seq
	}
	if ckSeq, _, err := LatestCheckpoint(dir); err == nil && ckSeq > seq {
		seq = ckSeq
	}
	return &Log{dir: dir, opts: opts, f: f, seq: seq, size: sc.ValidBytes, frames: frames}, nil
}

// Dir reports the log's directory.
func (l *Log) Dir() string { return l.dir }

// Seq reports the last assigned record sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Size reports the current log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Append assigns the next sequence number to r, frames it, and writes it
// durably (fsync unless Options.NoSync). The record is on stable storage
// when Append returns nil — the write-ahead contract callers apply state
// changes behind.
func (l *Log) Append(r *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("wal: log closed")
	}
	r.Seq = l.seq + 1
	frame, err := appendPayload(append(l.buf[:0], make([]byte, frameHeader)...), r)
	if err != nil {
		return 0, err
	}
	payload := frame[frameHeader:]
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("%w: %d-byte payload exceeds the %d-byte frame limit", ErrCorruptRecord, len(payload), maxPayload)
	}
	l.buf = frame
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	if _, err := l.f.Write(frame); err != nil {
		return 0, err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return 0, err
		}
	}
	l.seq++
	l.frames = append(l.frames, frameAt{seq: l.seq, off: l.size})
	l.size += int64(len(frame))
	return l.seq, nil
}

// Close syncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Compact rewrites the log keeping only records with Seq > seq — the suffix
// a checkpoint at seq does not cover. It copies that suffix's frames as
// they are, found through the frame index, into a temp file that is synced
// and renamed into place, so a crash mid-compaction leaves either the old
// or the new log, both valid. The old file needs no sync first: every
// record it holds past seq is in the synced new file, and the caller's
// checkpoint covers the rest.
func (l *Log) Compact(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log closed")
	}
	keep := sort.Search(len(l.frames), func(i int) bool { return l.frames[i].seq > seq })
	cut := l.size
	if keep < len(l.frames) {
		cut = l.frames[keep].off
	}
	suffix := make([]byte, l.size-cut)
	if _, err := l.f.ReadAt(suffix, cut); err != nil {
		return err
	}
	tmp := filepath.Join(l.dir, logName+".tmp")
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Write(suffix); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, logName)); err != nil {
		return err
	}
	reopened, err := os.OpenFile(filepath.Join(l.dir, logName), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := reopened.Seek(0, io.SeekEnd); err != nil {
		reopened.Close()
		return err
	}
	l.f.Close()
	l.f = reopened
	l.size -= cut
	l.frames = l.frames[:copy(l.frames, l.frames[keep:])]
	for i := range l.frames {
		l.frames[i].off -= cut
	}
	return nil
}

// ScanResult is the outcome of reading a log directory.
type ScanResult struct {
	// Records are the intact records in append order.
	Records []*Record
	// Offsets[i] is the byte offset of Records[i]'s frame in wal.log.
	Offsets []int64
	// ValidBytes is the length of the intact prefix of wal.log.
	ValidBytes int64
	// DiscardedBytes is the length of the corrupt or torn suffix after the
	// last intact record boundary.
	DiscardedBytes int64
	// Corruption explains why the scan stopped early (wrapped
	// ErrCorruptRecord or ErrShortRead), or nil when the whole log parsed.
	Corruption error
}

// Scan reads the log read-only, validating every frame. It never fails on
// in-log corruption: a bad frame ends the scan at the preceding record
// boundary and the damage is reported in the result. A missing log file is
// an empty log.
func Scan(dir string) (ScanResult, error) {
	var res ScanResult
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if errors.Is(err, os.ErrNotExist) {
		return res, nil
	}
	if err != nil {
		return res, err
	}
	var off int64
	total := int64(len(data))
	for off < total {
		if total-off < frameHeader {
			res.Corruption = fmt.Errorf("%w: %d trailing bytes at offset %d", ErrShortRead, total-off, off)
			break
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if n > maxPayload {
			res.Corruption = fmt.Errorf("%w: frame at offset %d declares %d-byte payload", ErrCorruptRecord, off, n)
			break
		}
		if total-off-frameHeader < n {
			res.Corruption = fmt.Errorf("%w: frame at offset %d needs %d payload bytes, %d remain",
				ErrShortRead, off, n, total-off-frameHeader)
			break
		}
		want := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != want {
			res.Corruption = fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorruptRecord, off)
			break
		}
		r, derr := decodePayload(payload)
		if errors.Is(derr, ErrFormat) {
			res.Corruption = fmt.Errorf("frame at offset %d: %w", off, derr)
			break
		}
		if derr != nil {
			res.Corruption = fmt.Errorf("%w: undecodable payload at offset %d: %v", ErrCorruptRecord, off, derr)
			break
		}
		res.Records = append(res.Records, r)
		res.Offsets = append(res.Offsets, off)
		off += frameHeader + n
	}
	res.ValidBytes = off
	res.DiscardedBytes = total - off
	return res, nil
}

// checkpointName formats the checkpoint filename for seq. Zero-padding keeps
// lexical and numeric order identical.
func checkpointName(seq uint64) string {
	return fmt.Sprintf("checkpoint-%020d.ckpt", seq)
}

// LogPath returns the path of dir's log file (fault injection and log
// inspection tooling address the raw bytes).
func LogPath(dir string) string { return filepath.Join(dir, logName) }

// CheckpointPath returns the path of dir's checkpoint for seq.
func CheckpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, checkpointName(seq))
}

// Checkpoints lists the checkpoint sequence numbers present in dir in
// ascending order (valid or not — LatestCheckpoint filters).
func Checkpoints(dir string) ([]uint64, error) { return checkpointSeqs(dir) }

// WriteCheckpoint durably writes payload as the full-state snapshot as of
// record seq: temp file, fsync, rename. Older checkpoints beyond the two
// newest are pruned — keeping one spare means a corrupt newest checkpoint
// still recovers from the previous one plus a longer log suffix.
func WriteCheckpoint(dir string, seq uint64, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeader:], payload)
	tmp := filepath.Join(dir, checkpointName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName(seq))); err != nil {
		return err
	}
	// Prune: keep the two newest checkpoints.
	seqs, err := checkpointSeqs(dir)
	if err != nil {
		return err
	}
	for i := 0; i < len(seqs)-2; i++ {
		os.Remove(filepath.Join(dir, checkpointName(seqs[i])))
	}
	return nil
}

// EncodeCheckpoint renders recs, validated like log records, as a
// checkpoint payload for WriteCheckpoint: the format byte and the record
// list.
func EncodeCheckpoint(recs []*Record) ([]byte, error) {
	for _, r := range recs {
		if err := r.validate(false); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
		}
	}
	return appendRecords([]byte{checkpointFormat}, recs), nil
}

// DecodeCheckpoint parses and validates a checkpoint payload. A payload of
// another format wraps ErrFormat; a malformed one wraps ErrCorruptRecord.
func DecodeCheckpoint(payload []byte) ([]*Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty checkpoint payload", ErrCorruptRecord)
	}
	if payload[0] != checkpointFormat {
		return nil, fmt.Errorf("%w: checkpoint format byte %#x, want %#x", ErrFormat, payload[0], checkpointFormat)
	}
	d := decoder{b: payload[1:]}
	recs := d.records(false)
	d.end()
	if d.err != nil {
		return nil, fmt.Errorf("%w: checkpoint payload: %v", ErrCorruptRecord, d.err)
	}
	for i, r := range recs {
		if err := r.validate(false); err != nil {
			return nil, fmt.Errorf("%w: checkpoint record %d: %v", ErrCorruptRecord, i, err)
		}
	}
	return recs, nil
}

// checkpointSeqs lists checkpoint sequence numbers in ascending order.
func checkpointSeqs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "checkpoint-%d.ckpt", &seq); err == nil &&
			e.Name() == checkpointName(seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// LatestCheckpoint returns the newest checkpoint that passes its checksum,
// skipping corrupt or truncated ones (graceful degradation: a damaged
// snapshot costs replay time, not state). ErrNoCheckpoint when none valid.
func LatestCheckpoint(dir string) (seq uint64, payload []byte, err error) {
	seqs, err := checkpointSeqs(dir)
	if err != nil {
		return 0, nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(filepath.Join(dir, checkpointName(seqs[i])))
		if rerr != nil {
			continue
		}
		if len(data) < frameHeader {
			continue // truncated below the header: invalid
		}
		n := int64(binary.LittleEndian.Uint32(data[0:]))
		if n > maxPayload || int64(len(data)-frameHeader) < n {
			continue // truncated payload
		}
		body := data[frameHeader : frameHeader+n]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
			continue // bit rot
		}
		return seqs[i], body, nil
	}
	return 0, nil, ErrNoCheckpoint
}
