package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The record codec. A log payload is one version byte and a record body; a
// checkpoint payload is one format byte and a record list. A record body is
//
//	uvarint Seq, byte Kind, uvarint field mask, then each field whose mask
//	bit is set, in the order of the has* bits below
//
// and a record list is a uvarint count of length-prefixed bodies (a
// transaction's Sub is one too). Integers are varints (signed ones
// zig-zagged), strings and byte slices are length-prefixed, and the small
// all-integer structs (Action, Entry, Quota, Alloc) are a uvarint mask of
// their non-zero fields followed by those fields. A mask bit is set exactly
// when its field is non-zero, so the encoding is canonical: every body the
// decoder accepts re-encodes to the same bytes. Every length is checked
// against the bytes that remain, so a corrupt payload cannot drive an
// allocation larger than itself.

const (
	// recordVersion is a log payload's first byte. A frame whose payload
	// starts with another byte — a JSON-era record starts with '{' — was
	// written in a format this build does not read.
	recordVersion = 1
	// checkpointFormat is a checkpoint payload's first byte. Format 1 was a
	// JSON state snapshot, format 2 a JSON record sequence; format 3 is a
	// binary record list.
	checkpointFormat = 3
)

// Presence bits of a record body's fields, in encoding order.
const (
	hasID = 1 << iota
	hasTable
	hasHook
	hasMatch
	hasEntry
	hasRows
	hasKey
	hasAction
	hasProgram
	hasModel
	hasModelID
	hasTenant
	hasQuota
	hasSub
	hasRef
	hasBump
	hasIncident
	hasMatrix
	hasAlloc
	recordFields = iota
)

// presence is r's field mask: the bit of every non-zero field.
func presence(r *Record) uint64 {
	var m uint64
	set := func(bit uint64, present bool) {
		if present {
			m |= bit
		}
	}
	set(hasID, r.ID != 0)
	set(hasTable, r.Table != "")
	set(hasHook, r.Hook != "")
	set(hasMatch, r.Match != 0)
	set(hasEntry, r.Entry != nil)
	set(hasRows, len(r.Rows) > 0)
	set(hasKey, r.Key != 0)
	set(hasAction, r.Action != nil)
	set(hasProgram, r.Program != nil)
	set(hasModel, r.Model != nil)
	set(hasModelID, r.ModelID != 0)
	set(hasTenant, r.Tenant != "")
	set(hasQuota, r.Quota != nil)
	set(hasSub, len(r.Sub) > 0)
	set(hasRef, r.Ref != 0)
	set(hasBump, r.Bump)
	set(hasIncident, r.Incident != nil)
	set(hasMatrix, r.Matrix != nil)
	set(hasAlloc, r.Alloc != nil)
	return m
}

// appendPayload validates r and appends its log payload to b.
func appendPayload(b []byte, r *Record) ([]byte, error) {
	if err := r.validate(false); err != nil {
		return b, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	return appendBody(append(b, recordVersion), r), nil
}

// decodePayload decodes and validates one log payload. A payload of another
// version wraps ErrFormat.
func decodePayload(p []byte) (*Record, error) {
	if len(p) == 0 {
		return nil, errors.New("empty payload")
	}
	if p[0] != recordVersion {
		return nil, fmt.Errorf("%w: record version byte %#x, want %#x", ErrFormat, p[0], recordVersion)
	}
	d := decoder{b: p[1:]}
	r := d.record(false)
	d.end()
	if d.err != nil {
		return nil, d.err
	}
	if err := r.validate(false); err != nil {
		return nil, err
	}
	return r, nil
}

func appendBody(b []byte, r *Record) []byte {
	m := presence(r)
	b = binary.AppendUvarint(b, r.Seq)
	b = append(b, byte(r.Kind))
	b = binary.AppendUvarint(b, m)
	if m&hasID != 0 {
		b = binary.AppendVarint(b, r.ID)
	}
	if m&hasTable != 0 {
		b = appendString(b, r.Table)
	}
	if m&hasHook != 0 {
		b = appendString(b, r.Hook)
	}
	if m&hasMatch != 0 {
		b = append(b, r.Match)
	}
	if m&hasEntry != 0 {
		b = appendEntry(b, r.Entry)
	}
	if m&hasRows != 0 {
		b = binary.AppendUvarint(b, uint64(len(r.Rows)))
		for i := range r.Rows {
			b = appendEntry(b, &r.Rows[i])
		}
	}
	if m&hasKey != 0 {
		b = binary.AppendUvarint(b, r.Key)
	}
	if m&hasAction != 0 {
		b = appendAction(b, r.Action)
	}
	if m&hasProgram != 0 {
		p := r.Program
		b = appendString(b, p.Name)
		b = appendString(b, p.Hook)
		b = appendBytes(b, p.Code)
		for _, refs := range [...][]int64{p.Helpers, p.Models, p.Mats, p.Tables, p.Vecs, p.Tails} {
			b = appendInts(b, refs)
		}
	}
	if m&hasModel != 0 {
		b = appendString(b, r.Model.Codec)
		b = appendBytes(b, r.Model.Data)
	}
	if m&hasModelID != 0 {
		b = binary.AppendVarint(b, r.ModelID)
	}
	if m&hasTenant != 0 {
		b = appendString(b, r.Tenant)
	}
	if m&hasQuota != 0 {
		q := r.Quota
		b = appendUints(b, uint64(q.Class), zig(q.RatePerSec), zig(q.Burst), zig(int64(q.Weight)),
			zig(int64(q.MaxTables)), zig(int64(q.MaxPrograms)), zig(q.StepBudget), zig(q.StepSLO), zig(q.LatencySLO))
	}
	if m&hasSub != 0 {
		b = appendRecords(b, r.Sub)
	}
	if m&hasRef != 0 {
		b = binary.AppendUvarint(b, r.Ref)
	}
	if m&hasIncident != 0 {
		in := r.Incident
		for _, s := range [...]string{in.Program, in.Hash, in.From, in.To, in.Cause, in.Detail} {
			b = appendString(b, s)
		}
		b = binary.AppendVarint(b, in.Fire)
	}
	if m&hasMatrix != 0 {
		mx := r.Matrix
		b = binary.AppendVarint(b, int64(mx.In))
		b = binary.AppendVarint(b, int64(mx.Out))
		b = appendInts(b, mx.W)
		b = appendInts(b, mx.B)
	}
	if m&hasAlloc != 0 {
		a := r.Alloc
		b = appendUints(b, zig(a.Table), zig(a.Prog), zig(a.Model), zig(a.Mat), a.Version)
	}
	return b
}

// appendRecords appends recs as a record list.
func appendRecords(b []byte, recs []*Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for _, r := range recs {
		start := len(b)
		b = appendBody(b, r)
		// Prefix the body with its length: shift it right by the length's
		// size, then write the length in front.
		var hdr [binary.MaxVarintLen64]byte
		h := binary.PutUvarint(hdr[:], uint64(len(b)-start))
		b = append(b, hdr[:h]...)
		copy(b[start+h:], b[start:len(b)-h])
		copy(b[start:], hdr[:h])
	}
	return b
}

func appendEntry(b []byte, e *Entry) []byte {
	b = appendUints(b, e.Key, uint64(e.PrefixLen), e.Lo, e.Hi, e.Mask, zig(int64(e.Priority)))
	return appendAction(b, &e.Action)
}

func appendAction(b []byte, a *Action) []byte {
	return appendUints(b, uint64(a.Kind), zig(a.Param), zig(a.ProgID), zig(a.ModelID))
}

// appendUints appends the mask of vs's non-zero values, then those values.
func appendUints(b []byte, vs ...uint64) []byte {
	var m uint64
	for i, v := range vs {
		if v != 0 {
			m |= 1 << i
		}
	}
	b = binary.AppendUvarint(b, m)
	for _, v := range vs {
		if v != 0 {
			b = binary.AppendUvarint(b, v)
		}
	}
	return b
}

func appendInts(b []byte, vs []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

func appendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// zig maps a signed integer onto an unsigned one the way
// binary.AppendVarint does, so small magnitudes stay short.
func zig(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decoder reads a record body. The first malformation is kept in err and
// ends the input, so every later read returns a zero value and callers
// check err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// end fails the decode if input remains.
func (d *decoder) end() {
	if len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// uvarint reads a minimally encoded uvarint.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overflowing varint")
		return 0
	}
	if n > 1 && d.b[n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 { return unzig(d.uvarint()) }

// count reads a list length, refusing one whose elements, at min bytes
// each, cannot fit in the input left.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// blob reads a length-prefixed byte string into a fresh slice (nil when
// empty), so a decoded record does not pin the buffer it came from.
func (d *decoder) blob() []byte {
	if p := d.bytes(); len(p) > 0 {
		return append([]byte(nil), p...)
	}
	return nil
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) ints() []int64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.varint()
	}
	return vs
}

// uints reads what appendUints wrote into vs.
func (d *decoder) uints(vs []uint64) {
	m := d.uvarint()
	if m>>len(vs) != 0 {
		d.fail("field mask %#x has bits past %d fields", m, len(vs))
		return
	}
	for i := range vs {
		if m&(1<<i) != 0 {
			if vs[i] = d.uvarint(); vs[i] == 0 && d.err == nil {
				d.fail("field %d is zero but marked present", i)
			}
		}
	}
}

func (d *decoder) u8(v uint64) uint8 {
	if v > 0xff {
		d.fail("%d overflows a byte", v)
	}
	return uint8(v)
}

func (d *decoder) i32(v int64) int32 {
	if int64(int32(v)) != v {
		d.fail("%d overflows int32", v)
	}
	return int32(v)
}

func (d *decoder) int(v int64) int {
	if int64(int(v)) != v {
		d.fail("%d overflows int", v)
	}
	return int(v)
}

// records reads a record list. Sub-records (sub) may not hold a list of
// their own, which bounds the nesting at one level.
func (d *decoder) records(sub bool) []*Record {
	// A body is at least 3 bytes (seq, kind, mask) after its length byte.
	n := d.count(4)
	recs := make([]*Record, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		rd := decoder{b: d.bytes()}
		r := rd.record(sub)
		rd.end()
		if rd.err != nil {
			d.fail("record %d: %v", i, rd.err)
			break
		}
		recs = append(recs, r)
	}
	return recs
}

func (d *decoder) record(sub bool) *Record {
	r := &Record{Seq: d.uvarint(), Kind: Kind(d.byte())}
	m := d.uvarint()
	if m>>recordFields != 0 {
		d.fail("field mask %#x has unknown bits", m)
		return r
	}
	if m&hasID != 0 {
		r.ID = d.varint()
	}
	if m&hasTable != 0 {
		r.Table = d.str()
	}
	if m&hasHook != 0 {
		r.Hook = d.str()
	}
	if m&hasMatch != 0 {
		r.Match = d.byte()
	}
	if m&hasEntry != 0 {
		e := d.entry()
		r.Entry = &e
	}
	if m&hasRows != 0 {
		// An entry is at least its two masks.
		r.Rows = make([]Entry, d.count(2))
		for i := range r.Rows {
			r.Rows[i] = d.entry()
		}
	}
	if m&hasKey != 0 {
		r.Key = d.uvarint()
	}
	if m&hasAction != 0 {
		a := d.action()
		r.Action = &a
	}
	if m&hasProgram != 0 {
		p := &Program{Name: d.str(), Hook: d.str(), Code: d.blob()}
		for _, refs := range [...]*[]int64{&p.Helpers, &p.Models, &p.Mats, &p.Tables, &p.Vecs, &p.Tails} {
			*refs = d.ints()
		}
		r.Program = p
	}
	if m&hasModel != 0 {
		r.Model = &Model{Codec: d.str(), Data: d.blob()}
	}
	if m&hasModelID != 0 {
		r.ModelID = d.varint()
	}
	if m&hasTenant != 0 {
		r.Tenant = d.str()
	}
	if m&hasQuota != 0 {
		var v [9]uint64
		d.uints(v[:])
		r.Quota = &Quota{
			Class: d.u8(v[0]), RatePerSec: unzig(v[1]), Burst: unzig(v[2]), Weight: d.int(unzig(v[3])),
			MaxTables: d.int(unzig(v[4])), MaxPrograms: d.int(unzig(v[5])),
			StepBudget: unzig(v[6]), StepSLO: unzig(v[7]), LatencySLO: unzig(v[8]),
		}
	}
	if m&hasSub != 0 {
		if sub {
			d.fail("transaction nested in a transaction")
			return r
		}
		r.Sub = d.records(true)
	}
	if m&hasRef != 0 {
		r.Ref = d.uvarint()
	}
	r.Bump = m&hasBump != 0
	if m&hasIncident != 0 {
		r.Incident = &Incident{Program: d.str(), Hash: d.str(), From: d.str(), To: d.str(),
			Cause: d.str(), Detail: d.str(), Fire: d.varint()}
	}
	if m&hasMatrix != 0 {
		r.Matrix = &Matrix{In: d.int(d.varint()), Out: d.int(d.varint()), W: d.ints(), B: d.ints()}
	}
	if m&hasAlloc != 0 {
		var v [5]uint64
		d.uints(v[:])
		r.Alloc = &Alloc{Table: unzig(v[0]), Prog: unzig(v[1]), Model: unzig(v[2]), Mat: unzig(v[3]), Version: v[4]}
	}
	if d.err == nil && presence(r) != m {
		d.fail("field mask %#x marks a zero field present", m)
	}
	return r
}

func (d *decoder) entry() Entry {
	var v [6]uint64
	d.uints(v[:])
	return Entry{Key: v[0], PrefixLen: d.u8(v[1]), Lo: v[2], Hi: v[3], Mask: v[4],
		Priority: d.i32(unzig(v[5])), Action: d.action()}
}

func (d *decoder) action() Action {
	var v [4]uint64
	d.uints(v[:])
	return Action{Kind: d.u8(v[0]), Param: unzig(v[1]), ProgID: unzig(v[2]), ModelID: unzig(v[3])}
}
