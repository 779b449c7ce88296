package lint_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"rmtk/internal/lint"
)

// analyze type-checks a single-file fixture package (imports resolved from
// source, so fixtures can use time/sync/fmt) and runs the full analyzer
// suite over it.
func analyze(t *testing.T, pkgPath, src string) []lint.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(pkgPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	diags, err := lint.RunAnalyzers(fset, []*ast.File{f}, pkg, info)
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return diags
}

// wantDiags asserts that the diagnostics contain exactly the expected
// substrings, one per finding, in order.
func wantDiags(t *testing.T, diags []lint.Diagnostic, want ...string) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(want), renderDiags(diags))
	}
	for i, w := range want {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diag %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}
}

func renderDiags(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.Message + "\n")
	}
	return b.String()
}

func TestSimClockFlagsWallClockInSimPackage(t *testing.T) {
	const src = `package netsim

import "time"

var base time.Time

func Tick() time.Time      { return time.Now() }
func Age() time.Duration   { return time.Since(base) }
func Until() time.Duration { return time.Until(base) }
`
	diags := analyze(t, "rmtk/internal/netsim", src)
	wantDiags(t, diags,
		"simclock: time.Now in simulation package netsim",
		"simclock: time.Since in simulation package netsim",
		"simclock: time.Until in simulation package netsim",
	)
}

func TestSimClockIgnoresNonSimPackages(t *testing.T) {
	const src = `package engine

import "time"

func Stamp() time.Time { return time.Now() }
`
	wantDiags(t, analyze(t, "rmtk/internal/engine", src))
}

func TestSimClockIgnoresVirtualClockMethods(t *testing.T) {
	// A method named Now on the simulator's own clock is exactly the
	// sanctioned replacement and must not be flagged.
	const src = `package blksim

type Clock struct{ t int64 }

func (c *Clock) Now() int64 { return c.t }

func Tick(c *Clock) int64 { return c.Now() }
`
	wantDiags(t, analyze(t, "rmtk/internal/blksim", src))
}

func TestLockedCallbackFlagsSameOwnerInvocation(t *testing.T) {
	const src = `package hooks

import "sync"

type Hooks struct {
	mu     sync.Mutex
	onFire func(int)
}

func (h *Hooks) Bad(v int) {
	h.mu.Lock()
	h.onFire(v)
	h.mu.Unlock()
}

func (h *Hooks) DeferBad(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onFire(v)
}
`
	diags := analyze(t, "rmtk/internal/hooks", src)
	wantDiags(t, diags,
		"lockedcallback: callback h.onFire invoked while h's mutex is held",
		"lockedcallback: callback h.onFire invoked while h's mutex is held",
	)
}

func TestLockedCallbackAllowsCopyThenCall(t *testing.T) {
	const src = `package hooks

import "sync"

type Hooks struct {
	mu     sync.RWMutex
	onFire func(int)
}

func (h *Hooks) Good(v int) {
	h.mu.RLock()
	cb := h.onFire
	h.mu.RUnlock()
	if cb != nil {
		cb(v)
	}
}
`
	wantDiags(t, analyze(t, "rmtk/internal/hooks", src))
}

func TestLockedCallbackAllowsSerializationLock(t *testing.T) {
	// Running another object's step closures under a plane-level commit
	// mutex is the transaction engine's sanctioned pattern: the closure
	// belongs to the step, not to the locked plane, so it cannot re-enter
	// the held lock through its owner.
	const src = `package hooks

import "sync"

type Plane struct{ commitMu sync.Mutex }

type Step struct{ apply func() error }

func Commit(p *Plane, steps []Step) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	for _, s := range steps {
		if err := s.apply(); err != nil {
			return err
		}
	}
	return nil
}
`
	wantDiags(t, analyze(t, "rmtk/internal/hooks", src))
}

func TestLockedCallbackIgnoresFuncLiterals(t *testing.T) {
	// A func literal defined under the lock runs later (goroutine or
	// defer), outside the critical section observed here.
	const src = `package hooks

import "sync"

type Hooks struct {
	mu     sync.Mutex
	onFire func(int)
}

func (h *Hooks) Spawn(v int) {
	h.mu.Lock()
	go func() { h.onFire(v) }()
	h.mu.Unlock()
}
`
	wantDiags(t, analyze(t, "rmtk/internal/hooks", src))
}

func TestCtrlErrorsFlagsStringifiedSentinel(t *testing.T) {
	const src = `package ctrl

import (
	"errors"
	"fmt"
)

var ErrGate = errors.New("ctrl: gate refused")

func bad(id int64) error  { return fmt.Errorf("model %d: %v", id, ErrGate) }
func alsoBad() error      { return fmt.Errorf("during commit: %s", ErrGate) }
func good(id int64) error { return fmt.Errorf("model %d: %w", id, ErrGate) }
`
	diags := analyze(t, "rmtk/internal/ctrl", src)
	wantDiags(t, diags,
		"ctrlerrors: ctrl sentinel ErrGate formatted with %v",
		"ctrlerrors: ctrl sentinel ErrGate formatted with %s",
	)
}

func TestCtrlErrorsIgnoresOtherPackages(t *testing.T) {
	// The discipline is scoped to ctrl's sentinels; other packages keep
	// their own conventions.
	const src = `package other

import (
	"errors"
	"fmt"
)

var ErrLocal = errors.New("other: local")

func f() error { return fmt.Errorf("context: %v", ErrLocal) }
`
	wantDiags(t, analyze(t, "rmtk/internal/other", src))
}

func TestCtrlErrorsCoversWALSentinels(t *testing.T) {
	// The durable log's corruption sentinels carry recovery-path decisions
	// (discard vs fail); stringifying one breaks the errors.Is branch that
	// decides whether a suffix is safely discardable.
	const src = `package wal

import (
	"errors"
	"fmt"
)

var ErrCorruptRecord = errors.New("wal: corrupt record")

func bad(off int64) error  { return fmt.Errorf("at %d: %v", off, ErrCorruptRecord) }
func good(off int64) error { return fmt.Errorf("at %d: %w", off, ErrCorruptRecord) }
`
	diags := analyze(t, "rmtk/internal/wal", src)
	wantDiags(t, diags,
		"ctrlerrors: ctrl sentinel ErrCorruptRecord formatted with %v",
	)
}

func TestCtrlErrorsHandlesWidthAndLiteralPercent(t *testing.T) {
	// Star widths consume arguments of their own and %% consumes none;
	// the verb/argument alignment must survive both.
	const src = `package ctrl

import (
	"errors"
	"fmt"
)

var ErrGate = errors.New("ctrl: gate refused")

func bad(w int) error { return fmt.Errorf("100%% over %*d: %v", w, 3, ErrGate) }
`
	diags := analyze(t, "rmtk/internal/ctrl", src)
	wantDiags(t, diags,
		"ctrlerrors: ctrl sentinel ErrGate formatted with %v",
	)
}

func TestCtrlErrorsCoversClusterSentinels(t *testing.T) {
	// Replication sentinels (ErrNotLeader, ErrPartitioned, ErrDivergedLog)
	// drive retry/redirect/resync decisions in callers; stringifying one
	// silently disables that branch, so the discipline extends to
	// internal/cluster.
	const src = `package cluster

import (
	"errors"
	"fmt"
)

var ErrNotLeader = errors.New("cluster: not the leader")
var ErrDivergedLog = errors.New("cluster: replica logs diverged")

func bad(id int) error   { return fmt.Errorf("node %d: %v", id, ErrNotLeader) }
func worse(id int) error { return fmt.Errorf("node %d: %s", id, ErrDivergedLog) }
func good(id int) error  { return fmt.Errorf("node %d: %w", id, ErrNotLeader) }
`
	diags := analyze(t, "rmtk/internal/cluster", src)
	wantDiags(t, diags,
		"ctrlerrors: ctrl sentinel ErrNotLeader formatted with %v",
		"ctrlerrors: ctrl sentinel ErrDivergedLog formatted with %s",
	)
}

func TestCtrlErrorsCoversQoSSentinels(t *testing.T) {
	// Admission sentinels separate the three verdicts callers must branch on:
	// a shed (drop, maybe retry later), a degrade (serve the fallback) and an
	// unknown tenant (caller bug). Stringifying one collapses a deliberate
	// load-management decision into opaque text, so the %w discipline extends
	// to internal/qos.
	const src = `package qos

import (
	"errors"
	"fmt"
)

var ErrAdmissionShed = errors.New("qos: admission shed")
var ErrTenantUnknown = errors.New("qos: unknown tenant")

func bad(tenant string) error  { return fmt.Errorf("fire by %q: %v", tenant, ErrAdmissionShed) }
func worse(tenant string) error { return fmt.Errorf("fire by %q: %s", tenant, ErrTenantUnknown) }
func good(tenant string) error { return fmt.Errorf("fire by %q: %w", tenant, ErrAdmissionShed) }
`
	diags := analyze(t, "rmtk/internal/qos", src)
	wantDiags(t, diags,
		"ctrlerrors: ctrl sentinel ErrAdmissionShed formatted with %v",
		"ctrlerrors: ctrl sentinel ErrTenantUnknown formatted with %s",
	)
}

func TestAtomicSnapshotFlagsMutationAfterPublish(t *testing.T) {
	// Rule 1 of the COW discipline: once a snapshot is Stored into an
	// atomic.Pointer, lock-free readers own it; writing through it afterwards
	// is a data race even under the kernel lock.
	const src = `package core

import "sync/atomic"

type routes struct{ tables map[int64]int }

type tenant struct {
	route atomic.Pointer[routes]
	gen   atomic.Uint64
}

func badMutate(ts *tenant, rt *routes) {
	ts.route.Store(rt)
	rt.tables[1] = 2
}

func goodMutate(ts *tenant, rt *routes) {
	rt.tables[1] = 2
	ts.route.Store(rt)
}

func rebind(ts *tenant, rt *routes) {
	ts.route.Store(rt)
	rt = &routes{}
	rt.tables = map[int64]int{}
	ts.route.Store(rt)
}
`
	diags := analyze(t, "rmtk/internal/core", src)
	wantDiags(t, diags,
		"atomicsnapshot: snapshot rt is mutated after its atomic publication")
}

func TestAtomicSnapshotFlagsBumpBeforePublish(t *testing.T) {
	// Rule 2: the generation bump is the verdict cache's validity token; a
	// bump that precedes the snapshot publication lets a reader pair a fresh
	// generation with a stale snapshot and cache a wrong verdict under it.
	const src = `package core

import "sync/atomic"

type routes struct{ n int }

type tenant struct {
	route atomic.Pointer[routes]
	gen   atomic.Uint64
}

type kernel struct{}

func (k *kernel) publishLocked(ts *tenant) {
	ts.route.Store(&routes{})
}

func badBump(k *kernel, ts *tenant) {
	ts.gen.Add(1)
	k.publishLocked(ts)
}

func goodBump(k *kernel, ts *tenant) {
	k.publishLocked(ts)
	ts.gen.Add(1)
}

func badDirect(ts *tenant, rt *routes) {
	ts.gen.Add(1)
	ts.route.Store(rt)
}
`
	diags := analyze(t, "rmtk/internal/core", src)
	wantDiags(t, diags,
		"atomicsnapshot: generation bump of ts precedes its snapshot publication",
		"atomicsnapshot: generation bump of ts precedes its snapshot publication",
	)
}

func TestAtomicSnapshotFlagsFlushBumpBeforePublish(t *testing.T) {
	// Rule 2 covers the verdict cache's flush counter exactly as it covers
	// the generation: fires load it before the route snapshot.
	const src = `package core

import "sync/atomic"

type routes struct{ n int }

type tenant struct {
	route atomic.Pointer[routes]
	gen   atomic.Uint64
	flush atomic.Uint64
}

func badFlush(ts *tenant, rt *routes) {
	ts.flush.Add(1)
	ts.route.Store(rt)
	ts.gen.Add(1)
}

func goodFlush(ts *tenant, rt *routes, keep bool) {
	ts.route.Store(rt)
	ts.gen.Add(1)
	if !keep {
		ts.flush.Add(1)
	}
}
`
	diags := analyze(t, "rmtk/internal/core", src)
	wantDiags(t, diags,
		"atomicsnapshot: flush-count bump of ts precedes its snapshot publication")
}

func TestAtomicSnapshotFlagsStampAfterLookup(t *testing.T) {
	// Rule 3, the reader's half: the version that stamps a cached lookup is
	// read before the lookup, never after.
	const src = `package core

type entry struct{}

type tab struct{ v uint64 }

func (t *tab) Version() uint64       { return t.v }
func (t *tab) Lookup(k uint64) *entry { return nil }
func (t *tab) LookupMatch(k uint64) (*entry, bool) { return nil, false }

type row struct {
	t   *tab
	hit *entry
	ver uint64
}

func badStamp(tables []*tab, key uint64) (rows []row) {
	for _, t := range tables {
		e := t.Lookup(key)
		rows = append(rows, row{t: t, hit: e, ver: t.Version()})
	}
	return rows
}

func badMatchStamp(tables []*tab, key uint64) (rows []row) {
	for _, t := range tables {
		e, _ := t.LookupMatch(key)
		rows = append(rows, row{t: t, hit: e, ver: t.Version()})
	}
	return rows
}

func goodStamp(tables []*tab, key uint64) (rows []row) {
	for _, t := range tables {
		ver := t.Version()
		rows = append(rows, row{t: t, hit: t.Lookup(key), ver: ver})
	}
	return rows
}

func replay(rows []row) bool {
	for i := range rows {
		if rows[i].t.Version() != rows[i].ver {
			return false
		}
	}
	return true
}
`
	diags := analyze(t, "rmtk/internal/core", src)
	wantDiags(t, diags,
		"atomicsnapshot: version of t is read after the Lookup it stamps",
		"atomicsnapshot: version of t is read after the Lookup it stamps")
}

func TestWALRecordFlagsMissingKindArms(t *testing.T) {
	// A kind added to the enum but missed in a dispatch switch is a record
	// that ships and replays as a silent no-op; `default` is exactly how the
	// drop happens, so it does not excuse the missing arms.
	const src = `package wal

import "fmt"

type Kind uint8

const (
	KindCreateTable Kind = iota + 1
	KindAddEntry
	KindRemoveEntry

	kindEnd
)

type Record struct{ Kind Kind }

func bad(r *Record) string {
	switch r.Kind {
	case KindCreateTable:
		return "create"
	default:
		return fmt.Sprintf("kind(%d)", uint8(r.Kind))
	}
}

func good(r *Record) string {
	switch r.Kind {
	case KindCreateTable, KindAddEntry:
		return "a"
	case KindRemoveEntry:
		return "b"
	}
	return ""
}

func subset(r *Record) string {
	//lint:ignore walrecord fixture demonstrates a sanctioned deliberate subset
	switch r.Kind {
	case KindAddEntry:
		return "add"
	}
	return ""
}
`
	diags := analyze(t, "rmtk/internal/wal", src)
	wantDiags(t, diags,
		"walrecord: switch on wal.Kind is missing arms for KindAddEntry, KindRemoveEntry")
}

func TestBoundedLabelsFlagsRawLabels(t *testing.T) {
	// SeriesVec labels must come from a bounded domain: constants, or names
	// that already passed the qos quota gate in the same function. A raw
	// request-derived string churns the LRU and leaks memory as metrics.
	const src = `package telemetry

type SeriesVec struct{}

func (v *SeriesVec) Counter(label string) int { return 0 }

func ValidName(name string) error { return nil }

const fixed = "core.tenant.fires"

func bad(v *SeriesVec, req string) {
	v.Counter(req)
}

func good(v *SeriesVec) {
	v.Counter(fixed)
	v.Counter("literal")
}

func gated(v *SeriesVec, tenant string) error {
	if err := ValidName(tenant); err != nil {
		return err
	}
	v.Counter(tenant)
	return nil
}

func gateAfterUse(v *SeriesVec, tenant string) {
	v.Counter(tenant)
	_ = ValidName(tenant)
}
`
	diags := analyze(t, "rmtk/internal/telemetry", src)
	wantDiags(t, diags,
		"boundedlabels: unbounded label req passed to SeriesVec.Counter",
		"boundedlabels: unbounded label tenant passed to SeriesVec.Counter",
	)
}

func TestEpochFenceFlagsRawComparisons(t *testing.T) {
	// Epoch-vs-epoch comparisons must go through the fenced helpers; the
	// helpers' own bodies and presence checks against literals are exempt.
	const src = `package cluster

type node struct {
	epoch      uint64
	votedEpoch uint64
}

func epochStale(incoming, local uint64) bool    { return incoming < local }
func epochAdvanced(incoming, local uint64) bool { return incoming > local }

func bad(n *node, epoch uint64) bool {
	return n.epoch < epoch || n.votedEpoch == epoch
}

func good(n *node, epoch uint64) bool {
	return epochStale(n.epoch, epoch) || epoch > 0 || epochAdvanced(epoch, n.epoch)
}
`
	diags := analyze(t, "rmtk/internal/cluster", src)
	wantDiags(t, diags,
		`epochfence: raw epoch comparison "n.epoch < epoch"`,
		`epochfence: raw epoch comparison "n.votedEpoch == epoch"`,
	)
}

func TestEpochFenceScopedToClusterPackage(t *testing.T) {
	// Epochs outside the replication protocol (e.g. a datapath's own
	// versioning) are not fencing decisions.
	const src = `package core

func stale(epoch, cur uint64) bool { return epoch < cur }
`
	wantDiags(t, analyze(t, "rmtk/internal/core", src))
}

func TestIgnoreDirectiveSuppressesFinding(t *testing.T) {
	// A directive on the flagged line or the line above suppresses exactly
	// the named analyzer's finding there.
	const src = `package netsim

import "time"

func Tick() time.Time {
	//lint:ignore simclock fixture exercises the suppression path
	return time.Now()
}

func Tock() time.Time {
	return time.Now() //lint:ignore simclock same-line suppression
}

func Bad() time.Time { return time.Now() }
`
	diags := analyze(t, "rmtk/internal/netsim", src)
	wantDiags(t, diags,
		"simclock: time.Now in simulation package netsim")
}

func TestIgnoreDirectiveRequiresReason(t *testing.T) {
	// A suppression without a rationale is itself reported, and suppresses
	// nothing — a typo must not silently disable a check.
	const src = `package netsim

import "time"

//lint:ignore simclock
func Bad() time.Time { return time.Now() }
`
	diags := analyze(t, "rmtk/internal/netsim", src)
	wantDiags(t, diags,
		"lint: malformed ignore directive",
		"simclock: time.Now in simulation package netsim",
	)
}
