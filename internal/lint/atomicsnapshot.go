package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicSnapshotAnalyzer enforces the hot path's copy-on-write discipline
// (internal/core's route snapshots): a value published through an
// atomic.Pointer Store is the readers' immutable view from that moment on,
// so mutating it afterwards is a data race with every lock-free reader; and
// a bump of the datapath generation or of the verdict cache's flush counter
// must *follow* the snapshot publication, never precede it — a reader that
// loads count c must be guaranteed a snapshot at least as new as c's, or it
// caches verdicts computed against a stale snapshot under a fresh count. The
// reader's half of the same rule is checked too: a version that stamps a
// cached lookup must be read before the lookup.
//
// Three linear, source-order checks per function body:
//
//  1. mutation-after-publish: after `ptr.Store(x)` (ptr an atomic.Pointer),
//     any assignment through x (`x.f = ...`, `x.m[k] = ...`, x++) is
//     flagged until x is rebound to a fresh value.
//  2. bump-before-publish: a generation or flush-count bump
//     (`owner.gen.Add(...)`, `owner.flush.Add(...)`) that is followed later
//     in the same body by a publication of the same owner's snapshot
//     (`owner.<field>.Store(...)` on an atomic.Pointer field, or a call to a
//     publish* helper taking owner as an argument) is flagged: the bump must
//     move after the publication. A table entry's liveness (Entry.Live, the
//     per-entry component a cached exact-table verdict is stamped by) has no
//     rule of its own: its flag is unexported in internal/table and written
//     only by Table.publish, after the mutation's store (a new snapshot, or
//     an exact-index slot stored in place) and the version bump. Every
//     mutator ends in publish under the table's mutex, so no second site
//     that could order a revival before the store can exist without editing
//     publish itself.
//  3. stamp-before-read: in a body that calls both `x.Version()` and
//     `x.Lookup(...)` (or `x.LookupMatch(...)`) on the same receiver, the
//     first Version must precede the first lookup. Tables publish snapshot-then-version, so a version read
//     first can only be older than what the lookup saw and the stamp goes
//     stale, never wrong; read second, it can vouch for entries it never saw.
var AtomicSnapshotAnalyzer = &Analyzer{
	Name: "atomicsnapshot",
	Doc:  "forbid mutating a snapshot after atomic.Pointer publication, bumping generations or flush counts before it, and stamping a lookup with a version read after it",
	Run:  runAtomicSnapshot,
}

func runAtomicSnapshot(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSnapshotMutations(pass, fd.Body)
			checkBumpOrder(pass, fd.Body)
			checkStampOrder(pass, fd.Body)
		}
	}
	return nil
}

// isAtomicPointer reports whether t is sync/atomic's Pointer[T] (directly
// or through a pointer).
func isAtomicPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// rootIdent unwraps parens, address-of, derefs, selectors and indexing down
// to the base identifier: for `(&dir)`, `rt.tables[id]` it is dir / rt.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// checkSnapshotMutations flags writes through a published snapshot value.
func checkSnapshotMutations(pass *Pass, body *ast.BlockStmt) {
	// published maps the variable object of a stored snapshot to the
	// position of its publication; a later plain rebind clears it.
	published := map[types.Object]token.Pos{}

	flagLHS := func(lhs ast.Expr, pos token.Pos) {
		switch lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			root := rootIdent(lhs)
			if root == nil {
				return
			}
			obj := pass.TypesInfo.Uses[root]
			if obj == nil {
				return
			}
			if pub, ok := published[obj]; ok && pub < pos {
				pass.Reportf(pos,
					"snapshot %s is mutated after its atomic publication; readers already see it — build a fresh copy instead",
					root.Name)
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Store" || len(n.Args) != 1 {
				return true
			}
			if !isAtomicPointer(pass.TypesInfo.TypeOf(sel.X)) {
				return true
			}
			if root := rootIdent(n.Args[0]); root != nil {
				if obj := pass.TypesInfo.Uses[root]; obj != nil {
					published[obj] = n.Pos()
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					// Plain rebind: the identifier now names a fresh,
					// unpublished value.
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						delete(published, obj)
					}
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						delete(published, obj)
					}
					continue
				}
				flagLHS(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			flagLHS(n.X, n.Pos())
		}
		return true
	})
}

// bumpedCounters names the per-owner counters readers load before the
// snapshot, as the diagnostics call them.
var bumpedCounters = map[string]string{"gen": "generation", "flush": "flush-count"}

// checkBumpOrder flags counter bumps that precede a publication of the same
// owner's snapshot later in the body.
func checkBumpOrder(pass *Pass, body *ast.BlockStmt) {
	type event struct {
		pos   token.Pos
		owner string
		what  string
	}
	var bumps, pubs []event

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Add" {
				// owner.gen.Add(...), owner.flush.Add(...): the bumps.
				if ctr, ok := fun.X.(*ast.SelectorExpr); ok && bumpedCounters[ctr.Sel.Name] != "" {
					bumps = append(bumps, event{call.Pos(), types.ExprString(ctr.X), bumpedCounters[ctr.Sel.Name]})
				}
				return true
			}
			if fun.Sel.Name == "Store" && isAtomicPointer(pass.TypesInfo.TypeOf(fun.X)) {
				// owner.route.Store(rt): direct snapshot publication.
				if fieldSel, ok := fun.X.(*ast.SelectorExpr); ok {
					pubs = append(pubs, event{pos: call.Pos(), owner: types.ExprString(fieldSel.X)})
				}
				return true
			}
			if strings.HasPrefix(fun.Sel.Name, "publish") {
				// k.publishTenantLocked(ts): publication of each argument.
				for _, a := range call.Args {
					pubs = append(pubs, event{pos: call.Pos(), owner: types.ExprString(a)})
				}
			}
		case *ast.Ident:
			if strings.HasPrefix(fun.Name, "publish") {
				for _, a := range call.Args {
					pubs = append(pubs, event{pos: call.Pos(), owner: types.ExprString(a)})
				}
			}
		}
		return true
	})

	sort.Slice(bumps, func(i, j int) bool { return bumps[i].pos < bumps[j].pos })
	for _, b := range bumps {
		for _, p := range pubs {
			if p.pos > b.pos && p.owner == b.owner {
				pass.Reportf(b.pos,
					"%s bump of %s precedes its snapshot publication; bump after the Store so readers never pair a fresh %s with a stale snapshot",
					b.what, b.owner, b.what)
				break
			}
		}
	}
}

// checkStampOrder flags a receiver whose first Lookup in the body precedes
// its first Version.
func checkStampOrder(pass *Pass, body *ast.BlockStmt) {
	firstVersion := map[string]token.Pos{}
	firstLookup := map[string]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var first map[string]token.Pos
		switch {
		case sel.Sel.Name == "Version" && len(call.Args) == 0:
			first = firstVersion
		case sel.Sel.Name == "Lookup" || sel.Sel.Name == "LookupMatch":
			first = firstLookup
		default:
			return true
		}
		recv := types.ExprString(sel.X)
		if pos, seen := first[recv]; !seen || call.Pos() < pos {
			first[recv] = call.Pos()
		}
		return true
	})
	for recv, ver := range firstVersion {
		if look, ok := firstLookup[recv]; ok && look < ver {
			pass.Reportf(ver,
				"version of %s is read after the Lookup it stamps; read Version first so the stamp can only be older than what the lookup saw",
				recv)
		}
	}
}
