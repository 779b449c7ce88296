package schedsim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCFSDeciderRules(t *testing.T) {
	base := func() *Features {
		var f Features
		f.V[FImbalance] = 2048
		f.V[FTaskWeight] = 1024 // 2*1024 <= 2048: balances
		f.V[FSrcNrRunning] = 4
		f.V[FDstNrRunning] = 1
		f.V[FTicksSinceMigrated] = 100
		return &f
	}
	d := CFSDecider{}
	if !d.CanMigrate(base()) {
		t.Fatal("baseline migration refused")
	}
	// Tiny imbalance.
	f := base()
	f.V[FImbalance] = cfsMinImbalance - 1
	if d.CanMigrate(f) {
		t.Fatal("tiny imbalance accepted")
	}
	// Task too heavy for the gap.
	f = base()
	f.V[FTaskWeight] = 2000
	if d.CanMigrate(f) {
		t.Fatal("over-heavy task accepted")
	}
	// Queue inversion.
	f = base()
	f.V[FDstNrRunning] = 4
	if d.CanMigrate(f) {
		t.Fatal("queue inversion accepted")
	}
	// Cache-hot under moderate imbalance (below the 4x severity bar).
	f = base()
	f.V[FCacheHot] = 1
	f.V[FImbalance] = 3 * cfsMinImbalance
	f.V[FTaskWeight] = 512
	if d.CanMigrate(f) {
		t.Fatal("cache-hot task accepted at moderate imbalance")
	}
	// Cache-hot under severe imbalance is allowed.
	f = base()
	f.V[FCacheHot] = 1
	f.V[FImbalance] = 4 * cfsMinImbalance
	f.V[FTaskWeight] = 1024
	if !d.CanMigrate(f) {
		t.Fatal("cache-hot task refused despite severe imbalance")
	}
	// Migration cooldown.
	f = base()
	f.V[FTicksSinceMigrated] = cfsMigrateCooldown - 1
	if d.CanMigrate(f) {
		t.Fatal("cooldown violated")
	}
}

func TestFeatureNamesComplete(t *testing.T) {
	for i, n := range FeatureNames {
		if n == "" {
			t.Fatalf("feature %d unnamed", i)
		}
	}
	var f Features
	f.V[FImbalance] = 3
	if !strings.Contains(f.String(), "imbalance=3") {
		t.Fatalf("String() = %s", f.String())
	}
	if len(f.V) != NumFeatures {
		t.Fatal("vector width")
	}
}

// TestNormalizeBounds: every normalized feature stays within its clamp and
// preserves sign.
func TestNormalizeBounds(t *testing.T) {
	f := func(idx uint8, v int64) bool {
		i := int(idx) % NumFeatures
		got := NormalizeFeature(i, v)
		lim := normSpecs[i].clamp
		if got > lim || got < -lim {
			return false
		}
		return (v >= 0) == (got >= 0) || got == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizeMonotone: normalization preserves order (non-strictly) for
// non-negative inputs, so learned thresholds remain meaningful.
func TestNormalizeMonotone(t *testing.T) {
	f := func(idx uint8, a, b uint32) bool {
		i := int(idx) % NumFeatures
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return NormalizeFeature(i, x) <= NormalizeFeature(i, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizePreservesCFSThresholds: the heuristic's decision thresholds
// fall on exact normalization boundaries, so the label remains a function of
// the normalized features (what makes 99+% mimicry possible).
func TestNormalizePreservesCFSThresholds(t *testing.T) {
	// imbalance threshold 512 with shift 8: 511 -> 1, 512 -> 2.
	if NormalizeFeature(FImbalance, cfsMinImbalance-1) >= NormalizeFeature(FImbalance, cfsMinImbalance) {
		t.Fatal("imbalance threshold blurred by normalization")
	}
	// cooldown threshold 8 with shift 1: 7 -> 3, 8 -> 4.
	if NormalizeFeature(FTicksSinceMigrated, cfsMigrateCooldown-1) >=
		NormalizeFeature(FTicksSinceMigrated, cfsMigrateCooldown) {
		t.Fatal("cooldown threshold blurred by normalization")
	}
}

func TestNormalizeRowAndNormalized(t *testing.T) {
	var f Features
	f.V[FSrcLoad] = 1 << 30
	f.V[FCacheHot] = 1
	n := f.Normalized()
	if n[FSrcLoad] != normSpecs[FSrcLoad].clamp {
		t.Fatalf("src load clamped to %d", n[FSrcLoad])
	}
	if n[FCacheHot] != 1 {
		t.Fatal("boolean feature distorted")
	}
	// Extra columns pass through untouched.
	row := NormalizeRow(append(f.V[:], 999))
	if row[NumFeatures] != 999 {
		t.Fatal("extra column distorted")
	}
}

func TestDeciderAdapters(t *testing.T) {
	var f Features
	if (AlwaysDecider{}).Name() == "" || (NeverDecider{}).Name() == "" {
		t.Fatal("ablation decider names")
	}
	if !(AlwaysDecider{}).CanMigrate(&f) || (NeverDecider{}).CanMigrate(&f) {
		t.Fatal("ablation deciders inverted")
	}
}
