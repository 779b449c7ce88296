package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChooseScaleBounds(t *testing.T) {
	p := ChooseScale(12.7, 8)
	if p.MaxQ() != 127 {
		t.Fatalf("MaxQ = %d", p.MaxQ())
	}
	if q := p.Quantize(12.7); q != 127 {
		t.Fatalf("max quantizes to %d", q)
	}
	if q := p.Quantize(-12.7); q != -127 {
		t.Fatalf("min quantizes to %d", q)
	}
	// Saturation beyond the calibrated range.
	if q := p.Quantize(100); q != 127 {
		t.Fatalf("overflow quantizes to %d", q)
	}
	if q := p.Quantize(-100); q != -127 {
		t.Fatalf("underflow quantizes to %d", q)
	}
}

func TestChooseScaleZero(t *testing.T) {
	p := ChooseScale(0, 8)
	if p.Quantize(0) != 0 || float64(p.Quantize(0))*p.Scale != 0 {
		t.Fatal("zero tensor mishandled")
	}
}

func TestChooseScalePanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 1-bit quantization")
		}
	}()
	ChooseScale(1, 1)
}

// TestQuantizeRoundtripError: |dequant(quant(x)) - x| <= scale/2 within the
// calibrated range.
func TestQuantizeRoundtripError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, bits := range []int{8, 16} {
		p := ChooseScale(10, bits)
		for i := 0; i < 2000; i++ {
			x := (rng.Float64()*2 - 1) * 10
			got := float64(p.Quantize(x)) * p.Scale
			if math.Abs(got-x) > p.Scale/2+1e-12 {
				t.Fatalf("bits=%d x=%v got=%v scale=%v", bits, x, got, p.Scale)
			}
		}
	}
}

func TestQuantizeSlice(t *testing.T) {
	p := ChooseScale(4, 8)
	got := p.QuantizeSlice([]float64{4, -4, 0, 2})
	if got[0] != 127 || got[1] != -127 || got[2] != 0 {
		t.Fatalf("slice = %v", got)
	}
}

func TestMaxAbs(t *testing.T) {
	if MaxAbs(nil) != 0 {
		t.Fatal("empty MaxAbs != 0")
	}
	if MaxAbs([]float64{-3, 2, 1}) != 3 {
		t.Fatal("MaxAbs wrong")
	}
}

// TestComputeRequantApprox: the integer rescale approximates the real ratio
// within a small relative error across magnitudes, plus the one unit the
// integer result may lose to flooring — which is all of the error when
// q·ratio is small (num=0x14, den=0x933f: q·ratio ≈ 36.5 floors to 36, 1.4 %).
// The generator is seeded, so a failure reproduces.
func TestComputeRequantApprox(t *testing.T) {
	f := func(num, den uint16) bool {
		ratio := (float64(num) + 1) / (float64(den) + 1) / 16
		rq, err := ComputeRequant(ratio, 32)
		if err != nil {
			return false
		}
		const q = 1 << 20
		want := q * ratio
		return math.Abs(float64(rq.Apply(q))-want) <= 1+0.01*want
	}
	if !f(0x14, 0x933f) {
		t.Fatal("the floor's one-unit error at q·ratio ≈ 36.5 is rejected")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(81))}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeRequantErrors(t *testing.T) {
	for _, ratio := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := ComputeRequant(ratio, 32); err == nil {
			t.Fatalf("ratio %v accepted", ratio)
		}
	}
	if _, err := ComputeRequant(1, 60); err == nil {
		t.Fatal("bad mul width accepted")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(10, 5) != 5 || Clamp(-10, 5) != -5 || Clamp(3, 5) != 3 {
		t.Fatal("clamp wrong")
	}
}
