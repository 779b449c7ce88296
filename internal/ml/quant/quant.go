// Package quant provides the fixed-point quantization utilities used to move
// models trained in floating point (userspace, §3.2 of the paper) into the
// integer-only inference formats the in-kernel RMT virtual machine executes.
//
// The scheme is symmetric per-tensor quantization: a real value x is
// represented as round(x / scale) clamped to the integer type's range, and a
// real multiply-accumulate becomes an integer MAC followed by a
// requantization step (multiply by an integer multiplier, then arithmetic
// right shift) — exactly the OpVecQuant primitive of the RMT ML ISA.
package quant

import (
	"fmt"
	"math"
)

// Params describes a symmetric per-tensor quantization: real = q * Scale.
type Params struct {
	// Scale is the real value of one quantum.
	Scale float64
	// Bits is the signed integer width the values were quantized to.
	Bits int
}

// MaxQ returns the largest representable quantized magnitude.
func (p Params) MaxQ() int64 {
	return 1<<(p.Bits-1) - 1
}

// ChooseScale picks the smallest scale that represents maxAbs within bits
// signed bits. A zero maxAbs yields scale 1 (all zeros quantize to zero).
func ChooseScale(maxAbs float64, bits int) Params {
	if bits < 2 || bits > 32 {
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	p := Params{Bits: bits, Scale: 1}
	if maxAbs > 0 {
		p.Scale = maxAbs / float64(p.MaxQ())
	}
	return p
}

// MaxAbs returns the maximum absolute value in xs (0 for empty input).
func MaxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Quantize converts a real value to its integer representation under p,
// rounding to nearest and saturating at the type bounds.
func (p Params) Quantize(x float64) int64 {
	q := math.RoundToEven(x / p.Scale)
	max := float64(p.MaxQ())
	if q > max {
		return p.MaxQ()
	}
	if q < -max {
		return -p.MaxQ()
	}
	return int64(q)
}

// QuantizeSlice quantizes all of xs into a fresh slice.
func (p Params) QuantizeSlice(xs []float64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = p.Quantize(x)
	}
	return out
}

// Requant describes the integer-only rescaling (q * Mul) >> Shift that maps
// an int32/int64 accumulator in one scale to the next layer's input scale.
type Requant struct {
	Mul   int64
	Shift uint8
}

// Apply performs the requantization.
func (r Requant) Apply(q int64) int64 { return (q * r.Mul) >> r.Shift }

// ComputeRequant finds (Mul, Shift) so that q*Mul>>Shift ≈ q*ratio with Mul
// held to at most mulBits bits. ratio must be positive.
func ComputeRequant(ratio float64, mulBits int) (Requant, error) {
	if ratio <= 0 || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
		return Requant{}, fmt.Errorf("quant: bad requant ratio %v", ratio)
	}
	if mulBits < 2 || mulBits > 48 {
		return Requant{}, fmt.Errorf("quant: bad mul width %d", mulBits)
	}
	maxMul := int64(1)<<(mulBits-1) - 1
	var best Requant
	bestErr := math.Inf(1)
	for shift := 0; shift <= 40; shift++ {
		mul := math.RoundToEven(ratio * float64(int64(1)<<shift))
		if mul < 1 {
			continue
		}
		if mul > float64(maxMul) {
			break
		}
		got := mul / float64(int64(1)<<shift)
		if err := math.Abs(got - ratio); err < bestErr {
			bestErr = err
			best = Requant{Mul: int64(mul), Shift: uint8(shift)}
		}
	}
	if math.IsInf(bestErr, 1) {
		return Requant{}, fmt.Errorf("quant: cannot represent ratio %v in %d-bit mul", ratio, mulBits)
	}
	return best, nil
}

// Clamp saturates v into [-lim, lim].
func Clamp(v, lim int64) int64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}
