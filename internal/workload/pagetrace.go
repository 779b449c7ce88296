// Package workload generates the synthetic workloads of the paper's
// evaluation: the page-access traces of case study #1 (an OpenCV-style video
// resize and a NumPy-style matrix convolution) and the task graphs of case
// study #2 (Blackscholes, Streamcluster, Fibonacci, Matrix Multiply).
//
// The page traces reproduce the access-pattern *structure* of the original
// programs — the sequence of page deltas the prefetchers observe — rather
// than their computation (see DESIGN.md substitutions). Both traces are
// built from bounded access runs separated by constant-delta jumps over
// regions that are never touched (cropped row tails, untouched matrix
// columns): sequential readahead earns credit only inside short runs and
// wastes the rest of its window in the skip regions; Leap's majority-stride
// detector follows the dominant stride but overshoots run boundaries; and
// the full delta cycle is deterministic, so a context-sensitive learner can
// predict every jump.
package workload

import (
	"math/rand"

	"rmtk/internal/memsim"
)

// TraceConfig carries the knobs shared by all page-trace generators.
type TraceConfig struct {
	// Seed drives noise generation; traces are deterministic per seed.
	Seed int64
	// PID is the process id stamped on every access.
	PID int64
	// WorkNs is the mean application compute time per access. <=0 selects
	// 1500.
	WorkNs int64
	// WorkJitter in [0,1) randomizes per-access work by ±jitter. Negative
	// selects 0.2.
	WorkJitter float64
	// NoiseFrac in [0,1) is the fraction of accesses replaced by random
	// pages (metadata reads, allocator traffic, cloud sync bookkeeping).
	// Negative selects 0.05.
	NoiseFrac float64
	// NoisePages is the size of the random-page region. <=0 selects
	// 1 << 20.
	NoisePages int64
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.WorkNs <= 0 {
		c.WorkNs = 1500
	}
	if c.WorkJitter < 0 {
		c.WorkJitter = 0.2
	}
	if c.NoiseFrac < 0 {
		c.NoiseFrac = 0.05
	}
	if c.NoisePages <= 0 {
		c.NoisePages = 1 << 20
	}
	return c
}

// emitter stamps accesses with work and injected noise.
type emitter struct {
	cfg   TraceConfig
	rng   *rand.Rand
	trace []memsim.Access
}

func newEmitter(cfg TraceConfig, capHint int) *emitter {
	cfg = cfg.withDefaults()
	return &emitter{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		trace: make([]memsim.Access, 0, capHint),
	}
}

func (e *emitter) work() int64 {
	j := e.cfg.WorkJitter
	if j == 0 {
		return e.cfg.WorkNs
	}
	f := 1 + (e.rng.Float64()*2-1)*j
	return int64(float64(e.cfg.WorkNs) * f)
}

func (e *emitter) access(page int64) {
	if e.cfg.NoiseFrac > 0 && e.rng.Float64() < e.cfg.NoiseFrac {
		// A metadata/bookkeeping access lands somewhere random; the real
		// access still follows, so noise perturbs the delta history without
		// deleting structure — just like interleaved allocator traffic.
		e.trace = append(e.trace, memsim.Access{
			PID:  e.cfg.PID,
			Page: noiseBase + e.rng.Int63n(e.cfg.NoisePages),
			Work: e.work(),
		})
	}
	e.trace = append(e.trace, memsim.Access{PID: e.cfg.PID, Page: page, Work: e.work()})
}

// noiseBase places noise pages far from workload regions.
const noiseBase = int64(1) << 40

// VideoResizeConfig shapes the video-resize trace.
type VideoResizeConfig struct {
	TraceConfig
	// Frames is the number of frames processed. <=0 selects 400.
	Frames int
	// RowsPerFrame is the number of row iterations per frame. <=0 selects
	// 24.
	RowsPerFrame int
	// SrcRun is the pages read sequentially from a source row. <=0
	// selects 6.
	SrcRun int
	// SrcSkip is the source-row tail skipped by cropping/subsampling —
	// pages that are never accessed. <=0 selects 4.
	SrcSkip int
	// DstRun is the pages written sequentially to the (smaller) output
	// row. <=0 selects 3.
	DstRun int
	// DstSkip pads the output row so source and destination advance at the
	// same rate, keeping the jump deltas constant. <0 selects
	// SrcRun+SrcSkip-DstRun.
	DstSkip int
	// RowJitter is the probability that a row reads one source page more
	// or fewer (bilinear interpolation touching an extra row, boundary
	// clamping). It bounds how predictable the trace is even for a perfect
	// context model. Negative selects 0.15.
	RowJitter float64
}

// VideoResize generates the OpenCV-style trace: each row iteration reads
// SrcRun source pages sequentially (then the cropped/subsampled row tail is
// skipped), jumps a constant delta into the output frame, writes DstRun
// pages, and jumps back. With the defaults the per-access delta cycle is the
// 9-long {+1 ×5, J, +1 ×2, K}: readahead earns its keep only inside the
// short +1 runs and wastes the rest of each window in the skipped tails;
// Leap locks onto the +1 majority with the same overshoot; and the decision
// tree learns the full cycle including both jumps.
func VideoResize(cfg VideoResizeConfig) []memsim.Access {
	if cfg.Frames <= 0 {
		cfg.Frames = 400
	}
	if cfg.RowsPerFrame <= 0 {
		cfg.RowsPerFrame = 24
	}
	if cfg.SrcRun <= 0 {
		cfg.SrcRun = 6
	}
	if cfg.SrcSkip <= 0 {
		cfg.SrcSkip = 4
	}
	if cfg.DstRun <= 0 {
		cfg.DstRun = 3
	}
	if cfg.DstSkip <= 0 {
		cfg.DstSkip = cfg.SrcRun + cfg.SrcSkip - cfg.DstRun
	}
	if cfg.RowJitter < 0 {
		cfg.RowJitter = 0.15
	}
	srcStride := int64(cfg.SrcRun + cfg.SrcSkip)
	dstStride := int64(cfg.DstRun + cfg.DstSkip)
	perRow := cfg.SrcRun + cfg.DstRun
	e := newEmitter(cfg.TraceConfig, cfg.Frames*cfg.RowsPerFrame*perRow+16)

	const dstGap = int64(1) << 16 // distance between src and dst arenas
	rows := int64(0)
	for f := 0; f < cfg.Frames; f++ {
		for r := 0; r < cfg.RowsPerFrame; r++ {
			src := rows * srcStride
			dst := dstGap + rows*dstStride
			run := cfg.SrcRun
			if cfg.RowJitter > 0 && e.rng.Float64() < cfg.RowJitter {
				if e.rng.Intn(2) == 0 && run > 1 {
					run--
				} else if run < cfg.SrcRun+cfg.SrcSkip {
					run++
				}
			}
			for i := 0; i < run; i++ {
				e.access(src + int64(i))
			}
			for i := 0; i < cfg.DstRun; i++ {
				e.access(dst + int64(i))
			}
			rows++
		}
	}
	return e.trace
}

// MatrixConvConfig shapes the matrix-convolution trace.
type MatrixConvConfig struct {
	TraceConfig
	// Stride is the page distance between consecutive taps (one matrix row
	// in pages). <=0 selects 8.
	Stride int64
	// Taps is the number of strided reads per convolution window. <=0
	// selects 7.
	Taps int
	// TailReads is the number of sequential output pages written after the
	// taps of each window — the trace's only sequential runs. <=0 selects
	// 3.
	TailReads int
	// Span is the page distance between consecutive window bases. It must
	// not be a multiple of Stride (or one window's overshoot aliases into
	// the next), and the implied jump delta must differ from Stride and 1
	// (or the jump continues a run). <=0 selects Stride*Taps + TailReads
	// + 2.
	Span int64
	// Windows is the number of convolution windows. <=0 selects 3600.
	Windows int
}

// MatrixConv generates the NumPy-style convolution trace: each window
// gathers Taps pages at a constant Stride (the column taps of an im2col-style
// kernel down a row-major matrix), writes TailReads output pages adjacent to
// the last tap, and jumps to the next window base. With the defaults the
// delta cycle is {+8 ×6, +1, +1, +1, +10}: the only sequential runs are the
// short output tails (readahead starves), the +8 stride is a 6-of-10
// majority that Leap follows but overshoots past every window boundary into
// pages that are never touched, and the cycle is recoverable from the
// tree's 8-delta context (every window contains a distinguishing jump).
func MatrixConv(cfg MatrixConvConfig) []memsim.Access {
	if cfg.Stride <= 0 {
		cfg.Stride = 8
	}
	if cfg.Taps <= 0 {
		cfg.Taps = 7
	}
	if cfg.TailReads <= 0 {
		cfg.TailReads = 3
	}
	if cfg.Span <= 0 {
		cfg.Span = cfg.Stride*int64(cfg.Taps) + int64(cfg.TailReads) + 2
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 3600
	}
	e := newEmitter(cfg.TraceConfig, cfg.Windows*(cfg.Taps+cfg.TailReads)+16)

	for w := 0; w < cfg.Windows; w++ {
		base := int64(w) * cfg.Span
		for t := 0; t < cfg.Taps; t++ {
			e.access(base + int64(t)*cfg.Stride)
		}
		// Output pages sit right after the last tap, giving the trace its
		// only short sequential run.
		for t := 1; t <= cfg.TailReads; t++ {
			e.access(base + int64(cfg.Taps-1)*cfg.Stride + int64(t))
		}
	}
	return e.trace
}

// PatternShift concatenates two traces into one timeline — the
// workload-change scenario used by the online-adaptation ablation (the
// control plane must detect the accuracy drop and the online tree must
// relearn).
func PatternShift(first, second []memsim.Access) []memsim.Access {
	out := make([]memsim.Access, 0, len(first)+len(second))
	out = append(out, first...)
	out = append(out, second...)
	return out
}
