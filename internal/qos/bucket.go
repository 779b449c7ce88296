package qos

// Bucket is a deterministic token bucket: rate tokens per second, burst
// capacity, refilled lazily from an explicit nanosecond clock. Fractional
// refill is carried exactly (token-nanoseconds), so two runs over the same
// event times always agree — the property the virtual-clock experiments and
// the fairness gate depend on. Bucket is not goroutine-safe; the admission
// controller serializes access under its own lock.
type Bucket struct {
	ratePerSec int64 // tokens per second (0 = no reserved rate: never has tokens)
	burst      int64 // max tokens held
	tokensNs   int64 // current tokens, scaled by 1e9 (token-nanoseconds)
	lastNs     int64 // last refill instant
}

// NewBucket builds a bucket holding burst tokens now. burst <= 0 selects 1
// when rate > 0 (a bucket that can never admit is expressed with rate 0).
func NewBucket(ratePerSec, burst int64, nowNs int64) *Bucket {
	if burst <= 0 && ratePerSec > 0 {
		burst = 1
	}
	return &Bucket{ratePerSec: ratePerSec, burst: burst, tokensNs: burst * 1e9, lastNs: nowNs}
}

// refill credits tokens for the time elapsed since the last refill.
func (b *Bucket) refill(nowNs int64) {
	if nowNs <= b.lastNs {
		return
	}
	elapsed := nowNs - b.lastNs
	b.lastNs = nowNs
	if b.ratePerSec <= 0 {
		return
	}
	b.tokensNs += elapsed * b.ratePerSec
	if max := b.burst * 1e9; b.tokensNs > max {
		b.tokensNs = max
	}
}

// Take refills to nowNs and consumes one token, reporting whether one was
// available.
func (b *Bucket) Take(nowNs int64) bool {
	b.refill(nowNs)
	if b.tokensNs < 1e9 {
		return false
	}
	b.tokensNs -= 1e9
	return true
}

// SetRate replaces the bucket's rate and burst (a quota change mid-flight).
// Accumulated tokens are clamped to the new burst; the refill clock is
// advanced so the new rate applies from nowNs forward only.
func (b *Bucket) SetRate(ratePerSec, burst int64, nowNs int64) {
	b.refill(nowNs)
	if burst <= 0 && ratePerSec > 0 {
		burst = 1
	}
	b.ratePerSec, b.burst = ratePerSec, burst
	if max := burst * 1e9; b.tokensNs > max {
		b.tokensNs = max
	}
}
