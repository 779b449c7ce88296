package experiments

import (
	"fmt"

	"rmtk/internal/blksim"
	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/rmtio"
)

// Extension experiment F: the learned block-IO submit path (LinnOS-style,
// the paper's §2 motivation [24]). Flash replicas stall periodically on
// internal GC; the kernel only sees queue depths and completion latencies.
// Routers compared: always-primary, timeout hedging (duplicate IOs),
// GC-blind shortest-queue, and the RMT-learned slow-predictor.

// IODeviceConfig is the flash model used by the experiment: 80µs reads,
// ~4ms GC period, 400µs episodes, 1ms stall penalty (a stable open-loop
// operating point: effective mean service ≈ 180µs against 300µs arrivals).
func IODeviceConfig() blksim.DeviceConfig {
	return blksim.DeviceConfig{
		BaseNs: 80_000, JitterNs: 8_000,
		GCEveryNs: 4_000_000, GCJitterNs: 100_000, GCDurationNs: 400_000,
		SlowPenaltyNs: 1_000_000,
	}
}

// IOTailRow is one router's latency profile.
type IOTailRow struct {
	Policy    string
	MeanUs    float64
	P50Us     float64
	P99Us     float64
	SlowServe int
	ExtraIOs  int
	Trains    int
}

func (r IOTailRow) String() string {
	return fmt.Sprintf("%-15s mean=%7.1fµs p50=%7.1fµs p99=%8.1fµs slow=%5d extraIO=%5d trains=%d",
		r.Policy, r.MeanUs, r.P50Us, r.P99Us, r.SlowServe, r.ExtraIOs, r.Trains)
}

// IOTail runs the tail-latency comparison.
func IOTail(seed int64) ([]IOTailRow, error) {
	cfg := blksim.Config{Replicas: 3, Device: IODeviceConfig(), Seed: seed, HedgeAfterNs: 300_000}
	reqs := blksim.GenRequests(30_000, 300_000, seed+1)

	rows := make([]IOTailRow, 0, 4)
	add := func(res blksim.Result, trains int) {
		rows = append(rows, IOTailRow{
			Policy:    res.Policy,
			MeanUs:    res.MeanNs / 1e3,
			P50Us:     float64(res.P50Ns) / 1e3,
			P99Us:     float64(res.P99Ns) / 1e3,
			SlowServe: res.SlowServe,
			ExtraIOs:  res.ExtraIOs,
			Trains:    trains,
		})
	}
	add(blksim.Run(cfg, blksim.PrimaryRouter{}, reqs), 0)
	add(blksim.Run(cfg, blksim.HedgeRouter{}, reqs), 0)
	add(blksim.Run(cfg, blksim.ShortestQueueRouter{}, reqs), 0)

	k := core.NewKernel(core.Config{})
	router, err := rmtio.New(k, ctrl.New(k))
	if err != nil {
		return nil, err
	}
	add(blksim.Run(cfg, router, reqs), router.Trains())
	return rows, nil
}
