package experiments

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/netsim"
	"rmtk/internal/rmtnet"
)

// Extension experiment G: learned elephant-flow isolation at the RX path
// (networking — the domain RMT came from, listed in §1's subsystem roster).

// NetRow is one classifier's row.
type NetRow struct {
	Policy     string
	MiceP50Us  float64
	MiceP99Us  float64
	MiceMeanUs float64
	Misrouted  int
	Reclass    int
	Trains     int
}

func (r NetRow) String() string {
	return fmt.Sprintf("%-14s mice p50=%6.1fµs p99=%7.1fµs mean=%6.1fµs misrouted=%6d reclass=%4d trains=%d",
		r.Policy, r.MiceP50Us, r.MiceP99Us, r.MiceMeanUs, r.Misrouted, r.Reclass, r.Trains)
}

// NetIsolation runs the flow-isolation comparison: shared queue, reactive
// threshold, the RMT-learned first-packet classifier, and the ground-truth
// oracle.
func NetIsolation(seed int64) ([]NetRow, error) {
	w := netsim.GenWorkload(netsim.WorkloadConfig{Seed: seed, Flows: 1600})
	// A loaded latency queue: elephant pollution visibly costs mice.
	cfg := netsim.Config{LatencyBytesPerUs: 1000, BulkBytesPerUs: 8000}

	var rows []NetRow
	add := func(res netsim.Result, trains int) {
		rows = append(rows, NetRow{
			Policy:     res.Policy,
			MiceP50Us:  float64(res.MiceP50Ns) / 1e3,
			MiceP99Us:  float64(res.MiceP99Ns) / 1e3,
			MiceMeanUs: res.MiceMeanNs / 1e3,
			Misrouted:  res.Misrouted,
			Reclass:    res.Reclassified,
			Trains:     trains,
		})
	}
	add(netsim.Run(cfg, netsim.SharedQueue{}, w), 0)
	add(netsim.Run(cfg, netsim.ReactiveThreshold{}, w), 0)

	k := core.NewKernel(core.Config{})
	cls, err := rmtnet.New(k, ctrl.New(k))
	if err != nil {
		return nil, err
	}
	// Warm the model on a separate day's traffic (train/measure split, as
	// in case study #2), then measure on the same workload as the
	// baselines.
	warm := netsim.GenWorkload(netsim.WorkloadConfig{Seed: seed + 7, Flows: 800})
	netsim.Run(cfg, cls, warm)
	add(netsim.Run(cfg, cls, w), cls.Trains())
	add(netsim.Run(cfg, netsim.Oracle{}, w), 0)
	return rows, nil
}
