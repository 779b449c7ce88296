package main

import (
	"strconv"
	"strings"

	"rmtk/internal/core"
)

// parseSnapshot turns the registry's "name value" lines into a map. Histogram
// lines ("name count=N mean=M p99<=P") become name.count and name.mean. The
// string form is today's only public metrics surface; typed samples are a
// later issue's job, so the parsing lives here and nowhere else.
func parseSnapshot(lines []string) map[string]float64 {
	out := make(map[string]float64, len(lines))
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil && len(fields) == 2 {
			out[fields[0]] = v
			continue
		}
		for _, f := range fields[1:] {
			if k, v, ok := strings.Cut(f, "="); ok {
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					out[fields[0]+"."+k] = x
				}
			}
		}
	}
	return out
}

// kernelCounters reads the exact counts a run left behind from the kernel's
// public surface and reports them as per-layer metrics. fires is the number
// of fires the workload issued on that kernel.
func kernelCounters(res *result, k *core.Kernel) {
	snap := parseSnapshot(k.Metrics.Snapshot())
	fires := snap["core.fires"]

	vs := k.VerdictCacheStats()
	if probes := vs.Hits + vs.Misses; probes > 0 {
		res.setLayer("core.cache_hit_ratio", float64(vs.Hits)/float64(probes))
	} else {
		res.setLayer("core.cache_hit_ratio", 0)
	}
	res.setLayer("core.cache_evictions", float64(vs.Evictions))
	res.setLayer("core.cache_invalidations", float64(vs.Invalidations))

	var engineRuns float64
	for _, tier := range []string{"aot", "jit", "interp", "baseline"} {
		n := snap["core.engine_fires."+tier]
		res.setLayer("core.tier_fires."+tier, n)
		if tier != "baseline" {
			engineRuns += n
		}
	}
	if fires > 0 {
		res.setLayer("core.steps_per_fire", snap["core.program_steps.count"]*snap["core.program_steps.mean"]/fires)
	}
	if sen := k.EngineSentinel(); sen != nil && engineRuns > 0 {
		res.setLayer("core.sentinel_checked_share", float64(sen.Counts().Sampled)/engineRuns)
	}
	fallbacks := snap["core.fallback_decisions"]
	if sup := k.Supervisor(); sup != nil {
		_, fb, _, _ := sup.Counts()
		if float64(fb) > fallbacks {
			fallbacks = float64(fb)
		}
	}
	res.setLayer("core.fallbacks", fallbacks)
}

// datapathFailures counts fires the kernel itself recorded as degraded:
// traps, baseline fallbacks and missing programs. Workloads whose fires
// happen inside a subsystem (learned_prefetch) cannot see each FireResult,
// so they count failures from these counters instead.
func datapathFailures(k *core.Kernel) int64 {
	snap := parseSnapshot(k.Metrics.Snapshot())
	return int64(snap["core.traps"] + snap["core.fallback_decisions"] + snap["core.program_missing"])
}
