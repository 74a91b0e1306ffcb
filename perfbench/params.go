package main

import (
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/workload"
)

// params sizes every workload and probe. defaultParams gives the sizes
// the benchmark runs at; tests shrink them.
type params struct {
	Seed  uint64
	Procs int
	// ExecSeed seeds workload execution, GenSeed the generated suites
	// and PlanSeed the served request list; all derive from Seed.
	ExecSeed, GenSeed, PlanSeed uint64
	// Setups is how many times a run sets its workload up; setup_s is
	// their median. MinPasses is the fewest measured passes per run.
	Setups, MinPasses int

	// SuiteN is paper-suite's workload count (the whole fixed suite by
	// default) and SweepN fig7-sweep's; SuiteScale scales the fixed
	// suite's instruction budgets for both.
	SuiteN, SweepN int
	SuiteScale     float64

	// ServedRequests is the length of one served-mix round; each
	// request covers ServedWindow generated workloads at ServedScale.
	ServedRequests, ServedWindow int
	ServedScale                  float64

	// DistN is dist-gen's generated-suite size, DistShard its shard
	// size, DistScale its instruction scale.
	DistN, DistShard int
	DistScale        float64

	// ProbePrograms fixed-suite programs at ProbeScale feed the
	// workload and frontend probes; SplitPrograms of them, at
	// SplitScale, feed the split-replay probe. ProbeReps repeats each
	// probe and keeps the median.
	ProbePrograms, SplitPrograms, ProbeReps int
	ProbeScale, SplitScale                  float64
}

func defaultParams(seed uint64, procs int) params {
	return params{
		Seed:           seed,
		Procs:          procs,
		ExecSeed:       execSeedFor(seed),
		GenSeed:        derive(seed, 2) | 1,
		PlanSeed:       derive(seed, 3),
		Setups:         3,
		MinPasses:      2,
		SuiteN:         workload.SuiteSize,
		SweepN:         48,
		SuiteScale:     0.02,
		ServedRequests: 48,
		ServedWindow:   3,
		ServedScale:    0.02,
		DistN:          128,
		DistShard:      4,
		DistScale:      0.5,
		ProbePrograms:  8,
		SplitPrograms:  2,
		ProbeReps:      3,
		ProbeScale:     0.2,
		SplitScale:     0.5,
	}
}

// execSeedFor maps the benchmark seed to a non-zero execution seed
// below 2^31 (zero means "default" to the simulator, and all-ones is
// its literal-zero sentinel).
func execSeedFor(seed uint64) uint64 { return 1 + derive(seed, 1)%(1<<31-1) }

// derive mixes seed with a salt through SplitMix64, so each input
// stream gets an independent seed.
func derive(seed, salt uint64) uint64 {
	x := seed ^ salt*0x9E3779B97F4A7C15
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// paperKinds is the paper's roster: LRU, Random, SRRIP, SDBP, GHRP.
var paperKinds = frontend.PaperPolicies()

func paperNames() []string {
	out := make([]string, len(paperKinds))
	for i, k := range paperKinds {
		out[i] = k.String()
	}
	return out
}
