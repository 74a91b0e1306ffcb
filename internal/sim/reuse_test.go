package sim

import (
	"runtime"
	"testing"
	"time"

	"ghrpsim/internal/faultinject"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/workload"
)

// totalAlloc reports the bytes f allocates on the heap.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fanOutSink keeps the measured FanOut reachable, so its construction
// cannot be optimized away.
var fanOutSink *frontend.FanOut

// Each scheduler worker resets and reuses one FanOut across its tasks,
// so at Parallelism 1 an extra workload must cost less heap than
// building a single paper-roster FanOut. A regression back to fresh
// lanes per task allocates a whole FanOut plus its decision chunk per
// workload and fails here.
func TestRunReusesLanesAcrossWorkloads(t *testing.T) {
	footprint := totalAlloc(func() {
		var err error
		if fanOutSink, err = frontend.NewFanOut(frontend.DefaultConfig(), frontend.PaperPolicies(), 0); err != nil {
			t.Fatal(err)
		}
	})
	// One small workload repeated keeps the per-workload cost (program
	// generation, counting, results) identical across tasks.
	spec := workload.SuiteN(1)[0]
	run := func(n int) uint64 {
		specs := make([]workload.Spec, n)
		for i := range specs {
			specs[i] = spec
		}
		return totalAlloc(func() {
			if _, err := Run(Options{Workloads: specs, Scale: 0.02, Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const few, many = 2, 10
	a1, a2 := run(few), run(many)
	perWorkload := (float64(a2) - float64(a1)) / (many - few)
	if perWorkload >= float64(footprint) {
		t.Errorf("each extra workload allocates %.0f B, not less than one fresh paper-roster FanOut (%d B): lanes are no longer reused",
			perWorkload, footprint)
	}
}

// A transient fault injected mid-replay, after the lanes have replayed
// a full decision chunk, is retried on the same worker: the retry resets
// the aborted FanOut and must still match the serial reference bit for
// bit.
func TestSchedulerReuseRetriesMidReplay(t *testing.T) {
	const every = 1024
	base := Options{
		Workloads:     workload.SuiteN(3),
		Scale:         0.3,
		Parallelism:   1,
		ProgressEvery: every,
		RetryBackoff:  time.Millisecond,
	}
	ref := serialReference(t, base)
	// Progress calls are counted across the run; fire on the one that
	// lands 9 intervals (past the first 8192-record chunk) into
	// workload 1's replay.
	before := ref[0][0].Records / every
	if ref[1][0].Records <= 10*every {
		t.Fatalf("workload 1 replays only %d records; the fault would not land past the first chunk", ref[1][0].Records)
	}
	opts := base
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpProgress, Nth: before + 9, Action: faultinject.Transient})
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("mid-replay transient fault not retried: %v", err)
	}
	requireMatchesReference(t, m, ref)
	if m.Stats.Retries != 1 {
		t.Errorf("stats retries %d, want 1", m.Stats.Retries)
	}
}

// With a warm result cache, a worker's tasks alternate between policy
// subsets (partially cached workloads) and the full roster, so its
// FanOut is reused for a repeated subset and rebuilt whenever the subset
// changes — including between two different subsets of equal size.
// Every cell must still match the uncached serial reference.
func TestSchedulerReuseAcrossCachedSubsets(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.SuiteN(6)
	policies := []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicySRRIP, frontend.PolicyGHRP}
	base := Options{Workloads: specs, Policies: policies, Scale: 0.03, Parallelism: 1}
	ref := serialReference(t, base)

	// Pre-fill single cells so the uncached kinds per workload run
	// {SRRIP,GHRP} {SRRIP,GHRP} {all} {LRU,GHRP} {SRRIP,GHRP} {all}.
	prefill := []struct {
		workloads []workload.Spec
		kind      frontend.PolicyKind
	}{
		{[]workload.Spec{specs[0], specs[1], specs[4]}, frontend.PolicyLRU},
		{[]workload.Spec{specs[3]}, frontend.PolicySRRIP},
	}
	for _, p := range prefill {
		if _, err := Run(Options{Workloads: p.workloads, Policies: []frontend.PolicyKind{p.kind},
			Scale: base.Scale, Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}

	opts := base
	opts.Cache = cache
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.CacheHits != 4 {
		t.Errorf("cache hits %d, want the 4 pre-filled cells", m.Stats.CacheHits)
	}
	requireMatchesReference(t, m, ref)
}
