package frontend

import (
	"fmt"
	"runtime"
	"testing"

	"ghrpsim/internal/trace"
)

// allocTestConfig turns on the allocation-heaviest features: next-line
// prefetching (per-access filter traffic) and wrong-path injection
// (scratch block lists per mispredicted branch).
func allocTestConfig() Config {
	cfg := smallConfig()
	cfg.NextLinePrefetch = true
	return cfg
}

// allocTestRecords buffers one workload's record stream for replay.
func allocTestRecords(t *testing.T) []trace.Record {
	t.Helper()
	prog := fanOutProgram(t)
	recs, err := GenerateRecords(prog, 1, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// steadyStateAllocs primes process over the first half of the stream —
// past the warm-up flip and every scratch-slice growth — then measures
// heap allocations per record over the second half.
func steadyStateAllocs(t *testing.T, recs []trace.Record, process func(trace.Record)) float64 {
	t.Helper()
	half := len(recs) / 2
	for _, r := range recs[:half] {
		process(r)
	}
	i := half
	return testing.AllocsPerRun(2000, func() {
		process(recs[i])
		i++
		if i == len(recs) {
			i = half
		}
	})
}

// The hot replay loop must not allocate: after warm-up, Process is
// zero-alloc per record for a single engine. This pins the perf work
// the fused replay depends on — the direct-mapped prefetch filter (no
// map inserts) and the span-based fetch walk (no per-record closures).
func TestEngineProcessZeroAllocs(t *testing.T) {
	recs := allocTestRecords(t)
	for _, kind := range []PolicyKind{PolicyLRU, PolicyGHRP} {
		e, err := NewEngine(allocTestConfig(), kind, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		if avg := steadyStateAllocs(t, recs, func(r trace.Record) { e.Process(r) }); avg != 0 {
			t.Errorf("%v: Process allocates %.3f objects/record in steady state, want 0", kind, avg)
		}
	}
}

// The streaming paths (program executor included) must allocate O(1)
// per replay, not O(records): doubling the instruction target must add
// almost no allocations beyond the shared setup. This covers the
// record-major Engine and the fused FanOut, whose per-record body —
// front decision, chunk push, lane replay — must stay allocation-free.
// The FanOut is built once and Reset before every replay, as the suite
// scheduler reuses it, and is measured inline and with a pipeline.
func TestStreamingAllocsBounded(t *testing.T) {
	prog := fanOutProgram(t)
	cfg := allocTestConfig()
	fo, err := NewFanOut(cfg, []PolicyKind{PolicyLRU, PolicySRRIP, PolicyGHRP}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	type path struct {
		name   string
		replay func(target uint64) (records uint64, err error)
	}
	paths := []path{
		{"Engine", func(target uint64) (uint64, error) {
			e, err := NewEngine(cfg, PolicyGHRP, 10_000)
			if err != nil {
				return 0, err
			}
			res, err := e.StreamProgram(prog, 1, target, StreamOptions{})
			return res.Records, err
		}},
	}
	for _, workers := range []int{1, 3} {
		paths = append(paths, path{fmt.Sprintf("FanOut/workers=%d", workers), func(target uint64) (uint64, error) {
			fo.Reset(10_000)
			res, err := fo.StreamProgram(prog, 1, target, workers, StreamOptions{})
			if err != nil {
				return 0, err
			}
			return res[0].Records, nil
		}})
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			run := func(target uint64) (allocs uint64, records uint64) {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				records, err := p.replay(target)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs, records
			}
			a1, r1 := run(100_000)
			a2, r2 := run(200_000)
			if r2 <= r1 {
				t.Fatalf("targets produced %d and %d records; need growth to measure", r1, r2)
			}
			// Mallocs is process-wide, so background runtime allocations can make
			// the longer run's count the smaller one; compute the growth signed
			// instead of letting the unsigned difference wrap around.
			growth := float64(a2) - float64(a1)
			perRecord := growth / float64(r2-r1)
			if perRecord > 0.01 {
				t.Errorf("streaming replay allocates %.4f objects/record (%.0f allocs over %d extra records), want ~0",
					perRecord, growth, r2-r1)
			}
		})
	}
}
