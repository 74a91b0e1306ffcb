package frontend

import (
	"errors"
	"fmt"
	"testing"

	"ghrpsim/internal/core"
	"ghrpsim/internal/workload"
)

// allPolicies lists every implemented policy kind, ablations included.
func allPolicies() []PolicyKind {
	kinds := make([]PolicyKind, 0, numPolicies)
	for k := PolicyKind(0); k < numPolicies; k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

func fanOutProgram(t *testing.T) *workload.Program {
	t.Helper()
	prog, err := workload.Generate(testProfile(21))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFanOutMatchesPerPolicy is the fused path's bit-identity contract:
// for every policy, wrong-path mode, and prefetch setting, one fused
// replay must produce exactly the Result that a standalone per-policy
// replay of the same stream produces.
func TestFanOutMatchesPerPolicy(t *testing.T) {
	prog := fanOutProgram(t)
	const target = 150_000
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"inject", func(c *Config) { c.WrongPath = WrongPathInject }},
		{"norecover", func(c *Config) { c.WrongPath = WrongPathNoRecover }},
		{"off", func(c *Config) { c.WrongPath = WrongPathOff }},
		{"prefetch", func(c *Config) { c.NextLinePrefetch = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallConfig()
			v.mutate(&cfg)
			total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			warm := cfg.WarmupFor(total)
			kinds := allPolicies()
			fused, err := SimulateFanOut(cfg, kinds, prog, 1, target, warm, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(fused) != len(kinds) {
				t.Fatalf("fused results: got %d, want %d", len(fused), len(kinds))
			}
			for i, kind := range kinds {
				solo, err := SimulateProgramStream(cfg, kind, prog, 1, target, warm, StreamOptions{})
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if fused[i] != solo {
					t.Errorf("%v: fused result diverges from per-policy replay:\n fused: %+v\n  solo: %+v",
						kind, fused[i], solo)
				}
			}
		})
	}
}

// TestFanOutDuplicateKinds checks that duplicate lanes are independent
// and identical: two GHRP lanes in one fan-out must match each other and
// the standalone engine.
func TestFanOutDuplicateKinds(t *testing.T) {
	prog := fanOutProgram(t)
	cfg := smallConfig()
	const target = 80_000
	total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg.WarmupFor(total)
	fused, err := SimulateFanOut(cfg, []PolicyKind{PolicyGHRP, PolicyLRU, PolicyGHRP}, prog, 1, target, warm, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fused[0] != fused[2] {
		t.Errorf("duplicate GHRP lanes diverge:\n lane0: %+v\n lane2: %+v", fused[0], fused[2])
	}
	solo, err := SimulateProgramStream(cfg, PolicyGHRP, prog, 1, target, warm, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fused[0] != solo {
		t.Errorf("fused GHRP diverges from standalone engine:\n fused: %+v\n  solo: %+v", fused[0], solo)
	}
}

// TestFanOutRejectsBadInputs covers the constructor's error paths.
func TestFanOutRejectsBadInputs(t *testing.T) {
	cfg := smallConfig()
	if _, err := NewFanOut(cfg, nil, 0); err == nil {
		t.Error("empty kinds accepted")
	}
	if _, err := NewFanOut(cfg, []PolicyKind{numPolicies}, 0); err == nil {
		t.Error("invalid kind accepted")
	}
	bad := cfg
	bad.ICache.SizeBytes = 0
	if _, err := NewFanOut(bad, []PolicyKind{PolicyLRU}, 0); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestFanOutResetMatchesFresh is the reuse contract the suite scheduler
// relies on: a FanOut that replayed one program — to completion, or
// aborted mid-chunk by a Progress error — and was then Reset must replay
// a second program bit-identically to a freshly built FanOut, on both
// the serial and the parallel stream path, whatever warm-up limit the
// Reset installs.
func TestFanOutResetMatchesFresh(t *testing.T) {
	progA := fanOutProgram(t)
	progB, err := workload.Generate(testProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	const targetA, targetB = 200_000, 120_000
	// abortAt lands inside the second chunk, so the aborted replay has
	// advanced every lane through one chunk and left another half full.
	const abortAt = chunkRecords + chunkRecords/2
	errAbort := errors.New("abort")

	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, wp := range []WrongPathMode{WrongPathOff, WrongPathInject, WrongPathNoRecover} {
		for _, prefetch := range []bool{false, true} {
			cfg := smallConfig()
			cfg.WrongPath = wp
			cfg.NextLinePrefetch = prefetch
			variants = append(variants, variant{fmt.Sprintf("wrongpath%d/prefetch=%v", wp, prefetch), cfg})
		}
	}
	tuned := smallConfig()
	tuned.WrongPath = WrongPathInject
	// Small tables, eager dead training and a frequent bypass escape make
	// GHRP bypass on program B, so the reset of its escape counter shows.
	tuned.GHRP = core.Config{TableBits: 8, HistoryBits: 12, ShiftPerAccess: 3, PCBitsPerAccess: 2,
		Aggregation: core.Summation, DeadTraining: core.TrainAllEvictions, BypassEscapeShift: 2}
	variants = append(variants, variant{"ghrp-tuned", tuned})

	kinds := ExtendedPolicies()
	stream := func(fo *FanOut, parallel bool, prog *workload.Program, target uint64, opts StreamOptions) ([]Result, error) {
		workers := 1
		if parallel {
			workers = 3
		}
		return fo.StreamProgram(prog, 1, target, workers, opts)
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			totalA, recordsA, err := CountProgram(v.cfg, progA, 1, targetA, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if recordsA <= abortAt {
				t.Fatalf("program A has %d records; the abort at %d would not fire", recordsA, abortAt)
			}
			totalB, _, err := CountProgram(v.cfg, progB, 1, targetB, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, warmB := range []uint64{0, v.cfg.WarmupFor(totalB)} {
				for _, parallel := range []bool{false, true} {
					fresh, err := NewFanOut(v.cfg, kinds, warmB)
					if err != nil {
						t.Fatal(err)
					}
					want, err := stream(fresh, parallel, progB, targetB, StreamOptions{})
					if err != nil {
						t.Fatal(err)
					}
					for _, abort := range []bool{false, true} {
						fo, err := NewFanOut(v.cfg, kinds, v.cfg.WarmupFor(totalA))
						if err != nil {
							t.Fatal(err)
						}
						var optsA StreamOptions
						if abort {
							optsA = StreamOptions{ProgressEvery: 512, Progress: func(records, _ uint64) error {
								if records >= abortAt {
									return errAbort
								}
								return nil
							}}
						}
						if _, err := stream(fo, parallel, progA, targetA, optsA); (err != nil) != abort || (abort && !errors.Is(err, errAbort)) {
							t.Fatalf("replay of A (abort=%v): err = %v", abort, err)
						}
						fo.Reset(warmB)
						got, err := stream(fo, parallel, progB, targetB, StreamOptions{})
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("warm=%d parallel=%v abort=%v %v: reset FanOut diverges from fresh:\n reset: %+v\n fresh: %+v",
									warmB, parallel, abort, kinds[i], got[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}
