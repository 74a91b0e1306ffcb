package workload

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"ghrpsim/internal/trace"
)

// exported returns p's exported content: the arena behind it differs
// between a fresh and a reused Program by design.
func exported(p *Program) Program {
	q := *p
	q.arena = arena{}
	return q
}

// reuseSpecs returns the fixed-suite extremes of benchSpecs plus one
// generated spec per category, largest program first.
func reuseSpecs(t *testing.T) []Spec {
	specs := benchSpecs()
	gen := SuiteGen{N: 64}
	seen := map[trace.Category]bool{}
	for i := 0; i < gen.Len() && len(seen) < 4; i++ {
		if s := gen.At(i); !seen[s.Category] {
			seen[s.Category] = true
			specs = append(specs, s)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("generated window covers %d categories, want 4", len(seen))
	}
	slices.SortStableFunc(specs, func(a, b Spec) int { return b.Profile.Funcs - a.Profile.Funcs })
	return specs
}

// A Program generated again and again, growing and shrinking, must equal
// a fresh Generate of the same spec after every step.
func TestGenerateIntoReuseMatchesFresh(t *testing.T) {
	specs := reuseSpecs(t)
	order := append(slices.Clone(specs), specs...)
	slices.Reverse(order[len(specs):]) // large → small → large
	var prog Program
	for step, s := range order {
		if err := s.GenerateInto(&prog); err != nil {
			t.Fatalf("step %d %s: %v", step, s.Name, err)
		}
		fresh, err := s.Generate()
		if err != nil {
			t.Fatalf("step %d %s: %v", step, s.Name, err)
		}
		if !reflect.DeepEqual(exported(&prog), exported(fresh)) {
			t.Fatalf("step %d %s: reused program differs from a fresh one", step, s.Name)
		}
	}
}

// A profile error leaves the program as it was.
func TestGenerateIntoErrorKeepsProgram(t *testing.T) {
	var prog Program
	if err := GenerateInto(&prog, tinyProfile(3)); err != nil {
		t.Fatal(err)
	}
	want := exported(&prog)
	bad := tinyProfile(4)
	bad.Funcs = 0
	if err := GenerateInto(&prog, bad); err == nil {
		t.Fatal("invalid profile accepted")
	}
	if !reflect.DeepEqual(exported(&prog), want) {
		t.Error("a rejected profile changed the program")
	}
}

// A warm GenerateInto allocates only its phase tables and the arrays of
// functions too large for a chunk; a reused Executor.Emit allocates
// nothing.
func TestReuseAllocs(t *testing.T) {
	for _, s := range reuseSpecs(t) {
		var prog Program
		if err := s.GenerateInto(&prog); err != nil {
			t.Fatal(err)
		}
		// genPhases: the phase slice, the Zipf weights, the seen set,
		// and each phase's function and weight slices.
		want := 3 + 2*len(prog.Phases)
		for _, f := range prog.Funcs {
			if len(f.Blocks) > chunkLen {
				want++
			}
		}
		got := testing.AllocsPerRun(3, func() {
			if err := s.GenerateInto(&prog); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(want) {
			t.Errorf("%s: warm GenerateInto allocates %v times, want at most %d", s.Name, got, want)
		}

		x, err := NewExecutor(&prog, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink := func(trace.Record) error { return nil }
		if got := testing.AllocsPerRun(3, func() {
			if _, err := x.Emit(1, 20_000, sink); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: reused Executor.Emit allocates %v times, want 0", s.Name, got)
		}
	}
}

// Executor.Emit resets everything a run leaves behind, so the same seed
// yields the same stream on every call — after a complete run, and
// after a run a sink error aborted with loop counters and the call
// stack mid-state — and that stream is a fresh executor's.
func TestExecutorEmitResets(t *testing.T) {
	prog, err := Generate(tinyProfile(11))
	if err != nil {
		t.Fatal(err)
	}
	const seed, target = 5, 30_000
	collect := func(emit func(seed, target uint64, sink func(trace.Record) error) (uint64, error)) []trace.Record {
		var recs []trace.Record
		n, err := emit(seed, target, func(r trace.Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(recs)) {
			t.Fatalf("Emit reported %d records, sink saw %d", n, len(recs))
		}
		return recs
	}
	want := collect(prog.Emit)
	if len(want) == 0 {
		t.Fatal("empty stream")
	}

	x, err := NewExecutor(prog, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(x.Emit); !slices.Equal(got, want) {
		t.Fatal("first Executor.Emit differs from a fresh executor's stream")
	}
	if got := collect(x.Emit); !slices.Equal(got, want) {
		t.Fatal("second Executor.Emit differs from the first")
	}

	// Abort at the first record that finds the executor inside a call
	// with a loop part-way through, under another seed.
	stop := errors.New("stop")
	aborted := false
	for k := 1; k < len(want) && !aborted; k++ {
		n := 0
		_, err := x.Emit(seed+1, target, func(trace.Record) error {
			if n++; n == k {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("abort at record %d: err = %v", k, err)
		}
		aborted = len(x.stack) > 0 && slices.ContainsFunc(x.tripUsed, func(u int32) bool { return u > 0 })
	}
	if !aborted {
		t.Fatal("no abort left a call stack and a loop counter mid-state")
	}
	if got := collect(x.Emit); !slices.Equal(got, want) {
		t.Fatal("Executor.Emit after an aborted run differs from a fresh executor's stream")
	}
}
