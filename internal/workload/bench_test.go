package workload

import (
	"testing"

	"ghrpsim/internal/trace"
)

// benchSpecs is a fixed spread of suite workloads for the synthesis
// benchmarks: per category, the spec with the fewest and the one with
// the most functions, so mobile and server, small and large footprints
// all weigh in.
func benchSpecs() []Spec {
	lo := map[trace.Category]Spec{}
	hi := map[trace.Category]Spec{}
	var order []trace.Category
	for _, s := range Suite() {
		l, ok := lo[s.Category]
		if !ok {
			order = append(order, s.Category)
			lo[s.Category], hi[s.Category] = s, s
			continue
		}
		if s.Profile.Funcs < l.Profile.Funcs {
			lo[s.Category] = s
		}
		if s.Profile.Funcs > hi[s.Category].Profile.Funcs {
			hi[s.Category] = s
		}
	}
	var out []Spec
	for _, c := range order {
		out = append(out, lo[c], hi[c])
	}
	return out
}

var benchProg *Program

// BenchmarkGenerate measures program synthesis; one op generates every
// benchSpecs program. "fresh" builds each into a new Program
// (Generate), "reused" into one Program it keeps (GenerateInto), the
// way a suite worker does.
func BenchmarkGenerate(b *testing.B) {
	specs := benchSpecs()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range specs {
				p, err := s.Generate()
				if err != nil {
					b.Fatal(err)
				}
				benchProg = p
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		var p Program
		benchProg = &p
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range specs {
				if err := s.GenerateInto(&p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

var benchExec *Executor

// BenchmarkNewExecutor measures executor set-up (validation and
// per-run state); one op builds an executor for every benchSpecs
// program.
func BenchmarkNewExecutor(b *testing.B) {
	var progs []*Program
	for _, s := range benchSpecs() {
		p, err := s.Generate()
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	sink := func(trace.Record) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			x, err := NewExecutor(p, 1, sink)
			if err != nil {
				b.Fatal(err)
			}
			benchExec = x
		}
	}
}
