package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"ghrpsim/internal/trace"
)

// tinyProfile is a fast-to-execute profile for tests.
func tinyProfile(seed uint64) Profile {
	return Profile{
		Name:       "tiny",
		Category:   trace.ShortMobile,
		Seed:       seed,
		Funcs:      12,
		BlocksMin:  4,
		BlocksMax:  8,
		InstrsMin:  3,
		InstrsMax:  10,
		LoopFrac:   0.7,
		TripMin:    4,
		TripMax:    20,
		CondFrac:   0.3,
		CallFrac:   0.2,
		ColdFrac:   0.2,
		ColdBias:   0.01,
		Phases:     2,
		PhaseFuncs: 4,
		InitBlocks: 6,
	}
}

func TestProfileValidate(t *testing.T) {
	good := tinyProfile(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile: %v", err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.Funcs = 0 },
		func(p *Profile) { p.BlocksMin = 1 },
		func(p *Profile) { p.BlocksMax = p.BlocksMin - 1 },
		func(p *Profile) { p.InstrsMin = 0 },
		func(p *Profile) { p.Phases = 0 },
		func(p *Profile) { p.PhaseFuncs = 0 },
		func(p *Profile) { p.TripMin = 0 },
	}
	for i, mutate := range bad {
		p := tinyProfile(1)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d validated, want error", i)
		}
	}
}

// Blocks store counts and indices as int32, so a profile whose values
// could exceed math.MaxInt32 is rejected before anything is narrowed.
// The trip-count case was a Program.Validate rejection while Block held
// ints; an int32 field cannot hold the value any more.
func TestProfileValidateRejectsInt32Overflow(t *testing.T) {
	const over = math.MaxInt32 + 1
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"trip count range", func(p *Profile) { p.TripMax = over }},
		{"instrs range", func(p *Profile) { p.InstrsMax = over }},
		{"blocks range", func(p *Profile) { p.BlocksMax = over }},
		{"cold blocks range", func(p *Profile) {
			p.BlocksMax = math.MaxInt32 / 2
			p.ColdFrac = 1.5
		}},
		{"function blocks range", func(p *Profile) {
			p.Funcs = 1 << 20
			p.BlocksMax = 1 << 12
		}},
		{"scan length range", func(p *Profile) {
			p.BlocksMax = 1 << 20
			p.ScanLenMul = 1 << 12
		}},
		{"default scan length range", func(p *Profile) {
			p.Funcs = 1
			p.BlocksMax = math.MaxInt32/3 + 1
		}},
		{"init blocks range", func(p *Profile) { p.InitBlocks = over }},
		{"negative scan length", func(p *Profile) { p.ScanLenMul = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyProfile(1)
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("profile validated")
			}
			if _, err := Generate(p); err == nil {
				t.Error("Generate accepted the profile")
			}
		})
	}
	// The largest values that fit are accepted.
	p := tinyProfile(1)
	p.TripMax, p.InstrsMax = math.MaxInt32, math.MaxInt32
	if err := p.Validate(); err != nil {
		t.Errorf("int32-sized trip and instruction bounds rejected: %v", err)
	}
}

func TestGenerateStructure(t *testing.T) {
	prog, err := Generate(tinyProfile(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("generated program invalid: %v", err)
	}
	if prog.InitFunc < 0 {
		t.Error("init function missing despite InitBlocks > 0")
	}
	if prog.CodeBytes() == 0 || prog.StaticBranches() == 0 {
		t.Error("degenerate program")
	}
	// Function addresses must be disjoint and increasing.
	var prevEnd uint64
	for fi := range prog.Funcs {
		for bi := range prog.Funcs[fi].Blocks {
			b := &prog.Funcs[fi].Blocks[bi]
			if b.Addr < prevEnd {
				t.Fatalf("function %d block %d overlaps previous code (%#x < %#x)", fi, bi, b.Addr, prevEnd)
			}
			prevEnd = b.Addr + uint64(b.Instrs)*InstrBytes
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(tinyProfile(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tinyProfile(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different programs")
	}
	c, err := Generate(tinyProfile(43))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical programs")
	}
}

// programGoldenSHA and streamGoldenSHA pin program synthesis and
// execution bit for bit: the first hashes every fixed-suite program in
// a layout-independent form (see hashProgram), the second the record
// streams of a spread of suite programs. A change to how programs are
// stored or executed must leave both unchanged; a deliberate change to
// what is synthesized or emitted regenerates them with:
//
//	go test ./internal/workload/ -run 'TestProgramGolden|TestStreamGolden' -v
const (
	programGoldenSHA = "198452a83b8d6a7031d7b14509c04c3d4c50f0b581c6919b0ab8b6e542012e31"
	streamGoldenSHA  = "75e4432549aa9c5f58d9621c7ecd0e8ceb0bf5b00d2f1ee7fc44a17e496b5137"
)

// wordHash feeds fixed-width little-endian words into a SHA-256.
type wordHash struct {
	h   hash.Hash
	buf []byte
}

func newWordHash() *wordHash { return &wordHash{h: sha256.New()} }

func (w *wordHash) word(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	if len(w.buf) >= 1<<16 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *wordHash) int(v int) { w.word(uint64(v)) }

func (w *wordHash) bool(v bool) {
	if v {
		w.word(1)
	} else {
		w.word(0)
	}
}

func (w *wordHash) sum() string {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
	return fmt.Sprintf("%x", w.h.Sum(nil))
}

// callees returns the candidate callees of a call block as function
// indices (nil for any other terminator). It is the one place the
// golden hash depends on how call targets are stored.
func callees(p *Program, b *Block) []int {
	switch b.Term {
	case TermCall:
		return []int{int(b.Callee)}
	case TermIndirectCall:
		return p.CalleeSets[b.Callee]
	}
	return nil
}

// hashProgram feeds everything synthesis decides about a program into w,
// except names.
func hashProgram(w *wordHash, p *Program) {
	w.int(int(p.Category))
	w.int(p.InitFunc)
	w.word(p.DispatchAddr)
	w.bool(p.DispatchIndirect)
	w.int(p.BurstMin)
	w.int(p.BurstMax)
	w.int(len(p.Funcs))
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		w.bool(f.Scan)
		w.int(len(f.Blocks))
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			w.word(b.Addr)
			w.int(int(b.Instrs))
			w.int(int(b.Term))
			w.int(int(b.Target))
			w.word(math.Float64bits(b.Bias))
			w.int(int(b.TripCount))
			cs := callees(p, b)
			w.int(len(cs))
			for _, c := range cs {
				w.int(c)
			}
		}
	}
	w.int(len(p.Phases))
	for _, ph := range p.Phases {
		w.int(len(ph.Funcs))
		for i, f := range ph.Funcs {
			w.int(f)
			w.word(math.Float64bits(ph.Weights[i]))
		}
	}
}

func TestProgramGolden(t *testing.T) {
	w := newWordHash()
	for _, s := range Suite() {
		prog, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		hashProgram(w, prog)
	}
	got := w.sum()
	t.Logf("program SHA-256: %s", got)
	if got != programGoldenSHA {
		t.Errorf("suite programs changed:\n got  %s\n want %s", got, programGoldenSHA)
	}
}

func TestStreamGolden(t *testing.T) {
	const seed, target = 7, 40_000
	w := newWordHash()
	for _, s := range SuiteN(32) {
		prog, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		n, err := Emit(prog, seed, target, func(r trace.Record) error {
			w.word(r.PC)
			w.word(r.Target)
			w.int(int(r.Type))
			w.bool(r.Taken)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		w.word(n)
	}
	got := w.sum()
	t.Logf("stream SHA-256: %s", got)
	if got != streamGoldenSHA {
		t.Errorf("record streams changed:\n got  %s\n want %s", got, streamGoldenSHA)
	}
}

// TestGeneratedProgramsValid is the generator's structural self-check:
// Generate does not validate its own output (NewExecutor validates every
// program it runs), so every fixed-suite program and a window of a
// default generated suite, covering every category, must validate here.
func TestGeneratedProgramsValid(t *testing.T) {
	check := func(s Spec) {
		prog, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: generated program invalid: %v", s.Name, err)
		}
	}
	for _, s := range Suite() {
		check(s)
	}
	gen := SuiteGen{N: 256}
	cats := map[trace.Category]bool{}
	for i := 0; i < gen.Len(); i++ {
		s := gen.At(i)
		cats[s.Category] = true
		check(s)
	}
	if len(cats) != 4 {
		t.Errorf("generated window covers %d categories, want 4", len(cats))
	}
}

func TestExecutorEmitsValidRecords(t *testing.T) {
	prog, err := Generate(tinyProfile(9))
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	n, err := Emit(prog, 1, 20000, func(r trace.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || uint64(len(recs)) != n {
		t.Fatalf("emitted %d records, callback saw %d", n, len(recs))
	}
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v (%+v)", i, err, r)
		}
	}
}

func TestExecutorControlFlowConsistency(t *testing.T) {
	// The record stream must be consistent with sequential execution:
	// each record's PC must be reachable from the previous record's next
	// PC by a forward sequential walk (same property the trace Fetcher
	// relies on).
	prog, err := Generate(tinyProfile(11))
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.NewFetcher(InstrBytes, 64)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	_, err = Emit(prog, 3, 30000, func(r trace.Record) error {
		total += f.Next(r, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Resyncs() != 0 {
		t.Errorf("%d fetch discontinuities: executor emits inconsistent control flow", f.Resyncs())
	}
	if total == 0 {
		t.Error("no instructions reconstructed")
	}
}

func TestExecutorDeterministic(t *testing.T) {
	prog, err := Generate(tinyProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	run := func() []trace.Record {
		var recs []trace.Record
		if _, err := Emit(prog, 99, 5000, func(r trace.Record) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestExecutorInstructionBudget(t *testing.T) {
	prog, err := Generate(tinyProfile(13))
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewExecutor(prog, 1, func(trace.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	const target = 10000
	if err := x.Run(target); err != nil {
		t.Fatal(err)
	}
	got := x.Instructions()
	if got < target {
		t.Errorf("executed %d instructions, want >= %d", got, target)
	}
	if got > target*2 {
		t.Errorf("executed %d instructions, way over target %d", got, target)
	}
}

func TestExecutorZeroTarget(t *testing.T) {
	prog, err := Generate(tinyProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewExecutor(prog, 1, func(trace.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Run(0); err == nil {
		t.Error("zero target accepted")
	}
}

func TestCountedLoopTripCount(t *testing.T) {
	// A single function with one counted loop: the back branch must be
	// taken exactly TripCount times per loop entry.
	prog := &Program{
		Name:         "loop",
		Category:     trace.ShortMobile,
		InitFunc:     -1,
		DispatchAddr: codeBase,
		Funcs: []Function{{
			Blocks: []Block{
				{Addr: 0x401000, Instrs: 4, Term: TermFall},
				{Addr: 0x401010, Instrs: 4, Term: TermCond, Target: 1, TripCount: 5},
				{Addr: 0x401020, Instrs: 4, Term: TermReturn},
			},
		}},
		Phases: []Phase{{Funcs: []int{0}, Weights: []float64{1}}},
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	taken, notTaken := 0, 0
	_, err := Emit(prog, 1, 2000, func(r trace.Record) error {
		if r.Type == trace.CondDirect {
			if r.Taken {
				taken++
			} else {
				notTaken++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if notTaken == 0 {
		t.Fatal("loop never exited")
	}
	ratio := float64(taken) / float64(notTaken)
	if ratio < 4.9 || ratio > 5.1 {
		t.Errorf("taken/not-taken ratio %.2f, want 5.0", ratio)
	}
}

func TestSuiteComposition(t *testing.T) {
	specs := Suite()
	if len(specs) != SuiteSize {
		t.Fatalf("suite has %d workloads, want %d", len(specs), SuiteSize)
	}
	counts := map[trace.Category]int{}
	names := map[string]bool{}
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("spec %d has index %d", i, s.Index)
		}
		counts[s.Category]++
		if names[s.Name] {
			t.Fatalf("duplicate workload name %q", s.Name)
		}
		names[s.Name] = true
		if err := s.Profile.Validate(); err != nil {
			t.Fatalf("workload %s profile invalid: %v", s.Name, err)
		}
		if s.DefaultInstructions == 0 {
			t.Fatalf("workload %s has zero default instructions", s.Name)
		}
	}
	if counts[trace.ShortMobile] != nShortMobile || counts[trace.LongMobile] != nLongMobile ||
		counts[trace.ShortServer] != nShortServer || counts[trace.LongServer] != nLongServer {
		t.Errorf("category counts %v", counts)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a, b := Suite(), Suite()
	for i := range a {
		if a[i].Profile.Seed != b[i].Profile.Seed || a[i].Name != b[i].Name {
			t.Fatalf("suite not deterministic at %d", i)
		}
	}
}

func TestSuiteN(t *testing.T) {
	sub := SuiteN(20)
	if len(sub) != 20 {
		t.Fatalf("SuiteN(20) returned %d", len(sub))
	}
	cats := map[trace.Category]bool{}
	for _, s := range sub {
		cats[s.Category] = true
	}
	if len(cats) != 4 {
		t.Errorf("subsample covers %d categories, want 4", len(cats))
	}
	if got := len(SuiteN(100000)); got != SuiteSize {
		t.Errorf("oversized SuiteN returned %d", got)
	}
	if got := len(SuiteN(0)); got != 1 {
		t.Errorf("SuiteN(0) returned %d", got)
	}
}

func TestSuiteFootprintSpread(t *testing.T) {
	// Server workloads must have larger code footprints than mobile on
	// average, and the suite must include both cache-fitting and
	// cache-overflowing footprints relative to 64KB.
	var mobile, server, nm, ns float64
	small, large := 0, 0
	for _, s := range SuiteN(60) {
		prog, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		kb := float64(prog.CodeBytes()) / 1024
		if s.Category.Server() {
			server += kb
			ns++
		} else {
			mobile += kb
			nm++
		}
		if kb < 64 {
			small++
		} else {
			large++
		}
	}
	if server/ns <= mobile/nm {
		t.Errorf("server mean %.0fKB <= mobile mean %.0fKB", server/ns, mobile/nm)
	}
	if small == 0 || large == 0 {
		t.Errorf("footprints not spread across 64KB: %d small, %d large", small, large)
	}
}

func TestRNGHelpers(t *testing.T) {
	r := newRNG(0)
	if r.next() == 0 {
		t.Error("zero seed produced zero stream")
	}
	if got := r.rangeInt(5, 5); got != 5 {
		t.Errorf("degenerate range = %d", got)
	}
	if got := r.rangeInt(7, 3); got != 7 {
		t.Errorf("inverted range = %d", got)
	}
	if r.intn(0) != 0 {
		t.Error("intn(0) must be 0")
	}
	f := func(seed uint64) bool {
		rr := newRNG(seed)
		v := rr.float()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	w := []float64{0, 0, 1}
	for i := 0; i < 20; i++ {
		if got := r.pick(w); got != 2 {
			t.Fatalf("pick chose zero-weight index %d", got)
		}
	}
	z := []float64{0, 0}
	if got := r.pick(z); got < 0 || got > 1 {
		t.Errorf("pick on zero weights = %d", got)
	}
}

func TestLogUniformInt(t *testing.T) {
	r := newRNG(3)
	for i := 0; i < 1000; i++ {
		v := logUniformInt(r, 10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("logUniformInt out of range: %d", v)
		}
	}
	if logUniformInt(r, 5, 5) != 5 {
		t.Error("degenerate log-uniform range")
	}
}
