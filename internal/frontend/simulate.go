package frontend

import (
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// DefaultProgressEvery is how many records pass between StreamOptions
// progress callbacks when the caller leaves ProgressEvery at zero.
const DefaultProgressEvery = 1 << 16

// StreamOptions tunes a streaming replay. The zero value streams with no
// callbacks.
type StreamOptions struct {
	// Progress, when non-nil, is invoked every ProgressEvery records
	// with the records and instructions replayed so far; returning an
	// error aborts the replay with that error (this is how callers
	// implement cancellation).
	Progress func(records, instructions uint64) error
	// ProgressEvery is the record interval between Progress calls;
	// 0 means DefaultProgressEvery.
	ProgressEvery uint64
}

// Stream is a deterministic branch-record stream. Emit runs it for
// about target instructions under seed, writing every record to sink,
// and returns how many records it wrote; a sink error aborts the run
// and is returned. Equal (seed, target) arguments give identical
// streams on every call.
//
// *workload.Program implements Stream with a freshly built, validated
// executor per call; *workload.Executor implements it by resetting
// itself, so a caller that emits one program several times — a counting
// pass, then a replay — validates it once.
type Stream interface {
	Emit(seed, target uint64, sink func(trace.Record) error) (records uint64, err error)
}

// pacer paces one replay's StreamOptions.Progress callbacks. It sits
// in every streaming replay's per-record body, so tick stays small
// enough to inline.
type pacer struct {
	// n counts the records replayed; the next callback is due when it
	// reaches due. Without a callback due stays 0, which n never
	// returns to.
	n, due, every uint64
}

func newPacer(opts StreamOptions) pacer {
	p := pacer{every: opts.ProgressEvery}
	if p.every == 0 {
		p.every = DefaultProgressEvery
	}
	if opts.Progress != nil {
		p.due = p.every
	}
	return p
}

// tick counts one replayed record and reports whether Progress is due.
func (p *pacer) tick() bool {
	p.n++
	if p.n != p.due {
		return false
	}
	p.due += p.every
	return true
}

// CountInstructions walks a record slice with a fetch reconstructor and
// returns the total instruction count it implies.
func CountInstructions(recs []trace.Record, instrBytes, blockBytes uint64) (uint64, error) {
	f, err := trace.NewFetcher(instrBytes, blockBytes)
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, r := range recs {
		total += f.Next(r, nil)
	}
	return total, nil
}

// CountProgram streams a program's deterministic record stream through a
// fetch reconstructor without buffering it, returning the total
// instruction and record counts — the streaming equivalent of
// GenerateRecords followed by CountInstructions.
func CountProgram(cfg Config, src Stream, seed, target uint64, opts StreamOptions) (instrs, records uint64, err error) {
	f, err := trace.NewFetcher(cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		return 0, 0, err
	}
	pace := newPacer(opts)
	var total uint64
	n, err := src.Emit(seed, target, func(r trace.Record) error {
		total += f.Next(r, nil)
		if pace.tick() {
			return opts.Progress(pace.n, total)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return total, n, nil
}

// SimulateRecords runs one policy over a pre-generated record slice,
// deriving the warm-up window from the records themselves.
func SimulateRecords(cfg Config, kind PolicyKind, recs []trace.Record) (Result, error) {
	total, err := CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		return Result{}, err
	}
	e, err := NewEngine(cfg, kind, cfg.WarmupFor(total))
	if err != nil {
		return Result{}, err
	}
	return e.Run(recs), nil
}

// StreamProgram re-emits a program's deterministic record stream
// straight into the engine, with no intermediate record buffer. Because
// workload.Emit is deterministic for a (program, seed, target) triple,
// repeated streams replay the identical trace the buffered
// GenerateRecords path would produce.
func (e *Engine) StreamProgram(src Stream, seed, target uint64, opts StreamOptions) (Result, error) {
	pace := newPacer(opts)
	_, err := src.Emit(seed, target, func(r trace.Record) error {
		e.Process(r)
		if pace.tick() {
			return opts.Progress(pace.n, e.front.instrs)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return e.Result(), nil
}

// SimulateProgramStream builds an engine with an explicit warm-up limit
// and streams the program through it. Pair it with CountProgram to
// derive the warm-up from the stream's actual instruction count, which
// makes the result bit-identical to the buffered SimulateRecords path.
func SimulateProgramStream(cfg Config, kind PolicyKind, prog *workload.Program, seed, target, warmupLimit uint64, opts StreamOptions) (Result, error) {
	e, err := NewEngine(cfg, kind, warmupLimit)
	if err != nil {
		return Result{}, err
	}
	return e.StreamProgram(prog, seed, target, opts)
}

// SimulateProgram executes a synthesized program for target instructions,
// streaming records straight into a fresh engine (no intermediate record
// buffer). The warm-up window is derived from the target.
func SimulateProgram(cfg Config, kind PolicyKind, prog *workload.Program, seed, target uint64) (Result, error) {
	return SimulateProgramStream(cfg, kind, prog, seed, target, cfg.WarmupFor(target), StreamOptions{})
}

// GenerateRecords executes a program once and returns its record stream,
// so many policies can replay the identical trace.
func GenerateRecords(prog *workload.Program, seed, target uint64) ([]trace.Record, error) {
	recs := make([]trace.Record, 0, target/8)
	if _, err := workload.Emit(prog, seed, target, func(r trace.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return recs, nil
}
