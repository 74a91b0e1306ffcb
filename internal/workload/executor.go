package workload

import (
	"context"
	"fmt"

	"ghrpsim/internal/trace"
)

// maxCallDepth bounds the runtime call stack; deeper call sites execute
// as fall-throughs. Real traces have bounded stacks too.
const maxCallDepth = 10

// dispatcherInstrs approximates the per-task overhead of the dispatcher
// loop (sample, call, loop back).
const dispatcherInstrs = 4

// defaultTaskCap bounds one dispatcher task's instruction count. Nested
// counted loops around call sites can otherwise multiply without bound
// (trip^depth); real request handlers are bounded by time slicing and
// deadlines. When the cap is hit the task fast-forwards to its returns,
// emitting a consistent record stream.
const defaultTaskCap = 25_000

// Executor interprets a Program, emitting one trace.Record per executed
// branch. Execution is deterministic for a given (program, seed).
type Executor struct {
	prog     *Program
	rng      rng
	emit     func(trace.Record) error
	instrs   uint64
	records  uint64
	target   uint64
	burstMin int
	burstMax int
	tripUsed []int32 // per global block: loop iterations taken so far
	blockOff []int   // function index -> global block offset
	stack    []retAddr
	err      error
}

type retAddr struct {
	fn    int
	block int
}

// NewExecutor validates p and prepares an executor that will emit
// records through emit. The emit callback may return an error to abort
// execution early; it may be nil when every run goes through Emit,
// which brings its own sink. The executor reads p on every run, so p
// must not change while the executor is in use.
func NewExecutor(p *Program, seed uint64, emit func(trace.Record) error) (*Executor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	x := &Executor{prog: p, emit: emit, burstMin: p.BurstMin, burstMax: p.BurstMax}
	if x.burstMin < 1 {
		x.burstMin = 1
	}
	if x.burstMax < x.burstMin {
		x.burstMax = x.burstMin
	}
	x.blockOff = make([]int, len(p.Funcs)+1)
	for fi := range p.Funcs {
		x.blockOff[fi+1] = x.blockOff[fi] + len(p.Funcs[fi].Blocks)
	}
	x.tripUsed = make([]int32, x.blockOff[len(p.Funcs)])
	x.stack = make([]retAddr, 0, maxCallDepth)
	x.rng = *newRNG(seed)
	return x, nil
}

// Emit resets the executor to the state NewExecutor leaves it in under
// seed — rng, loop counters, call stack and counts — and runs it for
// target instructions with records written to sink. A previous run,
// complete or aborted mid-task by a sink error, leaves no trace in the
// new one, so Emit yields the same stream as a fresh executor's without
// validating the program again.
func (x *Executor) Emit(seed, target uint64, sink func(trace.Record) error) (uint64, error) {
	x.rng = *newRNG(seed)
	x.emit = sink
	x.instrs, x.records, x.target, x.err = 0, 0, 0, nil
	clear(x.tripUsed) // every task starts on an empty call stack (exec)
	err := x.Run(target)
	return x.records, err
}

// Instructions returns how many instructions have been executed so far.
func (x *Executor) Instructions() uint64 { return x.instrs }

// Run executes the program until approximately target instructions have
// been emitted: the one-shot init function first, then the phase
// schedule, each phase receiving an equal share of the budget.
func (x *Executor) Run(target uint64) error {
	if target == 0 {
		return fmt.Errorf("workload: zero instruction target")
	}
	x.target = target
	if x.prog.InitFunc >= 0 {
		if !x.task(x.prog.InitFunc) {
			return x.err
		}
	}
	phases := x.prog.Phases
	for pi := range phases {
		limit := x.target * uint64(pi+1) / uint64(len(phases))
		for x.instrs < limit {
			fn := phases[pi].Funcs[x.rng.pick(phases[pi].Weights)]
			burst := x.rng.rangeInt(x.burstMin, x.burstMax)
			if x.prog.Funcs[fn].Scan {
				burst = 1
			}
			for b := 0; b < burst && x.instrs < limit; b++ {
				if !x.task(fn) {
					return x.err
				}
			}
		}
	}
	return x.err
}

// record emits one branch record; it returns false when execution must
// stop (budget exhausted or sink error).
func (x *Executor) record(r trace.Record) bool {
	if x.err != nil {
		return false
	}
	x.records++
	if err := x.emit(r); err != nil {
		x.err = err
		return false
	}
	return x.instrs < x.target
}

// task runs one dispatcher iteration: call fn, execute to completion,
// return to the dispatcher. Returns false to stop all execution.
func (x *Executor) task(fn int) bool {
	d := x.prog.DispatchAddr
	callPC := d + 4
	entry := x.prog.Funcs[fn].Entry()
	x.instrs += dispatcherInstrs
	ctype := trace.DirectCall
	if x.prog.DispatchIndirect {
		ctype = trace.IndirectCall
	}
	if !x.record(trace.Record{PC: callPC, Target: entry, Type: ctype, Taken: true}) {
		return false
	}
	if !x.exec(fn, d+8) {
		return false
	}
	// Dispatcher loop-back jump.
	return x.record(trace.Record{PC: d + 12, Target: d, Type: trace.UncondDirect, Taken: true})
}

// exec interprets function fn until it returns; retTo is the address the
// final return transfers to. Returns false to stop all execution.
func (x *Executor) exec(fn int, retTo uint64) bool {
	x.stack = x.stack[:0]
	curFn, curBlk := fn, 0
	taskStart := x.instrs
	for {
		f := &x.prog.Funcs[curFn]
		b := &f.Blocks[curBlk]
		// Task cap: fast-forward to this function's return block so the
		// record stream stays control-flow consistent while the task
		// unwinds.
		if x.instrs-taskStart > defaultTaskCap && b.Term != TermReturn {
			ret := len(f.Blocks) - 1
			for ri := range f.Blocks {
				if f.Blocks[ri].Term == TermReturn {
					ret = ri
					break
				}
			}
			if ret != curBlk {
				x.instrs += uint64(b.Instrs)
				if !x.record(trace.Record{PC: b.LastPC(), Target: f.Blocks[ret].Addr, Type: trace.UncondDirect, Taken: true}) {
					return false
				}
				curBlk = ret
				continue
			}
		}
		x.instrs += uint64(b.Instrs)
		pc := b.LastPC()
		switch b.Term {
		case TermFall:
			curBlk++

		case TermCond:
			taken := x.condTaken(curFn, curBlk, b)
			tgt := f.Blocks[b.Target].Addr
			if !x.record(trace.Record{PC: pc, Target: tgt, Type: trace.CondDirect, Taken: taken}) {
				return false
			}
			if taken {
				curBlk = int(b.Target)
			} else {
				curBlk++
			}

		case TermJump:
			tgt := f.Blocks[b.Target].Addr
			if !x.record(trace.Record{PC: pc, Target: tgt, Type: trace.UncondDirect, Taken: true}) {
				return false
			}
			curBlk = int(b.Target)

		case TermCall, TermIndirectCall:
			callee := int(b.Callee)
			ctype := trace.DirectCall
			if b.Term == TermIndirectCall {
				cs := x.prog.CalleeSets[b.Callee]
				callee = cs[x.rng.intn(len(cs))]
				ctype = trace.IndirectCall
			}
			if len(x.stack) >= maxCallDepth {
				// Depth limit: execute as a fall-through.
				curBlk++
				continue
			}
			entry := x.prog.Funcs[callee].Entry()
			if !x.record(trace.Record{PC: pc, Target: entry, Type: ctype, Taken: true}) {
				return false
			}
			x.stack = append(x.stack, retAddr{fn: curFn, block: curBlk + 1})
			curFn, curBlk = callee, 0

		case TermReturn:
			if len(x.stack) == 0 {
				return x.record(trace.Record{PC: pc, Target: retTo, Type: trace.Return, Taken: true})
			}
			top := x.stack[len(x.stack)-1]
			x.stack = x.stack[:len(x.stack)-1]
			retTarget := x.prog.Funcs[top.fn].Blocks[top.block].Addr
			if !x.record(trace.Record{PC: pc, Target: retTarget, Type: trace.Return, Taken: true}) {
				return false
			}
			curFn, curBlk = top.fn, top.block
		}
	}
}

// condTaken resolves a conditional branch: a counted loop is taken
// TripCount times, then not taken once; others sample their bias.
func (x *Executor) condTaken(fn, blk int, b *Block) bool {
	if b.TripCount > 0 {
		gi := x.blockOff[fn] + blk
		if x.tripUsed[gi] < b.TripCount {
			x.tripUsed[gi]++
			return true
		}
		x.tripUsed[gi] = 0
		return false
	}
	return x.rng.float() < b.Bias
}

// Emit runs prog for target instructions on a freshly built, validated
// executor and writes all records through a trace.Writer-compatible
// sink, returning the record count.
func Emit(p *Program, seed, target uint64, sink func(trace.Record) error) (records uint64, err error) {
	x, err := NewExecutor(p, seed, sink)
	if err != nil {
		return 0, err
	}
	err = x.Run(target)
	return x.records, err
}

// emitCheckEvery is how many records pass between EmitContext's
// cancellation polls.
const emitCheckEvery = 1 << 16

// EmitContext is Emit with cooperative cancellation: the context is
// polled periodically and a pending cancellation aborts the emission,
// returning ctx.Err().
func EmitContext(ctx context.Context, p *Program, seed, target uint64, sink func(trace.Record) error) (uint64, error) {
	var n uint64
	return Emit(p, seed, target, func(r trace.Record) error {
		n++
		if n%emitCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return sink(r)
	})
}
