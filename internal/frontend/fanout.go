package frontend

import (
	"fmt"

	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// FanOut replays one record stream through N policy lanes in lockstep:
// the policy-independent front (direction predictor, RAS, indirect
// predictor, fetch reconstruction, warm-up accounting) is evaluated once
// per record and its decisions — the coalesced I-cache access list, the
// wrong-path block list, the BTB probe — are applied to every lane.
//
// Because no front component observes cache or BTB state, each lane sees
// exactly the sequence of accesses it would derive as a standalone
// Engine, and lanes never observe each other; the fused replay is
// therefore bit-identical to N independent per-policy replays of the
// same stream. TestFanOutMatchesPerPolicy pins this contract.
//
// A FanOut is reusable: Reset returns it to the state NewFanOut leaves
// it in, so one FanOut can replay workload after workload without
// reallocating its lanes, front or decision chunks.
type FanOut struct {
	front *front
	lanes []lane
	// chunks holds the decision chunks StreamProgram fills (chunk.go):
	// an inline replay uses the first, a pipeline up to poolChunks. They are allocated on first use and live as long
	// as the FanOut; every replay resets the chunks it takes.
	chunks []*decChunk
}

// NewFanOut builds a fused simulator driving one lane per element of
// kinds (duplicates allowed — each gets an independent lane). The
// warm-up limit applies to all lanes, exactly as it would to N separate
// engines built with the same limit. Fan-out lanes do not track cache
// efficiency (only Engine's heat maps read it).
func NewFanOut(cfg Config, kinds []PolicyKind, warmupLimit uint64) (*FanOut, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("frontend: fan-out needs at least one policy")
	}
	f, lanes, err := newSim(cfg, kinds, warmupLimit)
	if err != nil {
		return nil, err
	}
	return &FanOut{front: f, lanes: lanes}, nil
}

// Reset restores the fan-out to the state NewFanOut leaves it in —
// every predictor, stack, cache, BTB, policy, prefetch filter, counter
// and the warm-up flag — with warmupLimit as the new warm-up window.
// A replay after Reset is bit-identical to one on a freshly built
// FanOut, whatever the previous replay did, including one aborted by a
// Progress error.
func (fo *FanOut) Reset(warmupLimit uint64) {
	resetSim(fo.front, fo.lanes, warmupLimit)
}

// chunkPool returns n decision chunks, allocating any this FanOut does
// not hold yet.
func (fo *FanOut) chunkPool(n int) []*decChunk {
	for len(fo.chunks) < n {
		fo.chunks = append(fo.chunks, newDecChunk())
	}
	return fo.chunks[:n]
}

// Results snapshots the per-lane statistics, in the order the policy
// kinds were given to NewFanOut.
func (fo *FanOut) Results() []Result {
	out := make([]Result, len(fo.lanes))
	for i := range fo.lanes {
		out[i] = makeResult(fo.front, &fo.lanes[i])
	}
	return out
}

// StreamProgram re-emits a program's deterministic record stream
// straight into the fan-out, with no intermediate record buffer; the
// replay cost is one program interpretation regardless of lane count.
//
// Internally the stream runs lane-major: the front's decisions are
// serialized into chunks (chunk.go) and each lane replays a whole chunk
// per activation, which keeps one specialized replay body and one
// lane's tables hot at a time instead of cycling through all of them
// every record. With workers of one or less (or a single lane) every
// full chunk is replayed inline and no goroutine is started; above
// that, lane replay is spread over up to workers goroutines
// (fanlog.go). The result is bit-identical to record-major per-policy
// replays at any worker count; TestFanOutMatchesPerPolicy,
// TestFanOutParallelMatchesSerial and the chunking equivalence tests
// pin that.
func (fo *FanOut) StreamProgram(src Stream, seed, target uint64, workers int, opts StreamOptions) ([]Result, error) {
	if err := fo.stream(src, seed, target, min(workers, len(fo.lanes)), opts); err != nil {
		return nil, err
	}
	return fo.Results(), nil
}

// stream runs StreamProgram's replay. With a pipeline, its workers
// have drained every published chunk and exited by the time stream
// returns — normally, aborted by Progress, or panicking — so no
// goroutine is still replaying a lane when the caller reads results or
// resets the FanOut.
func (fo *FanOut) stream(src Stream, seed, target uint64, workers int, opts StreamOptions) error {
	var p *lanePipeline
	ch := fo.chunkPool(1)[0]
	if workers > 1 {
		p = fo.startPipeline(workers)
		defer p.stop()
		ch = <-p.free
	}
	ch.reset()
	pace := newPacer(opts)
	_, err := src.Emit(seed, target, func(r trace.Record) error {
		fo.front.decide(r, &fo.front.dec)
		ch.push(&fo.front.dec)
		if ch.full() {
			ch = fo.flush(p, ch)
		}
		if pace.tick() {
			return opts.Progress(pace.n, fo.front.instrs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fo.flush(p, ch)
	return nil
}

// flush hands a chunk to every lane — replayed inline without a
// pipeline, published to its workers with one — and returns the empty
// chunk to fill next.
func (fo *FanOut) flush(p *lanePipeline, ch *decChunk) *decChunk {
	if p != nil {
		return p.publish(ch)
	}
	for i := range fo.lanes {
		fo.lanes[i].replay(ch)
	}
	ch.reset()
	return ch
}

// SimulateFanOut executes a workload program once and replays it under
// every given policy in lockstep on a fresh FanOut. It returns one
// Result per kind, each bit-identical to what SimulateProgramStream
// would produce for that kind alone with the same warm-up limit.
func SimulateFanOut(cfg Config, kinds []PolicyKind, prog *workload.Program, seed, target, warmupLimit uint64, opts StreamOptions) ([]Result, error) {
	return SimulateFanOutSplit(cfg, kinds, prog, seed, target, warmupLimit, 1, opts)
}
