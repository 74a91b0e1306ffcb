package frontend

import (
	"sync"

	"ghrpsim/internal/workload"
)

// Checkpoint-log parallel fan-out. StreamProgram factors a record
// stream into policy-independent decision chunks (chunk.go); with more
// than one worker the same chunks become the communication log of a
// producer/worker pipeline. The calling goroutine runs the workload
// interpreter and the front — the only stateful, order-sensitive part —
// and publishes each filled chunk to every worker. Workers own disjoint
// lane subsets and replay chunks strictly in publication order, so each
// lane sees exactly the inline replay's op sequence and results stay
// bit-identical for any worker count; TestFanOutParallelMatchesSerial
// pins that.
//
// Memory is bounded by a free list of poolChunks chunks, which the
// FanOut keeps across replays: the producer blocks once all are in
// flight, and the last worker to finish a chunk returns it. Lane
// subsets are contiguous stripes, so a worker's lanes are adjacent in
// the lane slab.

// poolChunks bounds the chunks in flight between producer and workers.
// Two keeps the producer a full chunk ahead of the slowest worker; a
// couple more absorb scheduling jitter without growing the hot working
// set past the point of diminishing returns.
const poolChunks = 4

// lanePipeline is one replay's set of lane workers.
type lanePipeline struct {
	free   chan *decChunk
	queues []chan *decChunk
	wg     sync.WaitGroup
}

// startPipeline starts workers goroutines, each replaying a contiguous
// stripe of the FanOut's lanes. The caller must stop the pipeline
// before it touches the lanes again.
func (fo *FanOut) startPipeline(workers int) *lanePipeline {
	p := &lanePipeline{
		free:   make(chan *decChunk, poolChunks),
		queues: make([]chan *decChunk, workers),
	}
	for _, ch := range fo.chunkPool(poolChunks) {
		p.free <- ch
	}
	p.wg.Add(workers)
	lo := 0
	for w := range p.queues {
		// Per-worker queues sized to the pool, so publishing never
		// blocks on a queue: at most poolChunks chunks exist.
		p.queues[w] = make(chan *decChunk, poolChunks)
		hi := lo + len(fo.lanes)/workers
		if w < len(fo.lanes)%workers {
			hi++
		}
		go p.work(fo.lanes[lo:hi], p.queues[w])
		lo = hi
	}
	return p
}

// work replays every chunk published to in on lanes, returning each
// chunk to the free list once its last worker is done with it.
func (p *lanePipeline) work(lanes []lane, in <-chan *decChunk) {
	defer p.wg.Done()
	for ch := range in {
		for i := range lanes {
			lanes[i].replay(ch)
		}
		if ch.refs.Add(-1) == 0 {
			p.free <- ch
		}
	}
}

// publish hands a filled chunk to every worker and returns an empty
// chunk to fill next, blocking while all poolChunks are in flight.
func (p *lanePipeline) publish(ch *decChunk) *decChunk {
	ch.refs.Store(int32(len(p.queues)))
	for _, q := range p.queues {
		q <- ch
	}
	next := <-p.free
	next.reset()
	return next
}

// stop lets the workers drain every published chunk and waits for them
// to exit.
func (p *lanePipeline) stop() {
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
}

// SimulateFanOutSplit is SimulateFanOut with intra-workload
// parallelism: one interpreter/front pass feeds every policy lane, and
// lane replay is spread over up to workers goroutines, on a fresh
// FanOut. Results are bit-identical to SimulateFanOut's.
func SimulateFanOutSplit(cfg Config, kinds []PolicyKind, prog *workload.Program, seed, target, warmupLimit uint64, workers int, opts StreamOptions) ([]Result, error) {
	fo, err := NewFanOut(cfg, kinds, warmupLimit)
	if err != nil {
		return nil, err
	}
	return fo.StreamProgram(prog, seed, target, workers, opts)
}
