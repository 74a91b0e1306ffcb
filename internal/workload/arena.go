package workload

// chunkLen is the length of one arena chunk: 4096 blocks are 160 KiB.
// A function with more blocks than that gets an array of its own.
const chunkLen = 4096

// arena is the memory behind a Program's block arrays and indirect
// callee sets. GenerateInto resets it and carves the new program from
// the chunks the previous generation left, so a Program generated over
// and over allocates no new chunk once it has held its largest program.
//
// Chunks have a fixed size. Both alternatives raised peak RSS when
// measured on the repository benchmark: one slab grown by append, whose
// outgrown copies stay live until a collection, and per-function arrays
// reused by function index, which keep the largest array each index
// ever held.
type arena struct {
	blocks chunks[Block]
	ints   chunks[int]
	// sets backs Program.CalleeSets across generations.
	sets [][]int
}

func (a *arena) reset() {
	a.blocks.reset()
	a.ints.reset()
}

// chunks hands out zeroed slices carved from fixed-size chunks.
type chunks[T any] struct {
	bufs [][]T
	cur  int // chunk being carved; len(bufs) before the first take
	off  int // first free element of bufs[cur]
}

// reset makes every chunk available again; slices handed out before are
// overwritten by later takes.
func (c *chunks[T]) reset() { c.cur, c.off = 0, 0 }

// take returns n zeroed elements whose capacity ends at n, so an append
// to one slice can never run into the next.
func (c *chunks[T]) take(n int) []T {
	if n > chunkLen {
		return make([]T, n)
	}
	if c.cur < len(c.bufs) && c.off+n > chunkLen {
		c.cur, c.off = c.cur+1, 0
	}
	if c.cur == len(c.bufs) {
		c.bufs = append(c.bufs, make([]T, chunkLen))
	}
	s := c.bufs[c.cur][c.off : c.off+n : c.off+n]
	c.off += n
	clear(s)
	return s
}
