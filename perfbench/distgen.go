package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"ghrpsim/internal/dist"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/workload"
)

// dist-gen: the distributed coordinator over nproc in-process ghrpd
// workers (one slot and one result cache each, on loopback), running a
// generated suite of small workloads with the paper roster. One pass
// starts fresh workers and runs the suite twice: cold (every cell
// simulated) and warm (a second coordinator over the same worker
// caches, where cache-affinity placement routes shards back to the
// worker that holds their cells). Workers retain two runs, as in the
// worker-scaling measurements, so warm shards re-execute through the
// result cache instead of joining a retained run.
//
// Both passes are checked, but only the cold one is timed. The warm
// pass re-simulates every shard the cold pass's work stealing moved off
// its ring owner, and which shards those are is a race: on two vCPUs
// the warm pass took 0.7 to 1.6 s from one pass to the next of the same
// run, against a cold pass steady within a few percent. Its time is
// reported by dist.warm_s in the layer run.

const distMaxRuns = 2

// distGen is dist-gen's generated suite: SHORT-SERVER programs over a
// footprint sweep from 0.2 to 1.0 of the template, in as many steps as
// a shard has workloads. One category keeps a pass's work nearly the
// same from seed to seed, and every shard holds each footprint once, so
// shard times form one mode rather than several. The instruction scale
// keeps replay the larger part of a pass: at smaller budgets the
// workers' result-cache file creation dominates, and its cost follows
// the host's disk load rather than the program.
func distGen(p params) workload.SuiteGen {
	return workload.SuiteGen{N: p.DistN, Seed: p.GenSeed, Mix: workload.Mix{ShortServer: 1},
		FootprintMin: 0.2, FootprintMax: 1.0, FootprintSteps: p.DistShard}
}

type distRun struct {
	p    params
	opts dist.Options
	// ref is Coordinator.Reference's merged document, refWall its wall
	// time (the single-process baseline of dist.speedup_vs_local).
	ref     *dist.Merged
	refJSON []byte
	refWall time.Duration
}

func setupDistGen(ctx context.Context, p params) (runner, error) {
	gen := distGen(p)
	r := &distRun{p: p, opts: dist.Options{
		Suite:       &gen,
		Policies:    paperNames(),
		Scale:       p.DistScale,
		ExecSeed:    p.ExecSeed,
		Parallelism: p.Procs,
		ShardSize:   p.DistShard,
	}}
	c, err := dist.New(r.opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if r.ref, err = c.Reference(ctx); err != nil {
		return nil, err
	}
	r.refWall = time.Since(start)
	if r.refJSON, err = r.ref.IdentityJSON(); err != nil {
		return nil, err
	}
	return r, nil
}

// shardClock times shards from their first dispatch to their merge.
type shardClock struct {
	mu      sync.Mutex
	started map[int]time.Time
	ms      []float64
}

func (s *shardClock) observe(e obs.Event) {
	switch e.Kind {
	case obs.ShardDispatch, obs.ShardLocal:
		s.mu.Lock()
		if _, ok := s.started[e.Shard]; !ok {
			s.started[e.Shard] = time.Now()
		}
		s.mu.Unlock()
	case obs.ShardDone:
		s.mu.Lock()
		if t, ok := s.started[e.Shard]; ok {
			s.ms = append(s.ms, ms(time.Since(t)))
		}
		s.mu.Unlock()
	}
}

func (r *distRun) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var workers []*daemon
	defer func() {
		for _, d := range workers {
			d.stop()
		}
	}()
	opts := r.opts
	for i := 0; i < r.p.Procs; i++ {
		d, err := startDaemon(1, ghrpdQueue, distMaxRuns, r.p.Procs)
		if err != nil {
			return passResult{}, err
		}
		workers = append(workers, d)
		opts.Workers = append(opts.Workers, dist.WorkerSpec{Name: fmt.Sprintf("w%d", i), URL: d.url})
	}

	root := tr.begin("bench.pass", "dist-gen", "", 0)
	defer tr.end(root)
	var phases [2]struct {
		m    *dist.Merged
		wall time.Duration
		err  error
	}
	var coldMS, shardMS []float64
	var pr passResult
	w := startWatch()
	for i, name := range []string{"dist.Run.cold", "dist.Run.warm"} {
		clock := &shardClock{started: map[int]time.Time{}}
		opts.Observer = clock.observe
		sp := tr.begin(name, "dist-gen", "", root)
		t := time.Now()
		c, err := dist.New(opts)
		if err == nil {
			phases[i].m, err = c.Run(ctx)
		}
		phases[i].wall, phases[i].err = time.Since(t), err
		tr.end(sp)
		if i == 0 {
			pr.Wall, pr.CPU = w.stop()
			coldMS = clock.ms
		}
		shardMS = append(shardMS, clock.ms...)
	}
	// Latency is the cold pass's shard time: warm shards form a second,
	// much faster mode that would put the median between the two.
	pr.Ops, pr.Timed, pr.Latencies = 2*r.p.DistN, r.p.DistN, coldMS
	if ctx.Err() != nil {
		return pr, ctx.Err()
	}
	for _, ph := range phases {
		if ph.err != nil {
			pr.Failed += r.p.DistN
			continue
		}
		pr.Failed += r.mismatches(ph.m)
	}
	if tr != nil && pr.Failed == 0 {
		pr.Layer = r.layer(phases[0].m, phases[1].m, phases[0].wall, phases[1].wall, shardMS)
	}
	return pr, nil
}

// mismatches counts the workloads whose merged vectors differ from the
// reference; identical identity bytes mean none.
func (r *distRun) mismatches(m *dist.Merged) int {
	got, err := m.IdentityJSON()
	if err == nil && bytes.Equal(got, r.refJSON) {
		return 0
	}
	if len(m.Workloads) != len(r.ref.Workloads) || len(m.Failed) != 0 {
		return r.p.DistN
	}
	bad := 0
	for wi := range r.ref.Workloads {
		same := m.Workloads[wi] == r.ref.Workloads[wi] &&
			sameFloats(m.BranchMPKI[wi:wi+1], r.ref.BranchMPKI[wi:wi+1])
		for _, k := range r.ref.Policies {
			same = same && len(m.ICacheMPKI[k]) == len(r.ref.Workloads) && len(m.BTBMPKI[k]) == len(r.ref.Workloads) &&
				sameFloats(m.ICacheMPKI[k][wi:wi+1], r.ref.ICacheMPKI[k][wi:wi+1]) &&
				sameFloats(m.BTBMPKI[k][wi:wi+1], r.ref.BTBMPKI[k][wi:wi+1])
		}
		if !same {
			bad++
		}
	}
	return max(bad, 1) // differing bytes are a failure even if no vector entry differs
}

// layer derives the dist metrics of one traced cold+warm pass.
func (r *distRun) layer(cold, warm *dist.Merged, coldWall, warmWall time.Duration, shardMS []float64) metrics {
	m := metrics{}
	m.set("dist.shard_ms.p50", quantile(shardMS, 0.5), "ms")
	m.set("dist.shard_ms.p90", quantile(shardMS, 0.9), "ms")
	m.set("dist.cold_s", coldWall.Seconds(), "s")
	m.set("dist.warm_s", warmWall.Seconds(), "s")
	m.set("dist.speedup_vs_local", r.refWall.Seconds()/coldWall.Seconds(), "x")
	busy := 0.0
	for _, v := range shardMS {
		busy += v / 1e3
	}
	m.set("dist.worker_busy_frac", busy/((coldWall+warmWall).Seconds()*float64(r.p.Procs)), "fraction")
	ws := warm.Stats
	m.set("dist.affinity_hit_ratio", ratio(ws.AffinityHits, ws.AffinityHits+ws.AffinityMisses), "fraction")
	m.set("dist.worker_cache_hit_ratio", ratio(ws.WorkerCacheHits, r.p.DistN*len(paperKinds)), "fraction")
	cs := cold.Stats
	m.set("dist.dispatches", float64(cs.Dispatches+ws.Dispatches), "count")
	m.set("dist.hedges", float64(cs.Hedges+ws.Hedges), "count")
	m.set("dist.retries", float64(cs.Retries+ws.Retries), "count")
	m.set("dist.local_shards", float64(cs.LocalShards+ws.LocalShards), "count")
	m.set("dist.merge_parked_peak", float64(max(cs.MergeParkedPeak, ws.MergeParkedPeak)), "count")
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
