package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ghrpsim/internal/dist"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/serve"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/workload"
)

// served-mix: an in-process ghrpd (serve.New at the daemon's default
// slots, queue and run retention) with an on-disk result cache, on a
// loopback listener, driven by a closed loop of nproc clients that each
// run Submit -> Tail (SSE) -> Result. One pass is one round of the
// seeded request list against a fresh daemon and an empty cache.

// ghrpd's flag defaults.
const (
	ghrpdSlots   = 2
	ghrpdQueue   = 16
	ghrpdMaxRuns = 1024
)

// daemon is one in-process ghrpd on a loopback listener.
type daemon struct {
	url  string
	srv  *serve.Server
	http *http.Server
	dir  string
	done chan struct{}
}

// startDaemon starts a ghrpd with its own empty on-disk result cache.
// Job parallelism follows ghrpd's default, GOMAXPROCS / slots.
func startDaemon(slots, queue, maxRuns, procs int) (*daemon, error) {
	dir, err := os.MkdirTemp("", "perfbench-cache-")
	if err != nil {
		return nil, err
	}
	cache, err := resultcache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(serve.Config{
		Slots:      slots,
		QueueDepth: queue,
		MaxRuns:    maxRuns,
		Defaults:   serve.Defaults{JobParallelism: max(1, procs/slots), Cache: cache},
	})
	d := &daemon{url: "http://" + ln.Addr().String(), srv: srv, dir: dir, done: make(chan struct{}),
		http: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return d, nil
}

// stop drains the daemon, closes its listener, waits for the serving
// goroutine and removes its cache.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.http.Shutdown(ctx)
	<-d.done
	os.RemoveAll(d.dir)
}

// servedReq is one planned request and the identity its reference is
// filed under.
type servedReq struct {
	req serve.RunRequest
	key string
}

type servedRun struct {
	p    params
	plan []servedReq
	// refs holds an in-process sim.RunContext of every distinct request.
	refs map[string]*sim.Measurements
}

// servedGen is the generated suite served requests take windows of:
// SHORT-MOBILE programs at half the template's code footprint. The
// per-request replay stays small next to HTTP, JSON, SSE, queueing and
// cache I/O, and one category at one footprint keeps a round's work
// nearly the same from seed to seed.
func servedGen(p params) workload.SuiteGen {
	return workload.SuiteGen{N: 1 << 20, Seed: p.GenSeed, Mix: workload.Mix{ShortMobile: 1},
		FootprintMin: 0.5, FootprintMax: 0.5}.WithDefaults()
}

// servedPlan builds the seeded request list: about 60% fresh windows
// (cache writes), 30% overlaps of an earlier fresh window under another
// identity — a policy subset or a shifted window (cache reads) — and
// 10% exact repeats of an earlier request (dedup joins). An overlap or
// repeat refers only to requests at least 2×nproc places earlier, so
// with nproc clients its base has normally finished: it reads cells or
// joins a finished run instead of racing the base.
func servedPlan(p params) []servedReq {
	n := p.ServedRequests
	nFresh := (n*6 + 5) / 10
	nOverlap := n * 3 / 10
	lead := min(2*p.Procs, nFresh)
	kinds := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < nFresh:
			kinds = append(kinds, 'f')
		case i < nFresh+nOverlap:
			kinds = append(kinds, 'o')
		default:
			kinds = append(kinds, 'r')
		}
	}
	rng := p.PlanSeed
	next := func(bound int) int {
		rng = derive(rng, 0x5e4e)
		return int(rng % uint64(bound))
	}
	for i := len(kinds) - 1; i > 0; i-- {
		j := next(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	for i := 0; i < lead; i++ { // the first lead requests are fresh
		for j := i; kinds[i] != 'f'; j++ {
			kinds[i], kinds[j] = kinds[j], kinds[i]
		}
	}

	gen := servedGen(p)
	w := p.ServedWindow
	mk := func(lo int, policies []string) servedReq {
		return servedReq{
			req: serve.RunRequest{
				Suite:    &serve.SuiteGenDoc{SuiteGen: gen, Lo: lo, Hi: lo + w},
				Policies: policies,
				Scale:    p.ServedScale,
				ExecSeed: p.ExecSeed,
			},
			key: fmt.Sprintf("%d:%v", lo, policies),
		}
	}
	var plan []servedReq
	var fresh []int // plan positions of fresh requests
	lo := 0
	for i, k := range kinds {
		switch k {
		case 'f':
			fresh = append(fresh, i)
			plan = append(plan, mk(lo, paperNames()))
			lo += w
		case 'o':
			early := 0 // fresh requests at least lead places back
			for early < len(fresh) && fresh[early] <= i-lead {
				early++
			}
			base := plan[fresh[next(early)]].req.Suite.Lo
			if w < 2 || next(2) == 0 {
				// A proper subset of the roster: two or three policies.
				names, keep := paperNames(), 2+next(2)
				for len(names) > keep {
					j := next(len(names))
					names = append(names[:j], names[j+1:]...)
				}
				plan = append(plan, mk(base, names))
			} else {
				plan = append(plan, mk(base+1+next(w-1), paperNames()))
			}
		default:
			plan = append(plan, plan[next(i-lead+1)])
		}
	}
	return plan
}

func setupServedMix(ctx context.Context, p params) (runner, error) {
	r := &servedRun{p: p, plan: servedPlan(p), refs: map[string]*sim.Measurements{}}
	gen := servedGen(p)
	for _, sr := range r.plan {
		if r.refs[sr.key] != nil {
			continue
		}
		kinds := make([]frontend.PolicyKind, len(sr.req.Policies))
		for i, name := range sr.req.Policies {
			k, err := frontend.ParsePolicy(name)
			if err != nil {
				return nil, err
			}
			kinds[i] = k
		}
		m, err := sim.RunContext(ctx, sim.Options{
			Source:      workload.NewRange(gen, sr.req.Suite.Lo, sr.req.Suite.Hi),
			Policies:    kinds,
			Scale:       p.ServedScale,
			Parallelism: p.Procs,
			ExecSeed:    p.ExecSeed,
		})
		if err != nil {
			return nil, err
		}
		r.refs[sr.key] = m
	}
	return r, nil
}

// reqOutcome is one request's observations.
type reqOutcome struct {
	ok, created          bool
	refused              int
	submit, result, lat  time.Duration
	status               serve.StatusDoc
	tailEnd              time.Time
	resultBytes          int
	cacheHits, cacheMiss int
}

func (r *servedRun) pass(ctx context.Context, tr *tracer) (passResult, error) {
	d, err := startDaemon(ghrpdSlots, ghrpdQueue, ghrpdMaxRuns, r.p.Procs)
	if err != nil {
		return passResult{}, err
	}
	defer d.stop()

	outs := make([]reqOutcome, len(r.plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	w := startWatch()
	for c := 0; c < r.p.Procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var retries atomic.Int64
			cl := dist.NewClient(d.url, dist.RetryPolicy{Seed: uint64(c + 1)}, nil, func(e obs.Event) {
				if e.Kind == obs.DistRetry {
					retries.Add(1)
				}
			}, fmt.Sprintf("client%d", c))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.plan) {
					return
				}
				outs[i] = r.request(ctx, cl, &retries, i, tr)
			}
		}(c)
	}
	wg.Wait()
	pr := passResult{Ops: len(r.plan)}
	pr.Wall, pr.CPU = w.stop()
	if ctx.Err() != nil {
		return pr, ctx.Err()
	}
	for _, o := range outs {
		if !o.ok {
			pr.Failed++
			continue
		}
		pr.Latencies = append(pr.Latencies, ms(o.lat))
	}
	if tr != nil {
		pr.Layer = servedLayer(outs)
	}
	return pr, nil
}

// request runs one planned request end to end and checks its result.
func (r *servedRun) request(ctx context.Context, cl *dist.Client, retries *atomic.Int64, i int, tr *tracer) (o reqOutcome) {
	sr := r.plan[i]
	id := fmt.Sprintf("req-%d", i)
	root := tr.begin("bench.request", "served-mix", id, 0)
	defer tr.end(root)
	before := retries.Load()
	defer func() { o.refused = int(retries.Load() - before) }()

	t0 := time.Now()
	sp := tr.begin("serve.Submit", "served-mix", id, root)
	sub, err := cl.Submit(ctx, sr.req)
	tr.end(sp)
	o.submit = time.Since(t0)
	if err != nil {
		return o
	}
	o.created = sub.Created
	sp = tr.begin("serve.Tail", "served-mix", id, root)
	st, err := cl.Tail(ctx, sub.Status.ID, func(serve.EventDoc) {})
	o.tailEnd = time.Now()
	tr.end(sp)
	if err != nil || st.State != "done" {
		return o
	}
	o.status = st
	t1 := time.Now()
	sp = tr.begin("serve.Result", "served-mix", id, root)
	doc, err := cl.Result(ctx, sub.Status.ID)
	tr.end(sp)
	o.result = time.Since(t1)
	o.lat = time.Since(t0)
	if err != nil {
		return o
	}
	if tr != nil {
		if blob, err := json.MarshalIndent(doc, "", "\t"); err == nil {
			o.resultBytes = len(blob)
		}
	}
	o.cacheHits, o.cacheMiss = doc.Stats.CacheHits, doc.Stats.CacheMisses
	o.ok = retries.Load() == before && docMatches(doc, r.refs[sr.key])
	return o
}

// docMatches reports whether a served result document carries exactly
// the reference run's workloads, policies and MPKI vectors.
func docMatches(doc serve.ResultDoc, m *sim.Measurements) bool {
	if m == nil || len(doc.Failed) != 0 || len(doc.Workloads) != len(m.Specs) || len(doc.Policies) != len(m.Policies) {
		return false
	}
	for i, s := range m.Specs {
		if doc.Workloads[i] != s.Name {
			return false
		}
	}
	for i, k := range m.Policies {
		if doc.Policies[i] != k.String() ||
			!sameFloats(doc.ICacheMPKI[k.String()], m.ICacheMPKI[k]) ||
			!sameFloats(doc.BTBMPKI[k.String()], m.BTBMPKI[k]) {
			return false
		}
	}
	return sameFloats(doc.BranchMPKI, m.BranchMPKI)
}

// sameFloats compares two vectors bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// servedLayer derives the serve and result-cache metrics of a traced
// round. Queue wait, execution and SSE lag are taken from the requests
// that created their run; a joiner reads the creator's timestamps.
func servedLayer(outs []reqOutcome) metrics {
	var submit, result, wait, exec, lag, size []float64
	joins, refused, hits, lookups := 0, 0, 0, 0
	for _, o := range outs {
		refused += o.refused
		submit = append(submit, ms(o.submit))
		if !o.created {
			joins++
		}
		if o.result > 0 {
			result = append(result, ms(o.result))
			size = append(size, float64(o.resultBytes)/1024)
		}
		st := o.status
		if !o.created || st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		wait = append(wait, ms(st.StartedAt.Sub(st.CreatedAt)))
		exec = append(exec, ms(st.FinishedAt.Sub(*st.StartedAt)))
		lag = append(lag, ms(o.tailEnd.Sub(*st.FinishedAt)))
		hits += o.cacheHits
		lookups += o.cacheHits + o.cacheMiss
	}
	m := metrics{}
	m.set("serve.submit_ms.p50", quantile(submit, 0.5), "ms")
	m.set("serve.submit_ms.p90", quantile(submit, 0.9), "ms")
	m.set("serve.queue_wait_ms.p50", quantile(wait, 0.5), "ms")
	m.set("serve.queue_wait_ms.p90", quantile(wait, 0.9), "ms")
	m.set("serve.exec_ms.p50", quantile(exec, 0.5), "ms")
	m.set("serve.exec_ms.p90", quantile(exec, 0.9), "ms")
	m.set("serve.sse_lag_ms.p90", quantile(lag, 0.9), "ms")
	m.set("serve.result_ms.p50", quantile(result, 0.5), "ms")
	m.set("serve.result_ms.p90", quantile(result, 0.9), "ms")
	m.set("serve.result_kb", median(size), "KiB")
	m.set("serve.dedup_join_frac", float64(joins)/float64(len(outs)), "fraction")
	m.set("serve.refused", float64(refused), "count")
	if lookups > 0 {
		m.set("resultcache.hit_ratio", float64(hits)/float64(lookups), "fraction")
	} else {
		m.set("resultcache.hit_ratio", 0, "fraction")
	}
	return m
}
