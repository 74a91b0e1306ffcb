package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/serve"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// The layer run (--trace 1) times calls into every layer's public
// functions from outside and reports the per-layer metrics. It traces
// one pass of every workload, since each workload exercises different
// layers, alternates untraced and traced passes of the named workload
// to measure the tracing overhead, and reports that workload's self
// time per layer from its spans.

// selfLayers are the layers self time is reported for.
var selfLayers = []string{"bench", "workload", "frontend", "sim", "resultcache", "serve", "dist"}

// tally accumulates the layer run's checked operations.
type tally struct{ ops, failed int }

func (t *tally) add(ops, failed int) { t.ops += ops; t.failed += failed }

func layerRun(ctx context.Context, def workloadDef, p params, tr *tracer) (report, error) {
	m := metrics{}
	var t tally
	pn, err := runProbes(p, tr, m, &t)
	if err != nil {
		return report{}, err
	}
	for _, d := range workloads {
		r, err := d.setup(ctx, p)
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", d.name, err)
		}
		traced, err := tracedPasses(ctx, r, d.name == def.name, tr, m, &t)
		if err == nil {
			m.merge(traced.Layer)
			switch x := r.(type) {
			case *sweepRun:
				// Work every geometry after the first repeats: program
				// emission, counting and the shared front.
				redundant := float64(len(x.configs)-1) * float64(x.records) * (pn.emit + pn.count + pn.front)
				m.set("sim.sweep_front_frac", redundant/float64(traced.Wall.Nanoseconds()), "fraction")
			case *servedRun:
				err = servedProbes(x, tr, m, &t)
			}
		}
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", d.name, err)
		}
	}
	spans := tr.snapshot(def.name)
	self := layerSelfSeconds(spans)
	for _, l := range selfLayers {
		m.set("bench.self_s."+l, self[l]/tracedReps, "s")
	}
	rep := report{Correct: t.failed == 0 && t.ops > 0, Attempted: t.ops, Failed: t.failed, Metrics: m}
	if !rep.Correct {
		rep.Metrics = metrics{}
	}
	return rep, nil
}

// tracedReps is how many untraced and traced passes of the named
// workload the layer run alternates.
const tracedReps = 2

// tracedPasses runs one traced pass, or, for the named workload,
// alternates untraced and traced passes and reports the tracing
// overhead. It returns the last traced pass.
func tracedPasses(ctx context.Context, r runner, named bool, tr *tracer, m metrics, t *tally) (passResult, error) {
	if !named {
		pr, err := r.pass(ctx, tr)
		t.add(pr.Ops, pr.Failed)
		return pr, err
	}
	var plain, traced []float64
	var last passResult
	for i := 0; i < tracedReps; i++ {
		pr, err := r.pass(ctx, nil)
		if err != nil {
			return pr, err
		}
		t.add(pr.Ops, pr.Failed)
		plain = append(plain, pr.Wall.Seconds())
		if last, err = r.pass(ctx, tr); err != nil {
			return last, err
		}
		t.add(last.Ops, last.Failed)
		traced = append(traced, last.Wall.Seconds())
	}
	m.set("bench.trace_overhead_frac", median(traced)/median(plain)-1, "fraction")
	return last, nil
}

// probeNs holds the per-record costs later metrics derive from.
type probeNs struct{ emit, count, front float64 }

// runProbes measures the workload and frontend layers on a fixed set of
// suite programs: generation, emission, counting, the fused fan-out's
// shared front and each policy lane, intra-workload splitting and
// allocation. Every fan-out result is cross-checked: single-lane runs,
// duplicate lanes and split replays must equal the paper-roster
// fan-out's lanes bit for bit.
func runProbes(p params, tr *tracer, m metrics, t *tally) (probeNs, error) {
	var pn probeNs
	cfg := frontend.DefaultConfig()
	specs := workload.SuiteN(p.ProbePrograms)
	progs := make([]*workload.Program, len(specs))
	var genMS []float64
	for rep := 0; rep < p.ProbeReps; rep++ {
		for i, s := range specs {
			sp := tr.begin("workload.Generate", "probes", s.Name, 0)
			start := time.Now()
			prog, err := s.Generate()
			genMS = append(genMS, ms(time.Since(start)))
			tr.end(sp)
			if err != nil {
				return pn, err
			}
			progs[i] = prog
		}
	}
	m.set("workload.generate_ms", median(genMS), "ms")

	seed := p.ExecSeed
	targets := make([]uint64, len(specs))
	for i, s := range specs {
		targets[i] = targetFor(s, p.ProbeScale)
	}
	// perRecord times f over every program and returns ns per record
	// (the median of ProbeReps repetitions).
	perRecord := func(name string, f func(i int) (uint64, error)) (float64, error) {
		var reps []float64
		for rep := 0; rep < p.ProbeReps; rep++ {
			var total time.Duration
			var records uint64
			for i := range progs {
				sp := tr.begin(name, "probes", specs[i].Name, 0)
				start := time.Now()
				n, err := f(i)
				total += time.Since(start)
				tr.end(sp)
				if err != nil {
					return 0, err
				}
				records += n
			}
			reps = append(reps, float64(total.Nanoseconds())/float64(records))
		}
		return median(reps), nil
	}

	var err error
	if pn.emit, err = perRecord("workload.Emit", func(i int) (uint64, error) {
		return workload.Emit(progs[i], seed, targets[i], func(trace.Record) error { return nil })
	}); err != nil {
		return pn, err
	}
	warm := make([]uint64, len(progs))
	if pn.count, err = perRecord("frontend.CountProgram", func(i int) (uint64, error) {
		instrs, records, err := frontend.CountProgram(cfg, progs[i], seed, targets[i], frontend.StreamOptions{})
		warm[i] = cfg.WarmupFor(instrs)
		return records, err
	}); err != nil {
		return pn, err
	}
	m.set("workload.emit_ns_per_record", pn.emit, "ns")
	m.set("frontend.count_ns_per_record", pn.count, "ns")

	// fan times a fan-out over kinds and keeps each program's results.
	fan := func(kinds []frontend.PolicyKind) (float64, [][]frontend.Result, error) {
		results := make([][]frontend.Result, len(progs))
		v, err := perRecord("frontend.SimulateFanOut", func(i int) (uint64, error) {
			res, err := frontend.SimulateFanOut(cfg, kinds, progs[i], seed, targets[i], warm[i], frontend.StreamOptions{})
			if err != nil {
				return 0, err
			}
			results[i] = res
			return res[0].Records, nil
		})
		return v, results, err
	}

	// The paper roster's fan-out is the reference every other fan-out
	// result is checked against.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fanout, paper, err := fan(paperKinds)
	if err != nil {
		return pn, err
	}
	runtime.ReadMemStats(&ms1)
	var records uint64
	for _, res := range paper {
		records += res[0].Records
	}
	m.set("frontend.fanout_ns_per_record", fanout/float64(len(paperKinds)), "ns")
	m.set("frontend.allocs_per_krecord", float64(ms1.Mallocs-ms0.Mallocs)/float64(uint64(p.ProbeReps)*records)*1000, "count")
	check := func(results [][]frontend.Result, k frontend.PolicyKind) {
		li := slices.Index(paperKinds, k)
		if li < 0 {
			return
		}
		for i, row := range results {
			for _, res := range row {
				t.add(1, boolInt(res != paper[i][li]))
			}
		}
	}

	// The shared front is the intercept of fan-out time over 1, 2 and 4
	// duplicate LRU lanes; each lane costs the slope.
	lanes := []float64{1, 2, 4}
	var times []float64
	for _, n := range lanes {
		kinds := make([]frontend.PolicyKind, int(n))
		for i := range kinds {
			kinds[i] = frontend.PolicyLRU
		}
		v, res, err := fan(kinds)
		if err != nil {
			return pn, err
		}
		check(res, frontend.PolicyLRU)
		times = append(times, v)
	}
	intercept := fitIntercept(lanes, times)
	pn.front = intercept - pn.emit
	m.set("frontend.front_ns_per_record", pn.front, "ns")
	for _, k := range frontend.ExtendedPolicies() {
		v, res, err := fan([]frontend.PolicyKind{k})
		if err != nil {
			return pn, err
		}
		check(res, k)
		m.set("frontend.lane_ns_per_record."+k.String(), v-intercept, "ns")
	}

	speedup, err := splitProbe(p, cfg, specs, progs, tr, t)
	if err != nil {
		return pn, err
	}
	m.set("frontend.split_speedup", speedup, "x")
	return pn, nil
}

// splitProbe compares serial and split fan-out replay of the paper
// roster on the probe programs with the longest instruction budgets, at
// SplitScale.
func splitProbe(p params, cfg frontend.Config, specs []workload.Spec, progs []*workload.Program, tr *tracer, t *tally) (float64, error) {
	idx := make([]int, len(specs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return specs[idx[a]].DefaultInstructions > specs[idx[b]].DefaultInstructions
	})
	idx = idx[:min(p.SplitPrograms, len(idx))]
	seed := p.ExecSeed
	var reps []float64
	for rep := 0; rep < p.ProbeReps; rep++ {
		var serial, split time.Duration
		for _, i := range idx {
			target := targetFor(specs[i], p.SplitScale)
			instrs, _, err := frontend.CountProgram(cfg, progs[i], seed, target, frontend.StreamOptions{})
			if err != nil {
				return 0, err
			}
			warm := cfg.WarmupFor(instrs)
			sp := tr.begin("frontend.SimulateFanOut", "probes", specs[i].Name, 0)
			start := time.Now()
			a, err := frontend.SimulateFanOut(cfg, paperKinds, progs[i], seed, target, warm, frontend.StreamOptions{})
			serial += time.Since(start)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("frontend.SimulateFanOutSplit", "probes", specs[i].Name, 0)
			start = time.Now()
			b, err := frontend.SimulateFanOutSplit(cfg, paperKinds, progs[i], seed, target, warm, p.Procs, frontend.StreamOptions{})
			split += time.Since(start)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			for li := range a {
				t.add(1, boolInt(li >= len(b) || a[li] != b[li]))
			}
		}
		reps = append(reps, serial.Seconds()/split.Seconds())
	}
	return median(reps), nil
}

// fitIntercept is the least-squares intercept of y over x.
func fitIntercept(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	return my - sxy/sxx*mx
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// servedProbes measures the result cache and the result encoding on
// the cells and documents served-mix produces: Put then Get of every
// distinct cell on a fresh on-disk cache (each Get checked against what
// was put), and ResultDocFor plus JSON encoding of every reference run.
func servedProbes(r *servedRun, tr *tracer, m metrics, t *tally) error {
	dir, err := os.MkdirTemp("", "perfbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := resultcache.Open(dir)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(r.refs))
	for k := range r.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	type cell struct {
		key resultcache.Key
		res frontend.Result
	}
	var cells []cell
	seen := map[resultcache.Key]bool{}
	var encUS []float64
	for _, k := range keys {
		ref := r.refs[k]
		sp := tr.begin("serve.ResultDocFor", "probes", k, 0)
		start := time.Now()
		_, err := json.MarshalIndent(serve.ResultDocFor("perfbench", ref), "", "\t")
		encUS = append(encUS, float64(time.Since(start).Nanoseconds())/1e3)
		tr.end(sp)
		if err != nil {
			return err
		}
		for wi, spec := range ref.Specs {
			for pi, kind := range ref.Policies {
				key, err := resultcache.KeyFor(spec, ref.Options.Config, kind, ref.Options.ExecSeed, targetFor(spec, ref.Options.Scale))
				if err != nil {
					return err
				}
				if !seen[key] {
					seen[key] = true
					cells = append(cells, cell{key, ref.Raw[wi].Results[pi]})
				}
			}
		}
	}
	m.set("serve.encode_us", median(encUS), "us")

	var put, get []float64
	for _, c := range cells {
		sp := tr.begin("resultcache.Put", "probes", string(c.key), 0)
		start := time.Now()
		err := cache.Put(c.key, c.res)
		put = append(put, float64(time.Since(start).Nanoseconds())/1e3)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	for _, c := range cells {
		sp := tr.begin("resultcache.Get", "probes", string(c.key), 0)
		start := time.Now()
		res, ok := cache.Get(c.key)
		get = append(get, float64(time.Since(start).Nanoseconds())/1e3)
		tr.end(sp)
		t.add(1, boolInt(!ok || res != c.res))
	}
	m.set("resultcache.put_us.p50", quantile(put, 0.5), "us")
	m.set("resultcache.put_us.p90", quantile(put, 0.9), "us")
	m.set("resultcache.get_us.p50", quantile(get, 0.5), "us")
	m.set("resultcache.get_us.p90", quantile(get, 0.9), "us")
	return nil
}
