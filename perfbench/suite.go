package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"sync"
	"time"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/stats"
	"ghrpsim/internal/workload"
)

// paper-suite: sim.RunContext over the full 662-workload suite with the
// paper roster, as cmd/experiments runs it. fig7-sweep: sim.RunSweep
// over the eight Fig. 7 I-cache geometries on an evenly spaced subset.
// Both are checked for bit-identity against per-policy engine replays
// (or, at the default seed, against committed digests of them).

//go:embed reference.json
var referenceJSON []byte

// committed is reference.json: the default seed's result digests and
// the sizes they were computed at.
type committed struct {
	Seed       uint64            `json:"seed"`
	SuiteN     int               `json:"suite_n"`
	SweepN     int               `json:"sweep_n"`
	SuiteScale float64           `json:"suite_scale"`
	Digests    map[string]string `json:"digests"`
}

// committedDigest returns the committed digest for workload name when
// p runs at exactly the seed and sizes it was computed for.
func committedDigest(p params, name string) (string, bool) {
	var c committed
	if err := json.Unmarshal(referenceJSON, &c); err != nil {
		return "", false
	}
	if p.Seed != c.Seed || p.SuiteN != c.SuiteN || p.SweepN != c.SweepN || p.SuiteScale != c.SuiteScale {
		return "", false
	}
	d, ok := c.Digests[name]
	return d, ok
}

// targetFor is the simulator's scaled instruction budget of one
// workload: the default budget times scale, at least 1000.
func targetFor(spec workload.Spec, scale float64) uint64 {
	t := uint64(float64(spec.DefaultInstructions) * scale)
	if t < 1000 {
		t = 1000
	}
	return t
}

// reference replays every (config, workload, policy) cell on its own
// single-policy engine (frontend.SimulateProgramStream), with the
// warm-up derived from a separate counting pass. It shares no code with
// the fused fan-out or the suite scheduler above the cache, BTB and
// policy models, so it is an independent oracle for both. The result is
// indexed [config][workload][policy].
func reference(ctx context.Context, specs []workload.Spec, cfgs []frontend.Config, scale float64, seed uint64, procs int) ([][][]frontend.Result, error) {
	out := make([][][]frontend.Result, len(cfgs))
	for c := range out {
		out[c] = make([][]frontend.Result, len(specs))
	}
	jobs := make(chan int, len(specs))
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wi := range jobs {
				if ctx.Err() != nil {
					fail(ctx.Err())
					return
				}
				prog, err := specs[wi].Generate()
				if err != nil {
					fail(err)
					return
				}
				target := targetFor(specs[wi], scale)
				for c, cfg := range cfgs {
					instrs, _, err := frontend.CountProgram(cfg, prog, seed, target, frontend.StreamOptions{})
					if err != nil {
						fail(err)
						return
					}
					row := make([]frontend.Result, len(paperKinds))
					for pi, k := range paperKinds {
						if row[pi], err = frontend.SimulateProgramStream(cfg, k, prog, seed, target, cfg.WarmupFor(instrs), frontend.StreamOptions{}); err != nil {
							fail(err)
							return
						}
					}
					out[c][wi] = row
				}
			}
		}()
	}
	wg.Wait()
	return out, first
}

// digestCells hashes every cell's full Result in workload order.
func digestCells(names []string, cells [][]frontend.Result) string {
	h := sha256.New()
	for wi, row := range cells {
		h.Write([]byte(names[wi]))
		for _, res := range row {
			blob, _ := json.Marshal(res) // a struct of numbers always marshals
			h.Write(blob)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestMeans hashes a [config][policy] table of means bit for bit.
func digestMeans(rows [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func specNames(specs []workload.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type suiteRun struct {
	p     params
	specs []workload.Spec
	// ref holds the per-policy replay of every cell; nil when the run
	// checks against the committed digest instead.
	ref    [][]frontend.Result
	digest string
}

func setupPaperSuite(ctx context.Context, p params) (runner, error) {
	r := &suiteRun{p: p, specs: workload.SuiteN(p.SuiteN)}
	if d, ok := committedDigest(p, "paper-suite"); ok {
		r.digest = d
		return r, nil
	}
	ref, err := reference(ctx, r.specs, []frontend.Config{frontend.DefaultConfig()}, p.SuiteScale, p.ExecSeed, p.Procs)
	if err != nil {
		return nil, err
	}
	r.ref = ref[0]
	return r, nil
}

func (r *suiteRun) pass(ctx context.Context, tr *tracer) (passResult, error) {
	root := tr.begin("bench.pass", "paper-suite", "", 0)
	sp := tr.begin("sim.RunContext", "paper-suite", "", root)
	w := startWatch()
	m, err := sim.RunContext(ctx, sim.Options{
		Workloads:   r.specs,
		Policies:    paperKinds,
		Scale:       r.p.SuiteScale,
		Parallelism: r.p.Procs,
		ExecSeed:    r.p.ExecSeed,
	})
	pr := passResult{Ops: len(r.specs)}
	pr.Wall, pr.CPU = w.stop()
	tr.end(sp)
	tr.end(root)
	if ctx.Err() != nil {
		return pr, ctx.Err()
	}
	if err != nil {
		pr.Failed = pr.Ops
		return pr, nil
	}
	pr.Failed = r.check(m)
	for _, ws := range m.Stats.Workloads {
		pr.Latencies = append(pr.Latencies, ms(ws.Wall))
	}
	if tr != nil {
		var lanes time.Duration
		for _, ws := range m.Stats.Workloads {
			for _, ps := range ws.Policies {
				lanes += ps.Wall
			}
		}
		pr.Layer = metrics{}
		pr.Layer.set("sim.parallel_efficiency", lanes.Seconds()/(m.Stats.Wall.Seconds()*float64(r.p.Procs)), "fraction")
	}
	return pr, nil
}

// check returns how many workloads' results differ from the reference.
func (r *suiteRun) check(m *sim.Measurements) int {
	if r.ref == nil {
		cells := make([][]frontend.Result, len(m.Raw))
		for i := range m.Raw {
			cells[i] = m.Raw[i].Results
		}
		if len(cells) != len(r.specs) || digestCells(specNames(r.specs), cells) != r.digest {
			return len(r.specs)
		}
		return 0
	}
	return checkCells(m, r.ref)
}

// checkCells compares every workload's Results and MPKI vector entries
// with the reference and returns the number of workloads that differ.
func checkCells(m *sim.Measurements, ref [][]frontend.Result) int {
	if len(m.Raw) != len(ref) || len(m.Policies) != len(paperKinds) {
		return len(ref)
	}
	failed := 0
	for wi, want := range ref {
		if !cellsMatch(m, wi, want) {
			failed++
		}
	}
	return failed
}

func cellsMatch(m *sim.Measurements, wi int, want []frontend.Result) bool {
	got := m.Raw[wi].Results
	if len(got) != len(want) {
		return false
	}
	for pi, res := range want {
		k := m.Policies[pi]
		if got[pi] != res || m.ICacheMPKI[k][wi] != res.ICacheMPKI() || m.BTBMPKI[k][wi] != res.BTBMPKI() {
			return false
		}
	}
	return m.BranchMPKI[wi] == want[0].BranchMPKI()
}

type sweepRun struct {
	p       params
	specs   []workload.Spec
	configs []frontend.ICacheConfig
	// want holds the reference mean I-cache MPKI per [config][policy];
	// nil when the run checks against the committed digest instead.
	want   [][]float64
	digest string
	// records is the last pass's record count per geometry (the stream
	// each workload replays once per geometry).
	records uint64
}

func setupFig7Sweep(ctx context.Context, p params) (runner, error) {
	r := &sweepRun{p: p, specs: workload.SuiteN(p.SweepN), configs: sim.Fig7Configs()}
	if d, ok := committedDigest(p, "fig7-sweep"); ok {
		r.digest = d
		return r, nil
	}
	cfgs := make([]frontend.Config, len(r.configs))
	for i, ic := range r.configs {
		cfgs[i] = frontend.DefaultConfig()
		cfgs[i].ICache = ic
	}
	ref, err := reference(ctx, r.specs, cfgs, p.SuiteScale, p.ExecSeed, p.Procs)
	if err != nil {
		return nil, err
	}
	r.want = sweepMeans(ref)
	return r, nil
}

// sweepMeans folds per-cell reference results into the sweep's table:
// the mean I-cache MPKI over workloads, per [config][policy], summed in
// workload order exactly as sim.RunSweep sums.
func sweepMeans(ref [][][]frontend.Result) [][]float64 {
	out := make([][]float64, len(ref))
	for c, rows := range ref {
		out[c] = make([]float64, len(paperKinds))
		for pi := range paperKinds {
			v := make([]float64, len(rows))
			for wi := range rows {
				v[wi] = rows[wi][pi].ICacheMPKI()
			}
			out[c][pi] = stats.Mean(v)
		}
	}
	return out
}

func (r *sweepRun) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var (
		mu      sync.Mutex
		lat     []float64
		records uint64
	)
	observe := func(e obs.Event) {
		switch e.Kind {
		case obs.WorkloadDone:
			mu.Lock()
			lat = append(lat, ms(e.Elapsed))
			mu.Unlock()
		case obs.PolicyDone:
			mu.Lock()
			records += e.Records
			mu.Unlock()
		}
	}
	root := tr.begin("bench.pass", "fig7-sweep", "", 0)
	sp := tr.begin("sim.RunSweep", "fig7-sweep", "", root)
	w := startWatch()
	rows, err := sim.RunSweep(ctx, sim.Options{
		Workloads:   r.specs,
		Policies:    paperKinds,
		Scale:       r.p.SuiteScale,
		Parallelism: r.p.Procs,
		ExecSeed:    r.p.ExecSeed,
		Observer:    observe,
	}, r.configs)
	pr := passResult{Ops: len(r.configs) * len(r.specs)}
	pr.Wall, pr.CPU = w.stop()
	tr.end(sp)
	tr.end(root)
	if ctx.Err() != nil {
		return pr, ctx.Err()
	}
	if err != nil || len(rows) != len(r.configs) {
		pr.Failed = pr.Ops
		return pr, nil
	}
	got := make([][]float64, len(rows))
	for c, row := range rows {
		got[c] = make([]float64, len(paperKinds))
		for pi, k := range paperKinds {
			got[c][pi] = row.Mean[k]
		}
	}
	pr.Failed = r.check(got)
	pr.Latencies = lat
	r.records = records / uint64(len(paperKinds)*len(r.configs))
	return pr, nil
}

// check returns how many (config, workload) tasks belong to a geometry
// whose means differ from the reference.
func (r *sweepRun) check(got [][]float64) int {
	if r.want == nil {
		if digestMeans(got) != r.digest {
			return len(r.configs) * len(r.specs)
		}
		return 0
	}
	failed := 0
	for c := range r.want {
		for pi := range r.want[c] {
			if got[c][pi] != r.want[c][pi] {
				failed += len(r.specs)
				break
			}
		}
	}
	return failed
}
