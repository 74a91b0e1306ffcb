package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/serve"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/workload"
)

// tinyParams shrinks every workload and probe so a test runs each in
// well under a second.
func tinyParams(seed uint64) params {
	p := defaultParams(seed, runtime.GOMAXPROCS(0))
	p.Setups, p.MinPasses = 1, 1
	p.SuiteN, p.SweepN, p.SuiteScale = 12, 4, 0.002
	p.ServedRequests, p.ServedWindow, p.ServedScale = 10, 2, 0.002
	p.DistN, p.DistShard, p.DistScale = 24, 4, 0.002
	p.ProbePrograms, p.SplitPrograms, p.ProbeReps = 2, 1, 1
	p.ProbeScale, p.SplitScale = 0.005, 0.01
	return p
}

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &list); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func names(m metrics) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCorrectnessGate perturbs one reference cell of each workload's
// check and shows the run then records a failed operation and reports
// no metric, while the unperturbed run reports every declared metric.
func TestCorrectnessGate(t *testing.T) {
	ctx := context.Background()
	p := tinyParams(5)
	r, err := setupPaperSuite(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sr := r.(*suiteRun)
	clean, err := sr.pass(ctx, nil)
	if err != nil || clean.Failed != 0 {
		t.Fatalf("clean pass: failed %d, err %v", clean.Failed, err)
	}
	rep := summarizePasses([]passResult{clean}, []float64{0.1})
	if !rep.Correct || !reflect.DeepEqual(names(rep.Metrics), declared(t, "end_to_end")) {
		t.Fatalf("clean run: correct %v, metrics %v", rep.Correct, names(rep.Metrics))
	}

	sr.ref[3][2].ICache.Misses++
	bad, err := sr.pass(ctx, nil)
	if err != nil || bad.Failed != 1 {
		t.Fatalf("perturbed pass: failed %d (want 1), err %v", bad.Failed, err)
	}
	rep = summarizePasses([]passResult{clean, bad}, []float64{0.1})
	if rep.Correct || rep.Failed != 1 || len(rep.Metrics) != 0 {
		t.Fatalf("perturbed run reported %+v, want one failure and no metrics", rep)
	}

	// fig7-sweep: one geometry's mean off by one ulp fails its tasks.
	r, err = setupFig7Sweep(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sw := r.(*sweepRun)
	got := make([][]float64, len(sw.want))
	for c := range sw.want {
		got[c] = append([]float64(nil), sw.want[c]...)
	}
	if n := sw.check(got); n != 0 {
		t.Fatalf("sweep check of the reference itself failed %d", n)
	}
	got[5][4] = nextUp(got[5][4])
	if n := sw.check(got); n != len(sw.specs) {
		t.Fatalf("perturbed sweep failed %d tasks, want %d", n, len(sw.specs))
	}

	// served-mix: a result document with one MPKI entry changed.
	r, err = setupServedMix(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sv := r.(*servedRun)
	for _, ref := range sv.refs {
		m := *ref
		m.ICacheMPKI = copyVectors(ref.ICacheMPKI)
		k := m.Policies[0]
		m.ICacheMPKI[k][0] = nextUp(m.ICacheMPKI[k][0])
		doc := serve.ResultDocFor("x", ref)
		if !docMatches(doc, ref) || docMatches(doc, &m) {
			t.Fatal("served check did not separate the perturbed reference")
		}
		break
	}

	// dist-gen: a merged document with one vector entry changed.
	r, err = setupDistGen(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	dr := r.(*distRun)
	if n := dr.mismatches(dr.ref); n != 0 {
		t.Fatalf("reference mismatches itself: %d", n)
	}
	m := *dr.ref
	m.BTBMPKI = map[string][]float64{}
	for k, v := range dr.ref.BTBMPKI {
		m.BTBMPKI[k] = append([]float64(nil), v...)
	}
	m.BTBMPKI["GHRP"][7] = nextUp(m.BTBMPKI["GHRP"][7])
	if n := dr.mismatches(&m); n != 1 {
		t.Fatalf("perturbed merge: %d mismatching workloads, want 1", n)
	}
}

// TestSeeds shows that the default and held-out seeds produce different
// inputs but the same metric names, end to end and per layer, and that
// those are exactly the names BENCHMARK.json declares.
func TestSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	ctx := context.Background()
	a, b := tinyParams(defaultSeed), tinyParams(heldOutSeed)
	if a.ExecSeed == b.ExecSeed || a.GenSeed == b.GenSeed || reflect.DeepEqual(servedPlan(a), servedPlan(b)) {
		t.Fatal("seeds share inputs")
	}
	if reflect.DeepEqual(servedGen(a).At(0), servedGen(b).At(0)) {
		t.Fatal("seeds generate the same workloads")
	}
	var e2e, layer [2][]string
	for i, p := range []params{a, b} {
		for _, def := range workloads {
			rep, err := endToEnd(ctx, def, p, 0, io.Discard)
			if err != nil || !rep.Correct {
				t.Fatalf("seed %d %s: %+v %v", p.Seed, def.name, rep, err)
			}
			if e2e[i] != nil && !reflect.DeepEqual(e2e[i], names(rep.Metrics)) {
				t.Fatalf("%s reports %v, others %v", def.name, names(rep.Metrics), e2e[i])
			}
			e2e[i] = names(rep.Metrics)
		}
		rep, err := layerRun(ctx, workloads[2], p, newTracer())
		if err != nil || !rep.Correct {
			t.Fatalf("seed %d layer run: %+v %v", p.Seed, rep, err)
		}
		layer[i] = names(rep.Metrics)
	}
	if !reflect.DeepEqual(e2e[0], e2e[1]) || !reflect.DeepEqual(layer[0], layer[1]) {
		t.Fatal("seeds report different metric names")
	}
	if !reflect.DeepEqual(e2e[0], declared(t, "end_to_end")) {
		t.Fatalf("end-to-end names %v differ from BENCHMARK.json", e2e[0])
	}
	if !reflect.DeepEqual(layer[0], declared(t, "per_layer")) {
		t.Fatalf("per-layer names %v differ from BENCHMARK.json", layer[0])
	}
}

// TestSelfTimes checks self time on hand-made spans and on a real
// traced pass of the served and distributed workloads: never negative,
// and within one request or pass the self times sum to at most its
// wall time.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sim.b", Start: 30, End: 60}, // overlaps sim.a
		{ID: 4, Parent: 2, Name: "frontend.c", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "serve.d", Start: 90, End: 130}, // outlives its parent
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 5, 5: 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	ctx := context.Background()
	p := tinyParams(7)
	tr := newTracer()
	for _, setup := range []func(context.Context, params) (runner, error){setupServedMix, setupDistGen} {
		r, err := setup(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.pass(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	all := tr.snapshot("")
	self := selfTimes(all)
	trees := map[int]int64{} // root ID -> summed self time
	byID := map[int]span{}
	for _, s := range all {
		byID[s.ID] = s
	}
	for _, s := range all {
		if self[s.ID] < 0 {
			t.Fatalf("span %s has negative self time %d", s.Name, self[s.ID])
		}
		root := s
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		trees[root.ID] += self[s.ID]
	}
	if len(trees) < 2 {
		t.Fatalf("only %d span trees recorded", len(trees))
	}
	for id, sum := range trees {
		if sum > byID[id].dur() {
			t.Fatalf("tree %s self times sum to %d > wall %d", byID[id].Name, sum, byID[id].dur())
		}
	}
	layers := layerSelfSeconds(all)
	for l, v := range layers {
		if v < 0 {
			t.Fatalf("layer %s self time %v", l, v)
		}
	}
	if layers["serve"] <= 0 || layers["dist"] <= 0 {
		t.Fatalf("layer self times %v miss serve or dist", layers)
	}
}

// TestSpanFileWrittenOnce checks the tracer writes nothing until the
// run ends, then writes every span in one file.
func TestSpanFileWrittenOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	tr := newTracer()
	root := tr.begin("bench.pass", "x", "", 0)
	tr.end(tr.begin("sim.RunContext", "x", "", root))
	tr.end(root)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("span file exists before the run ended")
	}
	if err := tr.write(path, fingerprint(3)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Host  host
		Spans []span
	}
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, &doc)
	}
	if err != nil || len(doc.Spans) != 2 || doc.Host.Seed != 3 || doc.Host.NProc < 1 {
		t.Fatalf("span file %s: %v", blob, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if median(xs) != 2.5 || quantile(xs, 0) != 1 || quantile(xs, 1) != 4 || quantile(nil, 0.5) != 0 {
		t.Fatal("quantile")
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input")
	}
}

func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

func copyVectors(v map[frontend.PolicyKind][]float64) map[frontend.PolicyKind][]float64 {
	out := make(map[frontend.PolicyKind][]float64, len(v))
	for k, xs := range v {
		out[k] = append([]float64(nil), xs...)
	}
	return out
}

var update = flag.Bool("update", false, "rewrite reference.json from the per-policy replay")

// TestCommittedDigests recomputes the default seed's paper-suite and
// fig7-sweep digests from the per-policy replay and compares them with
// reference.json (or rewrites it with -update).
func TestCommittedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the whole suite per policy")
	}
	ctx := context.Background()
	p := defaultParams(defaultSeed, runtime.GOMAXPROCS(0))
	suite := workload.SuiteN(p.SuiteN)
	ref, err := reference(ctx, suite, []frontend.Config{frontend.DefaultConfig()}, p.SuiteScale, p.ExecSeed, p.Procs)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []frontend.Config
	for _, ic := range sim.Fig7Configs() {
		cfg := frontend.DefaultConfig()
		cfg.ICache = ic
		cfgs = append(cfgs, cfg)
	}
	sweep, err := reference(ctx, workload.SuiteN(p.SweepN), cfgs, p.SuiteScale, p.ExecSeed, p.Procs)
	if err != nil {
		t.Fatal(err)
	}
	want := committed{Seed: p.Seed, SuiteN: p.SuiteN, SweepN: p.SweepN, SuiteScale: p.SuiteScale, Digests: map[string]string{
		"paper-suite": digestCells(specNames(suite), ref[0]),
		"fig7-sweep":  digestMeans(sweepMeans(sweep)),
	}}
	if *update {
		blob, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var got committed
	if err := json.Unmarshal(referenceJSON, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reference.json = %+v, per-policy replay gives %+v", got, want)
	}
}
