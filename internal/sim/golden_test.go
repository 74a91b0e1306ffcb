package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/workload"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/sim/ -run TestGolden -update
//
// Review the diff before committing; the goldens are the renderers'
// regression contract.
var update = flag.Bool("update", false, "rewrite golden files with current renderer output")

// fabricatedMeasurements builds a fully deterministic Measurements from
// hand-set MPKI literals — no simulation — so the golden files pin the
// renderers' formatting, not the simulator's numbers.
func fabricatedMeasurements() *Measurements {
	specs := workload.SuiteN(6)
	policies := frontend.PaperPolicies()
	// A spread that exercises the renderers' branches: workloads below
	// and above the hot-subset threshold (LRU MPKI >= 1), and policy
	// factors that classify as better / similar / worse vs LRU under the
	// 2% epsilon.
	lru := []float64{0.25, 1.5, 3.2, 0.8, 5.75, 2.1}
	factor := map[frontend.PolicyKind]float64{
		frontend.PolicyLRU:    1.0,
		frontend.PolicyRandom: 1.25,
		frontend.PolicySRRIP:  0.9,
		frontend.PolicySDBP:   1.01, // within epsilon: "similar"
		frontend.PolicyGHRP:   0.8,
	}
	m := &Measurements{
		Specs:      specs,
		Policies:   policies,
		ICacheMPKI: map[frontend.PolicyKind][]float64{},
		BTBMPKI:    map[frontend.PolicyKind][]float64{},
		BranchMPKI: make([]float64, len(specs)),
	}
	for _, k := range policies {
		ic := make([]float64, len(specs))
		bt := make([]float64, len(specs))
		for wi := range specs {
			ic[wi] = lru[wi] * factor[k]
			bt[wi] = 0.5 * lru[wi] * factor[k]
		}
		m.ICacheMPKI[k] = ic
		m.BTBMPKI[k] = bt
	}
	for wi := range specs {
		m.BranchMPKI[wi] = 1 + 0.1*float64(wi)
	}
	return m
}

// fabricatedSweepRows mirrors Fig. 7's shape with literal means.
func fabricatedSweepRows() []SweepRow {
	var rows []SweepRow
	for i, cfg := range []frontend.ICacheConfig{
		{SizeBytes: 8 * 1024, BlockBytes: 64, Ways: 4},
		{SizeBytes: 64 * 1024, BlockBytes: 64, Ways: 8},
	} {
		mean := map[frontend.PolicyKind]float64{}
		for pi, k := range frontend.PaperPolicies() {
			mean[k] = float64(8-4*i) + 0.125*float64(pi)
		}
		rows = append(rows, SweepRow{Config: cfg, Mean: mean})
	}
	return rows
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim/ -run TestGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("renderer output changed; rerun with -update if intended.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenRenderers pins the text output of every experiment renderer
// against checked-in golden files built from fabricated, deterministic
// inputs.
func TestGoldenRenderers(t *testing.T) {
	m := fabricatedMeasurements()
	cases := []struct {
		name string
		out  string
	}{
		{"table1", RenderTable1(frontend.DefaultICache(), core.Config{})},
		{"headline", ComputeHeadline(m, ICache).Render() + ComputeHeadline(m, BTB).Render()},
		{"scurve", ComputeSCurve(m, ICache).Render(m.Policies, 4)},
		{"bars", ComputeBars(m, ICache, 3).Render(m.Policies)},
		{"sweep", RenderSweep(fabricatedSweepRows(), frontend.PaperPolicies())},
		{"ci", RenderCI(ComputeCI(m, ICache), ICache) + RenderCI(ComputeCI(m, BTB), BTB)},
		{"winloss", RenderWinLoss(ComputeWinLoss(m, ICache), ICache, len(m.Specs)) +
			RenderWinLoss(ComputeWinLoss(m, BTB), BTB, len(m.Specs))},
		{"figures", Figures(m)},
		{"ablation", RenderAblation("majority vote vs summation", []AblationRow{
			{Variant: "summation (paper)", ICacheMPKI: 2.125, BTBMPKI: 1.0625},
			{Variant: "majority vote", ICacheMPKI: 2.5, BTBMPKI: 1.25},
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkGolden(t, c.name, c.out) })
	}
}

// experimentResultsSHA256 is the SHA-256 of every simulated number
// TestExperimentResultsHash collects. It changes only when the
// simulator's results change; a refactor of the experiment plumbing
// must leave it as it is.
const experimentResultsSHA256 = "7d75c2e5e773fcaaab520b6eae934ac1bf930f35a5de89585e9d1873d4085148"

// TestExperimentResultsHash pins the simulated numbers behind the
// variant experiments — the Fig. 7 sweep, every ablation, the Fig. 2
// sampler study and the OPT headroom bound — which the renderer goldens
// above do not reach (they render fabricated inputs). Each row's means
// are hashed bit for bit, under the row's experiment and variant name.
func TestExperimentResultsHash(t *testing.T) {
	ctx := context.Background()
	base := Options{Workloads: workload.SuiteN(4), Scale: 0.05}
	h := sha256.New()
	put := func(name string, xs ...float64) {
		h.Write(append([]byte(name), 0))
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}

	sweep, err := RunSweep(ctx, base, Fig7Configs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sweep {
		for _, k := range frontend.PaperPolicies() {
			put("sweep/"+r.Config.String()+"/"+k.String(), r.Mean[k])
		}
	}
	for _, a := range []struct {
		name string
		fn   func(context.Context, Options) ([]AblationRow, error)
	}{
		{"vote", AblationVote},
		{"history", AblationHistoryDepth},
		{"bypass", AblationBypass},
		{"speculation", AblationSpeculation},
		{"tables", AblationTableCount},
		{"prefetch", AblationPrefetch},
	} {
		rows, err := a.fn(ctx, base)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		for _, r := range rows {
			put(a.name+"/"+r.Variant, r.ICacheMPKI, r.BTBMPKI)
		}
	}
	sampling, err := ComputeSampling(ctx, base, []int{2, 8, 32, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampling {
		put(fmt.Sprintf("sampling/%d", r.SamplerSets), r.MeanMPKI, r.SignatureCoverage)
	}
	rep, err := ComputeHeadroom(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	put("headroom", rep.LRUMean, rep.OPTMean, float64(rep.Included), float64(rep.Failed))
	for _, r := range rep.Rows {
		put("headroom/"+r.Policy.String(), r.MeanMPKI, r.GapClosed)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != experimentResultsSHA256 {
		t.Errorf("experiment results hash %s, want %s: the simulated numbers changed", got, experimentResultsSHA256)
	}
}
