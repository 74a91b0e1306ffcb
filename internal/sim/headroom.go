package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/opt"
	"ghrpsim/internal/stats"
	"ghrpsim/internal/workload"
)

// HeadroomRow summarizes one policy against the offline optimum.
type HeadroomRow struct {
	Policy   frontend.PolicyKind
	MeanMPKI float64
	// GapClosed is the mean fraction of the per-workload LRU-to-OPT
	// miss gap the policy closes (1 = optimal, 0 = LRU, negative =
	// worse than LRU). Workloads without a gap are skipped.
	GapClosed float64
}

// HeadroomReport bounds the suite with Belady's OPT: how close each
// online policy comes to the offline optimum on the identical access
// stream (including fetch-buffer coalescing and the warm-up window).
type HeadroomReport struct {
	LRUMean  float64
	OPTMean  float64
	Rows     []HeadroomRow
	Included int // workloads with a positive LRU-to-OPT gap
	// Failed counts workloads skipped on a keep-going run, whether the
	// online policies or the OPT pass failed on them; the means cover
	// only the workloads that completed both.
	Failed int
}

// ComputeHeadroom runs the suite's I-cache under every policy plus the
// OPT oracle. This is an extension beyond the paper's evaluation,
// bounding how much of the achievable improvement GHRP captures. The
// online policies are one RunContext run, with its parallelism, fused
// lanes, result cache, retries and failure handling. The OPT oracle
// needs the whole access stream at once, so a second pass buffers the
// records of each workload that run completed (one workload at a time)
// and replays them under OPT; it is never cached, since its state is
// not a frontend.Result. The policies must include LRU, the baseline
// the gap is measured from.
//
// A failure of either stage — including a panic, contained to a
// PanicError — aborts the computation, or with Options.KeepGoing skips
// the workload (counted in HeadroomReport.Failed) so one bad workload
// cannot sink a long bound computation.
func ComputeHeadroom(ctx context.Context, opts Options) (HeadroomReport, error) {
	if len(opts.Policies) > 0 && !slices.Contains(opts.Policies, frontend.PolicyLRU) {
		return HeadroomReport{}, errors.New("sim: headroom needs the LRU baseline, which Options.Policies lacks")
	}
	all, err := RunContext(ctx, opts)
	if err != nil {
		return HeadroomReport{}, err
	}
	m := all.Completed()
	failed := len(all.Specs) - len(m.Specs)
	var lruV, optV []float64
	polV := map[frontend.PolicyKind][]float64{}
	var prog workload.Program // every OPT workload is generated into it
	for wi, spec := range m.Specs {
		if err := ctx.Err(); err != nil {
			return HeadroomReport{}, err
		}
		optMPKI, err := headroomOPT(m.Options, spec, &prog)
		if err != nil {
			if m.Options.KeepGoing {
				failed++
				continue
			}
			return HeadroomReport{}, fmt.Errorf("sim: workload %s: %w", spec.Name, err)
		}
		lruV = append(lruV, m.ICacheMPKI[frontend.PolicyLRU][wi])
		optV = append(optV, optMPKI)
		for _, k := range m.Policies {
			polV[k] = append(polV[k], m.ICacheMPKI[k][wi])
		}
	}

	rep := HeadroomReport{LRUMean: stats.Mean(lruV), OPTMean: stats.Mean(optV), Failed: failed}
	// Aggregate the gap over workloads rather than averaging
	// per-workload ratios, which tiny-gap outliers dominate.
	var lruSum, optSum float64
	cnt := 0
	for wi := range lruV {
		if lruV[wi]-optV[wi] > 1e-6 {
			lruSum += lruV[wi]
			optSum += optV[wi]
			cnt++
		}
	}
	rep.Included = cnt
	for _, k := range m.Policies {
		row := HeadroomRow{Policy: k, MeanMPKI: stats.Mean(polV[k])}
		var polSum float64
		for wi := range lruV {
			if lruV[wi]-optV[wi] > 1e-6 {
				polSum += polV[k][wi]
			}
		}
		row.GapClosed = opt.Headroom(lruSum, polSum, optSum)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// headroomOPT computes one workload's I-cache MPKI under OPT on the
// access stream the online policies saw, fetch-buffer coalescing and
// warm-up window included. The program is generated into prog, reusing
// its memory. A panic anywhere in the workload's generation or OPT pass
// is contained to a PanicError.
func headroomOPT(opts Options, spec workload.Spec, prog *workload.Program) (mpki float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if err := spec.GenerateInto(prog); err != nil {
		return 0, err
	}
	recs, err := frontend.GenerateRecords(prog, opts.ExecSeed, targetFor(spec, opts.Scale))
	if err != nil {
		return 0, err
	}
	blocks, total, err := frontend.BlockStream(recs, opts.Config)
	if err != nil {
		return 0, err
	}
	warm := opts.Config.WarmupFor(total)
	skip, err := frontend.AccessIndexAt(recs, opts.Config, warm)
	if err != nil {
		return 0, err
	}
	ost, err := opt.Simulate(blocks, opts.Config.ICache.Sets(), opts.Config.ICache.Ways, skip)
	if err != nil {
		return 0, err
	}
	return ost.MPKI(total - warm), nil
}

// Render prints the headroom table.
func (r HeadroomReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "I-cache headroom vs Belady's OPT (mean over %d gapped workloads)\n", r.Included)
	if r.Failed > 0 {
		fmt.Fprintf(&b, "  (%d workloads failed and were skipped)\n", r.Failed)
	}
	fmt.Fprintf(&b, "  %-8s %10s %12s\n", "policy", "mean MPKI", "gap closed")
	fmt.Fprintf(&b, "  %-8s %10.3f %12s\n", "OPT", r.OPTMean, "100%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8s %10.3f %11.1f%%\n", row.Policy, row.MeanMPKI, row.GapClosed*100)
	}
	return b.String()
}
