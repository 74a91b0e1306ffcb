package sim

import (
	"context"
	"fmt"
	"strings"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/stats"
)

// AblationRow is one GHRP variant's mean MPKI for both structures.
type AblationRow struct {
	Variant    string
	ICacheMPKI float64
	BTBMPKI    float64
}

// variant is one named configuration change of an ablation study.
type variant struct {
	name   string
	mutate func(*frontend.Config)
}

// runVariant runs the suite with base's configuration (the paper's when
// unset) changed by mutate and, when kinds are given, with kinds as the
// policies. The base options (including any attached result cache)
// flow through unchanged, so variants whose mutation reproduces a
// configuration an earlier run simulated — e.g. "3 tables (paper)" or
// the paper-default sweep geometry — reuse its cells instead of
// replaying them. On keep-going runs the measurements cover only
// fully-completed workloads; error-free runs pass through unchanged.
func runVariant(ctx context.Context, base Options, mutate func(*frontend.Config), kinds ...frontend.PolicyKind) (*Measurements, error) {
	opts := base
	if opts.Config.ICache == (frontend.ICacheConfig{}) {
		opts.Config = frontend.DefaultConfig()
	}
	mutate(&opts.Config)
	if kinds != nil {
		opts.Policies = kinds
	}
	m, err := RunContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return m.Completed(), nil
}

// runVariants evaluates each variant under the single policy kind.
func runVariants(ctx context.Context, base Options, kind frontend.PolicyKind, variants []variant) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		m, err := runVariant(ctx, base, v.mutate, kind)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant:    v.name,
			ICacheMPKI: stats.Mean(m.ICacheMPKI[kind]),
			BTBMPKI:    stats.Mean(m.BTBMPKI[kind]),
		})
	}
	return rows, nil
}

// AblationVote compares majority vote against SDBP-style summation
// (§III-C's design argument).
func AblationVote(ctx context.Context, base Options) ([]AblationRow, error) {
	return runVariants(ctx, base, frontend.PolicyGHRP, []variant{
		{"majority-vote", func(c *frontend.Config) { c.GHRP.Aggregation = core.MajorityVote }},
		{"summation", func(c *frontend.Config) { c.GHRP.Aggregation = core.Summation }},
	})
}

// AblationHistoryDepth varies how many previous accesses the path
// history records (0 = PC-only signatures, the PC-based-predictor
// degenerate case).
func AblationHistoryDepth(ctx context.Context, base Options) ([]AblationRow, error) {
	type depth struct {
		name string
		bits int
		pcB  int
	}
	depths := []depth{
		{"depth-0 (PC only)", 16, 0},
		{"depth-1", 4, 3},
		{"depth-2", 8, 3},
		{"depth-3", 12, 3},
		{"depth-4 (paper)", 16, 3},
	}
	var variants []variant
	for _, d := range depths {
		variants = append(variants, variant{d.name, func(c *frontend.Config) {
			c.GHRP.HistoryBits = d.bits
			if d.pcB == 0 {
				c.GHRP.PCBitsPerAccess = -1 // PC-only signatures
			}
		}})
	}
	return runVariants(ctx, base, frontend.PolicyGHRP, variants)
}

// AblationBypass compares GHRP with and without the bypass optimization.
func AblationBypass(ctx context.Context, base Options) ([]AblationRow, error) {
	return runVariants(ctx, base, frontend.PolicyGHRP, []variant{
		{"bypass-on (paper)", func(c *frontend.Config) { c.GHRP.DisableBypass = false }},
		{"bypass-off", func(c *frontend.Config) { c.GHRP.DisableBypass = true }},
	})
}

// AblationSpeculation compares wrong-path handling: no wrong path
// modeled, pollution with history recovery (§III-F), and pollution
// without recovery.
func AblationSpeculation(ctx context.Context, base Options) ([]AblationRow, error) {
	return runVariants(ctx, base, frontend.PolicyGHRP, []variant{
		{"no-wrong-path", func(c *frontend.Config) { c.WrongPath = frontend.WrongPathOff }},
		{"pollute+recover (paper)", func(c *frontend.Config) {
			c.WrongPath = frontend.WrongPathInject
			if c.WrongPathDepth == 0 {
				c.WrongPathDepth = 2
			}
		}},
		{"pollute, no recovery", func(c *frontend.Config) {
			c.WrongPath = frontend.WrongPathNoRecover
			if c.WrongPathDepth == 0 {
				c.WrongPathDepth = 2
			}
		}},
	})
}

// AblationTableCount compares a single prediction table against the
// paper's three skewed tables.
func AblationTableCount(ctx context.Context, base Options) ([]AblationRow, error) {
	return runVariants(ctx, base, frontend.PolicyGHRP, []variant{
		{"1 table", func(c *frontend.Config) { c.GHRP.NumTables = 1 }},
		{"2 tables", func(c *frontend.Config) { c.GHRP.NumTables = 2 }},
		{"3 tables (paper)", func(c *frontend.Config) { c.GHRP.NumTables = 3 }},
		{"5 tables", func(c *frontend.Config) { c.GHRP.NumTables = 5 }},
	})
}

// AblationPrefetch measures next-line prefetching composed with LRU and
// GHRP replacement — the prior-work direction the paper contrasts with
// (§II-E).
func AblationPrefetch(ctx context.Context, base Options) ([]AblationRow, error) {
	var rows []AblationRow
	for _, kind := range []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicyGHRP} {
		r, err := runVariants(ctx, base, kind, []variant{
			{kind.String(), func(c *frontend.Config) { c.NextLinePrefetch = false }},
			{kind.String() + " + next-line", func(c *frontend.Config) { c.NextLinePrefetch = true }},
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// RenderAblation prints ablation rows.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", title)
	fmt.Fprintf(&b, "  %-24s %12s %12s\n", "variant", "icache MPKI", "BTB MPKI")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %12.3f %12.3f\n", r.Variant, r.ICacheMPKI, r.BTBMPKI)
	}
	return b.String()
}
