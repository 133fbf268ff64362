package plan

import (
	"fmt"
	"strings"

	"bcq/internal/obs"
)

// StepAccess is the actual data access of one plan operation: index
// probes issued and tuples (index entries) returned. The executor
// reports one per fetch step and one per verification
// (exec.Result.StepStats / VerifyStats), and Explain prints them next to
// the worst-case bounds and cost estimates.
type StepAccess struct {
	Lookups, Fetched int64
	// Skipped counts lookup combinations that were enumerated but never
	// probed because an early-termination limit closed the stream first.
	// Always zero for runs that drain the bounded fetch completely.
	Skipped int64
}

// Actuals carries a finished execution's per-step access counts back
// into Explain, aligned with the plan's Steps and Verifies. Build one
// from an exec.Result (engine.Prepared.Explain does) to render
// estimated-versus-actual cost for a real run.
type Actuals struct {
	Steps    []StepAccess
	Verifies []StepAccess
}

// ExplainOptions tunes the rendering of a plan.
type ExplainOptions struct {
	// Estimates adds the cost model's expected probe and fetch counts per
	// step. Plans from Optimize carry estimates; QPlan plans render them
	// only after AnnotateEstimates.
	Estimates bool
	// Actuals, when non-nil, adds each step's executed probe and fetch
	// counts — the satellite the worst-case bound alone cannot provide.
	Actuals *Actuals
	// Limit, when > 0, marks the run as limit-bounded; Limited reports
	// whether execution actually stopped at the limit (streamed runs with
	// early termination), which the rendering annotates together with any
	// per-step Skipped counts.
	Limit   int
	Limited bool
	// Trace, when non-nil, appends the execution's span tree (per-wave,
	// per-step and per-shard timings) after the plan — what a traced run
	// (engine.Prepared.ExecTrace, bqrun -trace) renders.
	Trace *obs.Trace
}

// Explain renders the plan in a human-readable form, one operation per
// line, in execution order — the shape of the paper's Example 1 walkthrough
// ("select a set T1 of at most 1000 pid's from in_album with aid = a0 ...").
func (p *Plan) Explain() string {
	return p.ExplainOpts(ExplainOptions{Estimates: p.CostBased})
}

// ExplainOpts is Explain with explicit rendering options.
func (p *Plan) ExplainOpts(opts ExplainOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s", p.Query.Name)
	switch {
	case p.CostBased && p.Tier == TierGreedy:
		// The greedy order (OptimizeGreedy) is called out so its explain
		// is distinguishable from Optimize's.
		b.WriteString(" (cost-based, greedy tier)")
	case p.CostBased:
		b.WriteString(" (cost-based)")
	}
	b.WriteByte('\n')
	if p.Trivial {
		b.WriteString("  trivial: the query is unsatisfiable; answer is empty without data access\n")
		return b.String()
	}
	if len(p.Seeds) > 0 {
		b.WriteString("  seed:")
		for _, s := range p.Seeds {
			// ClassName renders the pinned constant.
			fmt.Fprintf(&b, " %s", p.Closure.ClassName(s.Class))
		}
		b.WriteByte('\n')
	}
	actual := func(acc []StepAccess, i int) string {
		if opts.Actuals == nil || i >= len(acc) {
			return ""
		}
		a := acc[i]
		out := fmt.Sprintf("; actual %d probes → %d", a.Lookups, a.Fetched)
		if a.Skipped > 0 {
			out += fmt.Sprintf("; skipped %d probes (limit)", a.Skipped)
		}
		return out
	}
	est := func(lookups, fetch float64) string {
		if !opts.Estimates {
			return ""
		}
		return fmt.Sprintf("; est %s probes → %s", fnum(lookups), fnum(fetch))
	}
	for i, st := range p.Steps {
		alias := p.Query.Atoms[st.Atom].Alias
		fmt.Fprintf(&b, "  fetch T%d: index %s on %s — ≤ %s tuples%s%s\n",
			i+1, st.AC, alias, st.StepBound, est(st.EstLookups, st.EstFetch), actual(actualsSteps(opts), i))
	}
	for i, vs := range p.Verifies {
		alias := p.Query.Atoms[vs.Atom].Alias
		switch {
		case vs.Exists:
			fmt.Fprintf(&b, "  verify %s: non-emptiness probe — ≤ 1 tuple%s\n", alias, actual(actualsVerifies(opts), i))
		case vs.FromStep >= 0:
			fmt.Fprintf(&b, "  verify %s: collect rows from T%d — no extra fetch\n", alias, vs.FromStep+1)
		default:
			fmt.Fprintf(&b, "  verify %s: retrieve via index %s — ≤ %s tuples%s%s\n",
				alias, vs.Witness, vs.StepBound, est(vs.EstLookups, vs.EstFetch), actual(actualsVerifies(opts), i))
		}
	}
	cols := make([]string, len(p.Query.Output))
	for i, col := range p.Query.Output {
		cols[i] = col.As
	}
	if len(cols) == 0 {
		b.WriteString("  output: exists (in-memory join of verified rows)\n")
	} else {
		fmt.Fprintf(&b, "  output: in-memory join, then π(%s)\n", strings.Join(cols, ", "))
	}
	fmt.Fprintf(&b, "  worst-case tuples fetched: %s (join input ≤ %s combinations)\n",
		p.FetchBound, p.CombBound)
	if opts.Estimates {
		fmt.Fprintf(&b, "  estimated tuples fetched: %s\n", fnum(p.EstFetch))
	}
	if opts.Limit > 0 {
		if opts.Limited {
			fmt.Fprintf(&b, "  limit: %d — stream stopped early, upstream probes saved\n", opts.Limit)
		} else {
			fmt.Fprintf(&b, "  limit: %d — answer fit within the limit, fetch ran to exhaustion\n", opts.Limit)
		}
	}
	if opts.Actuals != nil {
		var lookups, fetched, skipped int64
		for _, a := range opts.Actuals.Steps {
			lookups += a.Lookups
			fetched += a.Fetched
			skipped += a.Skipped
		}
		for _, a := range opts.Actuals.Verifies {
			lookups += a.Lookups
			fetched += a.Fetched
			skipped += a.Skipped
		}
		fmt.Fprintf(&b, "  actual: %d probes, %d tuples fetched\n", lookups, fetched)
		if skipped > 0 {
			fmt.Fprintf(&b, "  saved by early termination: ≥ %d probes never issued\n", skipped)
		}
	}
	if opts.Trace != nil {
		b.WriteString(opts.Trace.Tree())
	}
	return b.String()
}

func actualsSteps(opts ExplainOptions) []StepAccess {
	if opts.Actuals == nil {
		return nil
	}
	return opts.Actuals.Steps
}

func actualsVerifies(opts ExplainOptions) []StepAccess {
	if opts.Actuals == nil {
		return nil
	}
	return opts.Actuals.Verifies
}

// fnum renders an estimate compactly: integers without decimals, small
// fractions with one, infinities as ∞ (no statistics and no declared
// cap).
func fnum(x float64) string {
	switch {
	case x != x: // NaN; defensive, the model never produces one
		return "?"
	case x > 1e18:
		return "∞"
	case x == float64(int64(x)):
		return fmt.Sprintf("%d", int64(x))
	default:
		return fmt.Sprintf("%.1f", x)
	}
}
