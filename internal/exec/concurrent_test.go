package exec

import (
	"errors"
	"math/rand"
	"testing"

	"bcq/internal/core"
	"bcq/internal/plan"
)

var errMismatch = errors.New("concurrent run disagreed with reference result")

// TestPropertyConcurrentRunsShareDatabase runs one plan from many
// goroutines against a single sealed database — the engine's serving
// pattern — and checks every result agrees with a reference run. Under
// -race this is the concurrency half of the storage immutability
// contract.
func TestPropertyConcurrentRunsShareDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cat := propCatalog()
	acc := propAccess()
	db := propDB(t, rng)

	var plans []*plan.Plan
	for trial := 0; len(plans) < 4 && trial < 200; trial++ {
		q := propQuery(rand.New(rand.NewSource(int64(3000 + trial))))
		if err := q.Validate(cat); err != nil {
			t.Fatal(err)
		}
		an, err := core.NewAnalysis(cat, q, acc)
		if err != nil {
			t.Fatal(err)
		}
		if !an.EBCheck().EffectivelyBounded {
			continue
		}
		p, err := plan.QPlan(an)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	if len(plans) == 0 {
		t.Fatal("no executable plans generated")
	}

	refs := make([]*Result, len(plans))
	for i, p := range plans {
		ref, err := Run(p, db)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i, p := range plans {
				res, err := Run(p, db)
				if err != nil {
					errc <- err
					return
				}
				if !sameTuples(res.Tuples, refs[i].Tuples) || res.DQSize != refs[i].DQSize || res.Stats != refs[i].Stats {
					errc <- errMismatch
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
