package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bcq/internal/live"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// tieredScene builds a live store over r(a, b) that is effectively
// bounded from the start (r: (a) -> (b, N)), holding the fixed answer
// group a=1 -> {10, 11}, under an engine in the given planning mode.
func tieredScene(t testing.TB, mode PlanMode) (*live.Store, *Engine) {
	t.Helper()
	r, err := schema.NewRelation("r", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := schema.NewCatalog(r)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := schema.NewAccessSchema(schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 100))
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	for _, b := range []int64{10, 11} {
		if err := db.Insert("r", value.Tuple{value.Int(1), value.Int(b)}); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := live.New(db, acc, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewLive(ls, Options{PlanMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return ls, e
}

const tieredQuery = `select b from r where a = 1`

// reuse prepares text again and checks that the plan cache answered with
// want: the hit that queues a tiered engine's upgrade.
func reuse(t *testing.T, e *Engine, text string, want *Prepared) {
	t.Helper()
	p, err := e.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if p != want {
		t.Fatal("the repeated prepare did not hit the cached plan")
	}
}

// TestTieredPrepareServesGreedyThenUpgrades is the tiered mode's basic
// contract: a cold prepare returns the greedy tier immediately and queues
// nothing, the first cache hit queues the upgrade, the background worker
// installs the optimized tier into the same Prepared, answers are
// identical across the swap, and the later cache hit serves the upgraded
// plan without re-enqueueing.
func TestTieredPrepareServesGreedyThenUpgrades(t *testing.T) {
	_, _, e := socialEngine(t, Options{PlanMode: PlanTiered})

	if got := e.PlanMode(); got != PlanTiered {
		t.Fatalf("PlanMode() = %v, want tiered", got)
	}

	// Gate the upgrade worker so the greedy window is observable.
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls int32
	e.upgradeHook = func(string) {
		if atomic.AddInt32(&calls, 1) == 1 {
			close(entered)
			<-release
		}
	}

	prep, err := e.Prepare(socialQ0)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.PlanTier(); got != plan.TierGreedy {
		t.Fatalf("cold prepare tier = %q, want greedy", got)
	}
	if n := e.PendingUpgrades(); n != 0 {
		t.Fatalf("a cold prepare queued %d upgrades, want none", n)
	}
	greedy, err := prep.Exec()
	if err != nil {
		t.Fatal(err)
	}

	reuse(t, e, socialQ0, prep)
	<-entered
	if got := prep.PlanTier(); got != plan.TierGreedy {
		t.Fatalf("tier while the upgrade builds = %q, want greedy", got)
	}
	if n := e.PendingUpgrades(); n != 1 {
		t.Fatalf("PendingUpgrades = %d, want 1", n)
	}

	close(release)
	e.DrainUpgrades()

	if got := prep.PlanTier(); got != plan.TierOptimized {
		t.Fatalf("post-upgrade tier = %q, want optimized", got)
	}
	st := e.Stats()
	if st.Upgrades != 1 || st.UpgradesDiscarded != 0 || st.UpgradesPending != 0 {
		t.Fatalf("upgrade stats = %d installed / %d discarded / %d pending, want 1/0/0", st.Upgrades, st.UpgradesDiscarded, st.UpgradesPending)
	}
	upgraded, err := prep.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(upgraded.Tuples) != len(greedy.Tuples) {
		t.Fatalf("answer count changed across upgrade: greedy %d, optimized %d", len(greedy.Tuples), len(upgraded.Tuples))
	}
	for i := range greedy.Tuples {
		if !upgraded.Tuples[i].Equal(greedy.Tuples[i]) {
			t.Fatalf("tuple %d changed across upgrade: %v vs %v", i, greedy.Tuples[i], upgraded.Tuples[i])
		}
	}

	// The warm path serves the upgraded plan and does not re-queue.
	reuse(t, e, socialQ0, prep)
	if got := prep.PlanTier(); got != plan.TierOptimized {
		t.Fatalf("warm prepare tier = %q, want optimized", got)
	}
	if st := e.Stats(); st.CacheHits != 2 || st.Upgrades != 1 || st.UpgradesPending != 0 {
		t.Fatalf("warm prepare: stats = %+v, want 2 cache hits, still 1 upgrade and none pending", st)
	}
}

// TestOneShotShapesNeverUpgrade: a shape prepared once — every ad hoc
// query with its literals inlined — is served from the greedy tier and
// never optimized in the background, even when the plan cache evicts it
// at the next prepare.
func TestOneShotShapesNeverUpgrade(t *testing.T) {
	ls, _ := tieredScene(t, PlanTiered)
	e, err := NewLive(ls, Options{PlanMode: PlanTiered, PlanCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	const shapes = 20
	for a := 0; a < shapes; a++ {
		p, err := e.Prepare(fmt.Sprintf("select b from r where a = %d", a))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.PlanTier(); got != plan.TierGreedy {
			t.Fatalf("shape %d: tier %q, want greedy", a, got)
		}
	}
	e.DrainUpgrades()
	st := e.Stats()
	if st.CacheMisses != shapes || st.Evictions != shapes-1 {
		t.Fatalf("%d shapes: %d misses, %d evictions; want every prepare cold", shapes, st.CacheMisses, st.Evictions)
	}
	if st.Upgrades != 0 || st.UpgradesDiscarded != 0 || e.PendingUpgrades() != 0 {
		t.Errorf("one-shot shapes: %d upgrades installed, %d discarded, %d pending; want none", st.Upgrades, st.UpgradesDiscarded, e.PendingUpgrades())
	}
}

// TestShedUpgradeIsAskedAgain is the regression test for shedding: with
// the worker held and the queue full, the hit of one more reused shape is
// shed, and that shape's plan is not marked queued — its next hit asks
// again, and the upgrade lands.
func TestShedUpgradeIsAskedAgain(t *testing.T) {
	ls, _ := tieredScene(t, PlanTiered)
	e, err := NewLive(ls, Options{PlanMode: PlanTiered, PlanCacheSize: 2 * maxUpgradeQueue})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var calls int32
	e.upgradeHook = func(string) {
		if atomic.AddInt32(&calls, 1) == 1 {
			close(entered)
			<-release
		}
	}
	// One shape in flight, maxUpgradeQueue queued behind it, one shed.
	texts := make([]string, maxUpgradeQueue+2)
	preps := make([]*Prepared, len(texts))
	for i := range texts {
		texts[i] = fmt.Sprintf("select b from r where a = %d", i)
		if preps[i], err = e.Prepare(texts[i]); err != nil {
			t.Fatal(err)
		}
		reuse(t, e, texts[i], preps[i])
		if i == 0 {
			<-entered
		}
	}
	shed := preps[len(preps)-1]
	if n := e.PendingUpgrades(); n != maxUpgradeQueue+1 {
		t.Fatalf("PendingUpgrades = %d, want %d (one in flight, a full queue)", n, maxUpgradeQueue+1)
	}
	e.mu.Lock()
	queued := shed.upgradeQueued
	e.mu.Unlock()
	if queued {
		t.Fatal("the shed hit marked its plan queued")
	}

	close(release)
	e.DrainUpgrades()
	if got := shed.PlanTier(); got != plan.TierGreedy {
		t.Fatalf("shed shape tier before its next hit = %q, want greedy", got)
	}
	reuse(t, e, texts[len(texts)-1], shed)
	e.DrainUpgrades()
	if got := shed.PlanTier(); got != plan.TierOptimized {
		t.Fatalf("shed shape tier after its next hit = %q, want optimized", got)
	}
	if st := e.Stats(); st.Upgrades != int64(len(texts)) || st.UpgradesDiscarded != 0 {
		t.Errorf("upgrades: %d installed, %d discarded; want %d and 0", st.Upgrades, st.UpgradesDiscarded, len(texts))
	}
}

// countingSource counts the statistics snapshots an engine asks its
// source for.
type countingSource struct {
	Source
	snapshots atomic.Int64
}

func (s *countingSource) CardStats() stats.Snapshot {
	s.snapshots.Add(1)
	return s.Source.CardStats()
}

// TestPlanningBuildsNoStatisticsSnapshot: at every tier, a cold prepare,
// the hit after it and a background upgrade cost their plans against the
// source's cards one constraint at a time and never ask for the whole
// CardStats snapshot, which only Engine.CardStats (/stats) builds.
func TestPlanningBuildsNoStatisticsSnapshot(t *testing.T) {
	for _, mode := range []PlanMode{PlanOptimized, PlanGreedy, PlanTiered} {
		t.Run(mode.String(), func(t *testing.T) {
			ls, _ := tieredScene(t, mode)
			src := &countingSource{Source: liveSource{ls}}
			e := assemble(ls.Catalog(), src, Options{PlanMode: mode})
			p, err := e.Prepare(tieredQuery)
			if err != nil {
				t.Fatal(err)
			}
			reuse(t, e, tieredQuery, p)
			e.DrainUpgrades()
			if n := src.snapshots.Load(); n != 0 {
				t.Errorf("planning built %d statistics snapshots, want none", n)
			}
			if mode == PlanTiered && e.Stats().Upgrades != 1 {
				t.Errorf("tiered: %d upgrades installed, want 1", e.Stats().Upgrades)
			}
			if cs := e.CardStats(); len(cs.ACs) != 1 || src.snapshots.Load() != 1 {
				t.Errorf("Engine.CardStats: %d constraints, %d snapshots; want 1 and 1", len(cs.ACs), src.snapshots.Load())
			}
		})
	}
}

// TestGreedyModeNeverUpgrades pins PlanGreedy down: the greedy tier is
// served and no background work is queued, ever.
func TestGreedyModeNeverUpgrades(t *testing.T) {
	_, _, e := socialEngine(t, Options{PlanMode: PlanGreedy})
	prep, err := e.Prepare(socialQ0)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.PlanTier(); got != plan.TierGreedy {
		t.Fatalf("tier = %q, want greedy", got)
	}
	if st := e.Stats(); st.Upgrades != 0 || st.UpgradesPending != 0 {
		t.Fatalf("greedy mode queued background work: %+v", st)
	}
	if _, err := prep.Exec(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeDiscardedAfterSchemaExtension is the stale-install
// regression test: an upgrade whose build straddles an ExtendAccess must
// not install the pre-extension plan. The first attempt is discarded on
// the version check and the retry installs a schema-current optimized
// plan, so prepare -> extend -> upgrade-completes -> exec never executes
// a plan built against a retracted schema.
func TestUpgradeDiscardedAfterSchemaExtension(t *testing.T) {
	ls, e := tieredScene(t, PlanTiered)

	entered := make(chan struct{})
	release := make(chan struct{})
	var calls int32
	e.upgradeHook = func(string) {
		// Block attempt 1 between its version/schema read and its build;
		// the retry passes straight through.
		if atomic.AddInt32(&calls, 1) == 1 {
			close(entered)
			<-release
		}
	}

	prep, err := e.Prepare(tieredQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.PlanTier(); got != plan.TierGreedy {
		t.Fatalf("cold prepare tier = %q, want greedy", got)
	}
	reuse(t, e, tieredQuery, prep)

	// Land a schema extension inside the upgrade's build window.
	<-entered
	if err := ls.ExtendAccess(schema.MustAccessConstraint("r", []string{"b"}, []string{"a"}, 100)); err != nil {
		t.Fatal(err)
	}
	close(release)
	e.DrainUpgrades()

	st := e.Stats()
	if st.UpgradesDiscarded != 1 {
		t.Fatalf("UpgradesDiscarded = %d, want 1 (the pre-extension build)", st.UpgradesDiscarded)
	}
	if st.Upgrades != 1 {
		t.Fatalf("Upgrades = %d, want 1 (the schema-current retry)", st.Upgrades)
	}
	if got := prep.PlanTier(); got != plan.TierOptimized {
		t.Fatalf("post-upgrade tier = %q, want optimized", got)
	}
	res, err := prep.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 || res.Tuples[0][0] != value.Int(10) || res.Tuples[1][0] != value.Int(11) {
		t.Fatalf("answers = %v, want (10) and (11)", res.Tuples)
	}
}

// TestTieredExecRaceDuringUpgradeAndReplan hammers the plan-swap windows
// under the race detector: executors run a fixed-answer query in a loop
// while an ingester drifts the statistics of other groups (forcing
// hit-path drift re-plans) and the background worker installs upgrades.
// Every execution, whichever plan generation it lands on, must produce
// exactly the fixed answer set.
func TestTieredExecRaceDuringUpgradeAndReplan(t *testing.T) {
	ls, e := tieredScene(t, PlanTiered)

	const (
		executors = 4
		iters     = 150
	)
	var (
		execWG, ingestWG sync.WaitGroup
		mu               sync.Mutex
		failure          string
	)
	fail := func(msg string) {
		mu.Lock()
		if failure == "" {
			failure = msg
		}
		mu.Unlock()
	}
	stop := make(chan struct{})

	// Ingester: grow groups a >= 2 so cardinalities drift while plans swap.
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		// Spread over many groups and cap the volume so no group ever
		// approaches the N=100 bound.
		for i := int64(0); i < 20000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ls.Insert("r", value.Tuple{value.Int(2 + i%997), value.Int(1000 + i)}); err != nil {
				fail("insert: " + err.Error())
				return
			}
		}
	}()

	for g := 0; g < executors; g++ {
		execWG.Add(1)
		go func() {
			defer execWG.Done()
			for i := 0; i < iters; i++ {
				prep, err := e.Prepare(tieredQuery)
				if err != nil {
					fail("prepare: " + err.Error())
					return
				}
				res, err := prep.Exec()
				if err != nil {
					fail("exec: " + err.Error())
					return
				}
				if len(res.Tuples) != 2 || res.Tuples[0][0] != value.Int(10) || res.Tuples[1][0] != value.Int(11) {
					fail("unexpected answers for a=1: " + res.Tuples[0].String())
					return
				}
			}
		}()
	}

	execWG.Wait()
	close(stop)
	ingestWG.Wait()
	e.DrainUpgrades()

	if failure != "" {
		t.Fatal(failure)
	}
	// After the dust settles the live plan still answers correctly.
	prep, err := e.Prepare(tieredQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("final answers = %v, want exactly (10) and (11)", res.Tuples)
	}
}

// hammerExec runs a prepared template from several goroutines until stop
// closes, failing the test on any answer other than a=1's fixed group.
func hammerExec(t *testing.T, prep *Prepared, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := prep.Exec(value.Int(1))
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				if len(res.Tuples) != 2 || res.Tuples[0][0] != value.Int(10) || res.Tuples[1][0] != value.Int(11) {
					t.Errorf("answers = %v, want (10) and (11)", res.Tuples)
					return
				}
			}
		}()
	}
	return &wg
}

// TestUpgradePlansFromTheGreedyAnalysis pins the shared analysis (run
// under -race in CI). The greedy bundle carries the checked analysis it
// was planned from; the upgrade worker plans the optimized tier from that
// same analysis — the installed plan shares the greedy plan's closure —
// while executions read the closure concurrently, and the installed
// bundle carries no analysis. When an ExtendAccess lands inside the
// upgrade's build, the carried analysis is stale: the first attempt is
// discarded, the retry re-analyses against the fresh schema (a closure of
// its own) and a schema-current optimized plan is still installed.
func TestUpgradePlansFromTheGreedyAnalysis(t *testing.T) {
	const template = `select b from r where a = ?`
	for _, extend := range []bool{false, true} {
		name := "version stands"
		if extend {
			name = "extension mid-build"
		}
		t.Run(name, func(t *testing.T) {
			ls, e := tieredScene(t, PlanTiered)
			entered, release := make(chan struct{}), make(chan struct{})
			var calls int32
			e.upgradeHook = func(string) {
				if atomic.AddInt32(&calls, 1) == 1 {
					close(entered)
					<-release
				}
			}
			prep, err := e.Prepare(template)
			if err != nil {
				t.Fatal(err)
			}
			reuse(t, e, template, prep)
			<-entered
			greedy := prep.state.Load()
			if greedy.pl.Tier != plan.TierGreedy || greedy.checked == nil || greedy.checkedAt != ls.SchemaVersion() {
				t.Fatalf("greedy bundle: tier %q, analysis %v tagged %d at schema version %d; want the analysis carried and tagged current",
					greedy.pl.Tier, greedy.checked != nil, greedy.checkedAt, ls.SchemaVersion())
			}

			stop := make(chan struct{})
			execs := hammerExec(t, prep, stop)
			if extend {
				if err := ls.ExtendAccess(schema.MustAccessConstraint("r", []string{"b"}, []string{"a"}, 100)); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			e.DrainUpgrades()
			close(stop)
			execs.Wait()

			installed := prep.state.Load()
			if installed.pl.Tier != plan.TierOptimized {
				t.Fatalf("installed tier = %q, want optimized", installed.pl.Tier)
			}
			if installed.checked != nil {
				t.Error("the upgraded bundle still carries an analysis")
			}
			st := e.Stats()
			if extend {
				if st.Upgrades != 1 || st.UpgradesDiscarded != 1 {
					t.Errorf("upgrades: %d installed, %d discarded; want 1 and 1 (the build on the stale analysis)", st.Upgrades, st.UpgradesDiscarded)
				}
				if installed.pl.Closure == greedy.pl.Closure {
					t.Error("the retry planned from the analysis that predates the extension")
				}
			} else {
				if st.Upgrades != 1 || st.UpgradesDiscarded != 0 {
					t.Errorf("upgrades: %d installed, %d discarded; want 1 and 0", st.Upgrades, st.UpgradesDiscarded)
				}
				if installed.pl.Closure != greedy.pl.Closure {
					t.Error("the upgrade re-analysed a query whose schema version had not moved")
				}
			}
			if len(installed.slots) != 1 || installed.slots[0].class != installed.pl.Closure.MustClass(installed.slots[0].ref) {
				t.Errorf("installed slots %+v do not address the installed plan's classes", installed.slots)
			}
			res, err := prep.Exec(value.Int(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tuples) != 2 || res.Tuples[0][0] != value.Int(10) || res.Tuples[1][0] != value.Int(11) {
				t.Fatalf("answers after the upgrade = %v, want (10) and (11)", res.Tuples)
			}
		})
	}
}
