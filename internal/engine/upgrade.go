package engine

// Background plan upgrading: the tiered planning mode's second half.
//
// A tiered engine answers cold prepares with the greedy plan tier
// (plan.OptimizeGreedy — no branch-and-bound search, so prepare latency
// stays flat as query shapes get bigger). Only reused plans pay for the
// optimized tier: the first plan-cache hit of a greedy Prepared enqueues
// it here, so a shape served once (an ad hoc query the cache evicts
// before any reuse) is never optimized. A single background worker then
// runs the full Optimize search — over the analysis the greedy build
// already checked, which rides in the greedy bundle until the upgrade
// lands — and installs the result into the live Prepared *in place*,
// through the same atomic planState publication the drift re-plan path
// uses — every caller holding the Prepared sees the optimized plan on its
// next execution, with no cache round-trip.
//
// Installation is guarded, not unconditional. An upgrade built against
// state that moved while it was running must be discarded — installing
// it would resurrect a plan the engine already decided is stale:
//
//   - schema version: if Source.Version advanced since the worker read
//     the access schema (ExtendAccess landed mid-build), the build is
//     discarded and retried once against the new schema, so the
//     installed plan is always schema-current;
//   - cache identity: if the cache no longer maps the fingerprint to the
//     same Prepared (drift re-plan replaced it, LRU evicted it), the
//     upgrade's target is unreachable by future prepares — discard;
//   - statistics: if the quantized shape of some constraint the new plan
//     probes already differs from the one it was costed against,
//     installing it would immediately re-trigger the hit-path drift
//     check — discard and let that machinery re-plan on demand. The
//     shapes are re-read (card by card, as the hit path does) only when
//     the store's epoch moved since the build read it: statistics cannot
//     move without the epoch.

const (
	// maxUpgradeQueue bounds the pending-upgrade queue; a hit past the
	// bound leaves its plan unqueued and the plan's next hit asks again
	// (the upgrade path is an optimization, never a correctness need).
	maxUpgradeQueue = 256
	// upgradeAttempts bounds the retry-on-version-advance loop so a
	// schema-extension storm cannot pin the worker on one fingerprint.
	upgradeAttempts = 2
)

// PlanMode selects the engine's cold-prepare planning tier.
type PlanMode int

const (
	// PlanOptimized (the default) runs the full branch-and-bound search on
	// every cold prepare — PR 5's behaviour.
	PlanOptimized PlanMode = iota
	// PlanGreedy always serves the greedy tier and never upgrades:
	// minimal planning latency, estimates only as good as greedy ordering.
	PlanGreedy
	// PlanTiered serves cold prepares from the greedy tier and upgrades
	// reused plans to the optimized tier in the background.
	PlanTiered
)

// String renders the mode for /stats and CLI output.
func (m PlanMode) String() string {
	switch m {
	case PlanGreedy:
		return "greedy"
	case PlanTiered:
		return "tiered"
	default:
		return "optimized"
	}
}

// enqueueUpgradeLocked queues a cached greedy Prepared — the exact one, so
// installation can verify it is still cached — for background
// optimization. Caller holds e.mu. A Prepared is queued at most once, and
// one shed past the queue bound stays unmarked so its next hit asks
// again: the greedy plan stays correct, so shedding is safe.
func (e *Engine) enqueueUpgradeLocked(p *Prepared) {
	if p.upgradeQueued || len(e.upgradeQueue) >= maxUpgradeQueue {
		return
	}
	p.upgradeQueued = true
	e.upgradeQueue = append(e.upgradeQueue, p)
	e.upgradePending++
	if !e.upgradeWorkerLive {
		e.upgradeWorkerLive = true
		go e.runUpgrades()
	}
}

// runUpgrades drains the upgrade queue one task at a time, then exits:
// the worker is started lazily per burst, so an idle engine holds no
// goroutine and tests never leak one.
func (e *Engine) runUpgrades() {
	for {
		e.mu.Lock()
		if len(e.upgradeQueue) == 0 {
			e.upgradeWorkerLive = false
			e.mu.Unlock()
			return
		}
		p := e.upgradeQueue[0]
		e.upgradeQueue = e.upgradeQueue[1:]
		e.mu.Unlock()

		e.upgradeOne(p)

		e.mu.Lock()
		e.upgradePending--
		if e.upgradePending == 0 {
			e.upgradeCond.Broadcast()
		}
		e.mu.Unlock()
	}
}

// upgradeOne builds the optimized tier for one cached plan and installs
// it if — and only if — the world it was built against still holds at
// install time (see the package comment above for the three checks). A
// version advance retries once against the fresh schema, so a prepare →
// ExtendAccess → upgrade-completes interleaving still ends with a
// schema-current optimized plan installed.
//
// The greedy build left its checked analysis in the bundle it published,
// tagged with the schema version it was analysed under. While the version
// stands, the upgrade plans from that analysis — sentinel instantiation,
// the closure, actualization and EBCheck are not repeated, only the
// branch-and-bound search and emission run here — and otherwise it
// re-analyses against the schema it just read.
func (e *Engine) upgradeOne(p *Prepared) {
	for attempt := 0; attempt < upgradeAttempts; attempt++ {
		// Version before schema, same ordering discipline as prepare: if an
		// extension lands between the reads, the version check below fails
		// and the retry sees both fresh.
		ver := e.src.Version()
		acc := e.src.Access()
		if h := e.upgradeHook; h != nil {
			h(p.fp)
		}
		greedy := p.state.Load()
		chk, slots := greedy.checked, greedy.slots
		if chk == nil || greedy.checkedAt != ver {
			var err error
			if chk, slots, err = e.analyze(p.query, acc); err != nil {
				// The shape no longer plans (a schema change mid-flight can do
				// that); the greedy plan in place stays valid for the schema it
				// was built under, and the error cache owns future verdicts.
				e.upgradesDiscarded.Add(1)
				return
			}
		}
		st, err := e.planState(chk, slots, true)
		if err != nil {
			e.upgradesDiscarded.Add(1)
			return
		}

		e.mu.Lock()
		if cur, ok := e.cache.Get(p.fp); !ok || cur.prep != p {
			// Drift re-plan or eviction replaced the entry while we built:
			// our target is no longer what prepares resolve, so installing
			// into it would be at best invisible, at worst a resurrection.
			e.mu.Unlock()
			e.upgradesDiscarded.Add(1)
			return
		}
		if e.src.Version() != ver {
			// Schema moved under the build (ExtendAccess): the plan may be
			// built against a retracted view of the schema. Discard and
			// retry against the current one.
			e.mu.Unlock()
			e.upgradesDiscarded.Add(1)
			continue
		}
		// Statistics cannot have moved unless the epoch did, and planState
		// read the epoch before the statistics it costed against (the
		// argument Engine.current rests on): an unmoved epoch installs
		// without reading a card under the engine mutex.
		if e.src.Epoch() != st.verifiedAt.Load() && !e.shapesHold(st) {
			// Statistics drifted during the build; the hit-path drift check
			// owns re-planning, and it compares against the *installed*
			// shapes — installing known-drifted ones would thrash.
			e.mu.Unlock()
			e.upgradesDiscarded.Add(1)
			return
		}
		p.state.Store(st)
		e.upgrades.Add(1)
		e.mu.Unlock()
		return
	}
}

// PlanMode reports the engine's planning mode.
func (e *Engine) PlanMode() PlanMode { return e.mode }

// PendingUpgrades reports how many background upgrades are queued or in
// flight right now.
func (e *Engine) PendingUpgrades() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.upgradePending
}

// DrainUpgrades blocks until every queued background upgrade has been
// installed or discarded. Tests and one-shot CLI runs use it to make the
// tiered mode deterministic; a serving engine never needs to call it.
func (e *Engine) DrainUpgrades() {
	e.mu.Lock()
	for e.upgradePending > 0 {
		e.upgradeCond.Wait()
	}
	e.mu.Unlock()
}
