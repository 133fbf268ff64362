package engine

// cacheEntry is one plan-cache slot: a successfully prepared query, or a
// preparation error tagged with the store version it was observed at.
//
// The engine keeps successes and failures in two separate caches
// (internal/clock instances, serialized under the engine mutex).
// Successful plans are sound forever — the live layers keep D |= A
// invariant, so no epoch advance can invalidate them — and must not be
// displaced by a burst of failing query shapes. Errors are soft state:
// caching one saves re-running the boundedness analysis for a hot
// rejected shape, but the verdict can flip when the store's
// schema/epoch version advances (an ExtendAccess making the shape
// answerable), so an error entry is served only while the store version
// has not moved past the tagged one.
type cacheEntry struct {
	prep *Prepared
	err  error
	// version is the engine source's version when the (failed)
	// preparation began; err entries whose version is behind the current
	// source version are stale and must be retried, never served.
	version uint64
}
