package live

import "testing"

// CheckLedger is checkLedger for the external tests, which drive the
// store through packages that import this one (the sharded store).
func CheckLedger(t *testing.T, st *Store, stage string) {
	t.Helper()
	checkLedger(t, st, stage)
}
