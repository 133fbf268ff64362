package live

import (
	"reflect"
	"testing"

	"bcq/internal/value"
)

// CheckLedger is checkLedger for the external tests, which drive the
// store through packages that import this one (the sharded store).
func CheckLedger(t *testing.T, st *Store, stage string) {
	t.Helper()
	checkLedger(t, st, stage)
}

// The social scene of the package's tests, for the external ones.
var (
	LoadSocial    = loadSocial
	SocialCatalog = socialCatalog
	AccessA0      = accessA0
	Strs          = strs
)

// AssertSameState asserts two stores expose identical data: per-relation
// tuples in live order, cardinality statistics, epoch key and tuple
// count. It is the byte-identity bar of the crash-recovery property,
// which the external tests hold a one-shard durable store's shard to. The
// writer's bookkeeping is held to the same bar: each store's ledger
// equals a recount of its own snapshot, and the recovered store's equals
// the never-crashed one's, position for position.
func AssertSameState(t *testing.T, got, want *Store) {
	t.Helper()
	checkLedger(t, got, "recovered store")
	checkLedger(t, want, "reference store")
	for key, led := range want.ledger {
		if !sameLedger(got.ledger[key], led) {
			t.Fatalf("ledger of %s differs:\n got %v\nwant %v", key, got.ledger[key], led)
		}
	}
	if gk, wk := got.EpochKey(), want.EpochKey(); gk != wk {
		t.Fatalf("EpochKey = %s, want %s", gk, wk)
	}
	if gn, wn := got.NumTuples(), want.NumTuples(); gn != wn {
		t.Fatalf("NumTuples = %d, want %d", gn, wn)
	}
	if !reflect.DeepEqual(got.CardStats(), want.CardStats()) {
		t.Fatalf("CardStats differ:\n got %+v\nwant %+v", got.CardStats(), want.CardStats())
	}
	if gs, ws := got.Access().String(), want.Access().String(); gs != ws {
		t.Fatalf("Access = %s, want %s", gs, ws)
	}
	gSnap, wSnap := got.Snapshot(), want.Snapshot()
	for _, rs := range want.Catalog().Relations() {
		var gt, wt []value.Tuple
		if err := gSnap.Scan(rs.Name(), func(pos int, tu value.Tuple) bool {
			gt = append(gt, tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := wSnap.Scan(rs.Name(), func(pos int, tu value.Tuple) bool {
			wt = append(wt, tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(gt) != len(wt) {
			t.Fatalf("%s: %d live tuples, want %d", rs.Name(), len(gt), len(wt))
		}
		for i := range wt {
			if !gt[i].Equal(wt[i]) {
				t.Fatalf("%s[%d] = %s, want %s", rs.Name(), i, gt[i], wt[i])
			}
		}
	}
}
