// Package stats defines the cardinality statistics the cost-based plan
// optimizer runs on: per-relation row counts and, per access constraint
// X → (Y, N), the observed shape of its index — how many distinct X-keys
// (groups) it holds, how many distinct (X, Y) entries, and the largest
// group seen. The observed average group size Entries/Groups is the
// planner's N̂: the paper's declared bound N is a worst case, while N̂ is
// what a probe actually returns on this data, often orders of magnitude
// smaller.
//
// Every storage layer produces a Snapshot — the sealed database from its
// built indexes, the live store from counters maintained incrementally
// through ingest, the sharded store by merging its shards (exact, because
// every index group lives whole on one shard) — and the engine fingerprints
// the slice of it a plan depends on, so the plan cache can detect when
// observed cardinalities have drifted far enough to warrant re-planning.
package stats

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// RelCard is one relation's cardinality statistics.
type RelCard struct {
	// Rows is the live tuple count of the relation.
	Rows int64 `json:"rows"`
}

// ACCard is one access constraint's observed index shape.
type ACCard struct {
	// Groups is the number of distinct X-keys with at least one entry.
	Groups int64 `json:"groups"`
	// Entries is the number of distinct (X, Y) pairs across all groups.
	Entries int64 `json:"entries"`
	// MaxGroup is the largest group observed (≤ the declared bound N).
	MaxGroup int64 `json:"max_group"`
}

// AvgGroup is the observed mean entries per group — the planner's N̂.
// Zero groups (an empty index) report 0: a probe of an empty index
// returns nothing.
func (c ACCard) AvgGroup() float64 {
	if c.Groups == 0 {
		return 0
	}
	return float64(c.Entries) / float64(c.Groups)
}

// Snapshot is one store's cardinality statistics at a point in time.
// Relations are keyed by name, constraints by AccessConstraint.Key().
// Snapshots are plain values: safe to retain, compare and merge.
type Snapshot struct {
	Rels map[string]RelCard `json:"relations,omitempty"`
	ACs  map[string]ACCard  `json:"constraints,omitempty"`
}

// New returns an empty snapshot with allocated maps.
func New() Snapshot {
	return Snapshot{Rels: make(map[string]RelCard), ACs: make(map[string]ACCard)}
}

// ACCard returns one constraint's card and whether it is present. A nil
// snapshot has no cards: the planner reads one as no statistics at all.
func (s *Snapshot) ACCard(key string) (ACCard, bool) {
	if s == nil {
		return ACCard{}, false
	}
	c, ok := s.ACs[key]
	return c, ok
}

// Merge adds another snapshot's counts into s (sharded aggregation):
// rows, groups and entries sum — exact when the stores hold disjoint
// data and every index group lives whole on one store, which is the
// sharded store's placement invariant — and MaxGroup takes the max.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	for rel, rc := range o.Rels {
		agg := s.Rels[rel]
		agg.Rows += rc.Rows
		s.Rels[rel] = agg
	}
	for key, ac := range o.ACs {
		agg := s.ACs[key]
		agg.Groups += ac.Groups
		agg.Entries += ac.Entries
		if ac.MaxGroup > agg.MaxGroup {
			agg.MaxGroup = ac.MaxGroup
		}
		s.ACs[key] = agg
	}
	return s
}

// bucket quantizes a positive quantity to its power-of-two magnitude, so
// a fingerprint moves only when the quantity roughly doubles or halves —
// the drift threshold that triggers re-planning. Zero and negatives map
// to a distinct empty bucket.
func bucket(x float64) int {
	if x <= 0 {
		return math.MinInt32
	}
	return int(math.Floor(math.Log2(x)))
}

// Shape is one constraint's quantized index shape: the power-of-two
// buckets of its observed average group size and of its group count. It
// is what a fingerprint renders per constraint, so two shapes of one
// constraint differ exactly when its fingerprint would. The zero Shape
// is a constraint the store does not have.
type Shape struct {
	present     bool
	avg, groups int
}

// ShapeOf quantizes one constraint's card; ok false (the store has no
// such constraint) gives the zero Shape.
func ShapeOf(c ACCard, ok bool) Shape {
	if !ok {
		return Shape{}
	}
	return Shape{present: true, avg: bucket(c.AvgGroup()), groups: bucket(float64(c.Groups))}
}

// Shape returns one constraint's quantized shape in this snapshot.
func (s Snapshot) Shape(key string) Shape { return ShapeOf(s.ACCard(key)) }

// Fingerprint renders the snapshot's shape restricted to the given
// constraint keys, quantized so ingest noise does not perturb it: per
// constraint, its Shape. Two fingerprints differ only when some
// constraint's observed shape drifted by roughly 2× — the signal the
// engine re-plans on. Keys absent from the snapshot render as "-",
// which still flips the fingerprint when the constraint later gains
// data.
func (s Snapshot) Fingerprint(acKeys []string) string {
	keys := acKeys
	if !sort.StringsAreSorted(keys) {
		keys = append([]string(nil), acKeys...)
		sort.Strings(keys)
	}
	shapes := make([]Shape, len(keys))
	for i, k := range keys {
		shapes[i] = s.Shape(k)
	}
	return Render(keys, shapes)
}

// Render is the fingerprint of shapes already read: keys sorted, and
// shapes[i] the shape of keys[i].
func Render(keys []string, shapes []Shape) string {
	n := 0
	for _, k := range keys {
		n += len(k) + len("=-2147483648,-2147483648;")
	}
	var b strings.Builder
	b.Grow(n)
	var num [20]byte
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		sh := shapes[i]
		if !sh.present {
			b.WriteString("=-")
			continue
		}
		b.WriteByte('=')
		b.Write(strconv.AppendInt(num[:0], int64(sh.avg), 10))
		b.WriteByte(',')
		b.Write(strconv.AppendInt(num[:0], int64(sh.groups), 10))
	}
	return b.String()
}
