// Package storage is the in-memory relational storage engine the
// reproduction runs on. It stands in for the paper's MySQL/MyISAM setup
// (see DESIGN.md, substitution 1) and provides:
//
//   - relations as tuple bags positionally aligned with their schemas;
//   - access-constraint indices: for a constraint X → (Y, N), a flat arena
//     of the ≤ N distinct Y-values of each X-value behind a table hashed
//     over the X-values, each held as one witness tuple of the relation
//     and its position (IndexEntry) — the paper's index returns a subset
//     D' ⊆ D, so an entry names a tuple of D and restates none of its
//     columns; Y is read off the witness. The index keeps nothing else of
//     the tuples but their number; whoever keeps every occurrence of a
//     pair — the live store's ledger — asks it for the repeats
//     (AccessIndex.Repeats), which it finds by probing only the tuples
//     that are no witness, instead of keying the relation;
//   - row indices (single-attribute hash indices returning all matching
//     full tuples) for the baseline evaluators;
//   - access-statistics counters, so experiments can report tuples
//     accessed as well as wall time;
//   - verification that a database satisfies an access schema (D |= A);
//   - the data-side half of Lemma 1 (gD).
//
// # Concurrency and the immutability contract
//
// A Database goes through two phases. During loading, Insert appends
// tuples from a single goroutine. BuildIndexes (or EnsureIndexes) then
// seals the database: further Inserts are rejected, and from that point
// on the database is immutable and every read path — Fetch, FetchBatch,
// Scan, NonEmpty, RowLookup, ReadAt — is safe for concurrent use by any
// number of goroutines. The access-statistics counters are atomic, so
// concurrent readers never race on accounting either.
package storage

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bcq/internal/schema"
	"bcq/internal/stats"
	"bcq/internal/value"
)

// ErrSealed is the sentinel matched by errors.Is when an operation is
// rejected because the database has been sealed by index construction.
// The concrete error is a *SealedError naming the relation, so callers —
// the live layer above all — can distinguish "load phase is over" from
// genuine insert failures (unknown relation, arity mismatch).
var ErrSealed = errors.New("database is sealed (indexes built)")

// SealedError is the typed form of a sealed-database rejection.
type SealedError struct {
	// Rel is the relation the rejected operation targeted.
	Rel string
}

func (e *SealedError) Error() string {
	return fmt.Sprintf("storage: relation %s is sealed (indexes built); load data before BuildIndexes, or mutate through a live store", e.Rel)
}

// Unwrap makes errors.Is(err, ErrSealed) match.
func (e *SealedError) Unwrap() error { return ErrSealed }

// Stats is a snapshot of the storage access counters. The experiments
// reset the counters around each run and report the totals; evalDQ's
// bounded-access claim is checked against TuplesFetched.
type Stats struct {
	// IndexLookups counts probes of any index.
	IndexLookups int64
	// TuplesFetched counts tuples (or index entries, which carry a witness
	// tuple each) handed to an evaluator.
	TuplesFetched int64
	// TuplesScanned counts tuples read by full scans.
	TuplesScanned int64
}

// Total returns all tuples touched, by any access path.
func (s Stats) Total() int64 { return s.TuplesFetched + s.TuplesScanned }

// Sub returns the delta s − before, the accesses performed between two
// snapshots.
func (s Stats) Sub(before Stats) Stats {
	return Stats{
		IndexLookups:  s.IndexLookups - before.IndexLookups,
		TuplesFetched: s.TuplesFetched - before.TuplesFetched,
		TuplesScanned: s.TuplesScanned - before.TuplesScanned,
	}
}

// counters is the live, atomically updated form of Stats, so concurrent
// executors can share one database without racing on accounting.
type counters struct {
	indexLookups  atomic.Int64
	tuplesFetched atomic.Int64
	tuplesScanned atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		IndexLookups:  c.indexLookups.Load(),
		TuplesFetched: c.tuplesFetched.Load(),
		TuplesScanned: c.tuplesScanned.Load(),
	}
}

func (c *counters) reset() {
	c.indexLookups.Store(0)
	c.tuplesFetched.Store(0)
	c.tuplesScanned.Store(0)
}

// Relation is a bag of tuples positionally aligned with a schema.
type Relation struct {
	Schema *schema.Relation
	Tuples []value.Tuple
}

// Database is a set of named relations plus their indices.
type Database struct {
	cat    *schema.Catalog
	rels   map[string]*Relation
	access map[string]*AccessIndex // keyed by AccessConstraint.Key()
	rowIdx map[string]*RowIndex    // keyed by rel + "." + attr
	stats  counters
	// relStats breaks the access counters down per relation (same atomic
	// discipline as stats; the map itself is immutable after NewDatabase).
	relStats map[string]*counters
	// sealed is set by BuildIndexes/EnsureIndexes; a sealed database
	// rejects Insert, which is what makes lock-free concurrent reads safe.
	sealed bool
}

// NewDatabase creates an empty database with one empty relation per catalog
// entry.
func NewDatabase(cat *schema.Catalog) *Database {
	db := &Database{
		cat:      cat,
		rels:     make(map[string]*Relation, cat.NumRelations()),
		access:   make(map[string]*AccessIndex),
		rowIdx:   make(map[string]*RowIndex),
		relStats: make(map[string]*counters, cat.NumRelations()),
	}
	for _, r := range cat.Relations() {
		db.rels[r.Name()] = &Relation{Schema: r}
		db.relStats[r.Name()] = &counters{}
	}
	return db
}

// Catalog returns the catalog the database conforms to.
func (db *Database) Catalog() *schema.Catalog { return db.cat }

// Sealed reports whether the database has been sealed by index
// construction (and therefore rejects further Inserts).
func (db *Database) Sealed() bool { return db.sealed }

// EpochKey names the data version a sealed database serves, for display
// and for the "epoch" of a response. A sealed database never changes, so
// the key is a constant — and it has no version words: every cached
// result stays valid forever.
func (db *Database) EpochKey() string { return "sealed" }

// AppendEpochKey appends EpochKey to dst.
func (db *Database) AppendEpochKey(dst []byte) []byte { return append(dst, "sealed"...) }

// Relation returns the named relation, or an error for unknown names.
func (db *Database) Relation(name string) (*Relation, error) {
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown relation %s", name)
	}
	return r, nil
}

// MustRelation is Relation that panics on unknown names.
func (db *Database) MustRelation(name string) *Relation {
	r, err := db.Relation(name)
	if err != nil {
		panic(err)
	}
	return r
}

// Insert appends a tuple to the named relation after arity-checking it.
// Inserting into a sealed database (one whose indexes have been built) is
// an error: indexes record witness positions, so mutation would silently
// corrupt every subsequent bounded evaluation. Load all data first, then
// call BuildIndexes.
func (db *Database) Insert(rel string, t value.Tuple) error {
	r, err := db.Relation(rel)
	if err != nil {
		return err
	}
	if db.sealed {
		return &SealedError{Rel: rel}
	}
	if len(t) != r.Schema.Arity() {
		return fmt.Errorf("storage: relation %s expects arity %d, got %d", rel, r.Schema.Arity(), len(t))
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// NumTuples returns |D|: the total number of tuples across all relations.
func (db *Database) NumTuples() int64 {
	var n int64
	for _, r := range db.rels {
		n += int64(len(r.Tuples))
	}
	return n
}

// Stats returns a snapshot of the access counters. The live counters are
// atomic; the snapshot is a plain value, so two snapshots can be
// subtracted (Stats.Sub) to measure one evaluation.
func (db *Database) Stats() Stats { return db.stats.snapshot() }

// ResetStats zeroes the access counters, global and per-relation.
func (db *Database) ResetStats() {
	db.stats.reset()
	for _, c := range db.relStats {
		c.reset()
	}
}

// CardStats returns the database's cardinality statistics: per-relation
// row counts and, for every built access index, its observed shape
// (distinct X-groups, distinct (X, Y) entries, largest group). On a
// sealed database the snapshot is constant; the cost-based planner reads
// it to replace declared worst-case bounds N with observed averages.
func (db *Database) CardStats() stats.Snapshot {
	out := stats.New()
	for name, r := range db.rels {
		out.Rels[name] = stats.RelCard{Rows: int64(len(r.Tuples))}
	}
	for key, idx := range db.access {
		out.ACs[key] = stats.ACCard{
			Groups:   idx.NumGroups(),
			Entries:  idx.NumEntries(),
			MaxGroup: int64(idx.MaxGroup()),
		}
	}
	return out
}

// RelStats returns a per-relation breakdown of the access counters: which
// relations absorb the lookups and fetches. The global Stats() remains
// the sum; the breakdown is what makes hot relations — and, one layer up,
// shard balance — observable. Relations with no accesses are included
// with zero counts.
func (db *Database) RelStats() map[string]Stats {
	out := make(map[string]Stats, len(db.relStats))
	for rel, c := range db.relStats {
		out[rel] = c.snapshot()
	}
	return out
}

// discard absorbs counts for unknown relation names (which the read paths
// have already rejected before counting; this is belt-and-braces so the
// per-relation sum always matches the global counters).
var discard counters

// relCounters returns the per-relation counter block.
func (db *Database) relCounters(rel string) *counters {
	if c, ok := db.relStats[rel]; ok {
		return c
	}
	return &discard
}

// Scan iterates every tuple of a relation, counting each against the scan
// statistics. The callback returning false stops the scan early.
func (db *Database) Scan(rel string, f func(pos int, t value.Tuple) bool) error {
	r, err := db.Relation(rel)
	if err != nil {
		return err
	}
	rc := db.relCounters(rel)
	for i, t := range r.Tuples {
		db.stats.tuplesScanned.Add(1)
		rc.tuplesScanned.Add(1)
		if !f(i, t) {
			return nil
		}
	}
	return nil
}

// NonEmpty probes whether a relation has at least one tuple. The probe is
// O(1) and counts a single fetched tuple when the relation is non-empty;
// it backs the executor's existence checks for atoms with no parameters.
func (db *Database) NonEmpty(rel string) (bool, error) {
	r, err := db.Relation(rel)
	if err != nil {
		return false, err
	}
	if len(r.Tuples) == 0 {
		return false, nil
	}
	db.stats.tuplesFetched.Add(1)
	db.relCounters(rel).tuplesFetched.Add(1)
	return true, nil
}
