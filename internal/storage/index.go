package storage

import (
	"fmt"
	"iter"
	"slices"

	"bcq/internal/schema"
	"bcq/internal/value"
)

// IndexEntry is one distinct Y-value under some X-value of an access
// constraint: it names the witness tuple and restates nothing. The paper's
// index for X → (Y, N) returns, per X-value, a subset D' ⊆ D with one tuple
// per distinct Y-value — a selection of tuples of D, not a copy of their
// columns — so an entry is that tuple and where it lives. Its Y-value (and
// its X-value) are the witness's columns at the constraint's positions;
// whoever needs them holds those positions already (the live writer's
// bindings, the plan's FetchStep.YPos) and reads them off the witness.
// A segment file stores a group the same way: its witness positions.
type IndexEntry struct {
	// Witness is the first tuple of the relation exhibiting this (X, Y)
	// combination. It is the relation's own tuple, not a copy.
	Witness value.Tuple
	// Pos is the witness's position in the relation, identifying it for
	// D_Q accounting.
	Pos int
}

// AccessIndex materializes the index of one access constraint X → (Y, N):
// a hash map from encoded X-values to the witnesses of the distinct
// Y-values. Building it is a single pass over the relation; lookups are
// O(1) plus the O(N) result.
type AccessIndex struct {
	AC schema.AccessConstraint
	m  map[string][]IndexEntry
	// maxGroup is the largest number of distinct Y-values observed under
	// one X-value; ScanAccessIndex rejects relations where this exceeds
	// AC.N, which is how D |= A is enforced.
	maxGroup int
	// entries is the total number of distinct (X, Y) pairs indexed, the
	// numerator of the observed average group size the cost-based planner
	// estimates with.
	entries int64
}

// BuildAccessIndex scans the relation and builds the index, verifying the
// constraint's cardinality bound along the way (see ScanAccessIndex).
func BuildAccessIndex(rel *Relation, ac schema.AccessConstraint) (*AccessIndex, error) {
	return ScanAccessIndex(rel.Schema, ac, slices.All(rel.Tuples), len(rel.Tuples))
}

// ScanAccessIndex builds the index of a constraint over a sequence of
// (position, tuple) pairs of one relation — a sealed relation's tuples, or
// the live tuples of a snapshot in live order — verifying the constraint's
// cardinality bound along the way. The first tuple of the sequence to
// exhibit an (X, Y) pair becomes the pair's witness. A violation (some
// X-value with more than N distinct Y-values) is reported as an error
// carrying the offending X-value, which makes D |= A checking a by-product
// of index construction. sizeHint is the expected number of tuples.
func ScanAccessIndex(rs *schema.Relation, ac schema.AccessConstraint, tuples iter.Seq2[int, value.Tuple], sizeHint int) (*AccessIndex, error) {
	xPos, err := rs.Positions(ac.X)
	if err != nil {
		return nil, err
	}
	yPos, err := rs.Positions(ac.Y)
	if err != nil {
		return nil, err
	}
	idx := &AccessIndex{AC: ac, m: make(map[string][]IndexEntry)}
	// seen holds the encoded (X, Y) pairs already indexed. The pair at hand
	// is encoded into one reused buffer, so a tuple that repeats a pair
	// allocates nothing and a new pair allocates its key once.
	seen := make(map[string]bool, sizeHint)
	var pair []byte
	for pos, t := range tuples {
		pair = value.AppendKeyOf(pair[:0], t, xPos)
		nx := len(pair)
		pair = value.AppendKeyOf(append(pair, 0), t, yPos)
		if seen[string(pair)] {
			continue
		}
		seen[string(pair)] = true
		idx.entries++
		xk := string(pair[:nx])
		entries := append(idx.m[xk], IndexEntry{Witness: t, Pos: pos})
		idx.m[xk] = entries
		if len(entries) > idx.maxGroup {
			idx.maxGroup = len(entries)
		}
		if int64(len(entries)) > ac.N {
			return nil, &ViolationError{
				AC:       ac,
				XValue:   t.Project(xPos),
				Distinct: int64(len(entries)),
			}
		}
	}
	return idx, nil
}

// ViolationError reports a cardinality violation found while building an
// index or verifying D |= A.
type ViolationError struct {
	AC       schema.AccessConstraint
	XValue   value.Tuple
	Distinct int64
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("storage: constraint %s violated: X-value %s has at least %d distinct Y-values",
		e.AC, e.XValue, e.Distinct)
}

// MaxGroup returns the largest distinct-Y group size observed, a useful
// statistic for access-schema discovery.
func (idx *AccessIndex) MaxGroup() int { return idx.maxGroup }

// NumGroups returns the number of distinct X-keys the index holds.
func (idx *AccessIndex) NumGroups() int64 { return int64(len(idx.m)) }

// NumEntries returns the number of distinct (X, Y) pairs indexed.
func (idx *AccessIndex) NumEntries() int64 { return idx.entries }

// Entries returns the distinct-Y entry group under one encoded X-key
// (value.KeyOf over the constraint's sorted X positions), or nil when the
// key is absent. Unlike Database.Fetch it performs no access accounting:
// it exists so layers built on top of a sealed database — the live store's
// copy-on-write overlays — can read base groups and do their own counting.
// Callers must not mutate the returned slice.
func (idx *AccessIndex) Entries(xKey string) []IndexEntry { return idx.m[xKey] }

// Groups returns the index's whole group map, encoded X-key → entry group,
// for the layers that read an index wholesale: the segment writer (which
// sorts the keys itself for determinism), the live store's bootstrap, and
// its runtime extensions, which publish a scanned index as an overlay diff
// — exactly this map. Callers must not mutate the map or its slices.
func (idx *AccessIndex) Groups() map[string][]IndexEntry { return idx.m }

// EntriesOf is Entries for a key still in the buffer it was encoded into:
// the lookup copies nothing.
func (idx *AccessIndex) EntriesOf(xKey []byte) []IndexEntry { return idx.m[string(xKey)] }

// AccessIndexFor returns the built index of a constraint, if any. Like
// AccessIndex.Entries it is an uncounted, layering-oriented accessor.
func (db *Database) AccessIndexFor(ac schema.AccessConstraint) (*AccessIndex, bool) {
	return db.AccessIndexByKey(ac.Key())
}

// AccessIndexByKey is AccessIndexFor for a caller that already holds the
// constraint's Key(): the live overlays resolve a base group per probe,
// and rendering the key per probe cost more than the probe.
func (db *Database) AccessIndexByKey(key string) (*AccessIndex, bool) {
	idx, ok := db.access[key]
	return idx, ok
}

// BuildIndexes builds the access index for every constraint of the schema
// that applies to this database, verifying D |= A in the process, and
// seals the database against further Inserts (see the package comment's
// immutability contract). It is idempotent: rebuilding replaces the whole
// index set, so indexing a restricted schema drops indexes the restriction
// no longer grants.
func (db *Database) BuildIndexes(a *schema.AccessSchema) error {
	fresh := make(map[string]*AccessIndex, a.Size())
	for _, ac := range a.Constraints() {
		rel, err := db.Relation(ac.Rel)
		if err != nil {
			return err
		}
		idx, err := BuildAccessIndex(rel, ac)
		if err != nil {
			return err
		}
		fresh[ac.Key()] = idx
	}
	db.access = fresh
	db.sealed = true
	return nil
}

// EnsureIndexes builds the access indexes of the schema that are missing,
// keeping any already built (BuildIndexes instead replaces the whole set).
// Like BuildIndexes it seals the database. The engine uses it so that a
// database loaded through datagen (which indexes its full schema) is not
// re-indexed on engine construction.
func (db *Database) EnsureIndexes(a *schema.AccessSchema) error {
	for _, ac := range a.Constraints() {
		if _, ok := db.access[ac.Key()]; ok {
			continue
		}
		rel, err := db.Relation(ac.Rel)
		if err != nil {
			return err
		}
		idx, err := BuildAccessIndex(rel, ac)
		if err != nil {
			return err
		}
		db.access[ac.Key()] = idx
	}
	db.sealed = true
	return nil
}

// Satisfies reports whether D |= A, returning the first violation found.
// It is BuildIndexes without retaining the indexes.
func (db *Database) Satisfies(a *schema.AccessSchema) error {
	for _, ac := range a.Constraints() {
		rel, err := db.Relation(ac.Rel)
		if err != nil {
			return err
		}
		if _, err := BuildAccessIndex(rel, ac); err != nil {
			return err
		}
	}
	return nil
}

// Fetch probes the access index of a constraint with an X-value and returns
// the distinct Y-entries (at most N). The probe counts one index lookup and
// one fetched tuple per returned entry. xVals must align with the
// constraint's sorted X attribute list. Callers must not mutate the
// returned slice.
func (db *Database) Fetch(ac schema.AccessConstraint, xVals value.Tuple) ([]IndexEntry, error) {
	idx, ok := db.access[ac.Key()]
	if !ok {
		return nil, fmt.Errorf("storage: no index built for constraint %s", ac)
	}
	if len(xVals) != len(ac.X) {
		return nil, fmt.Errorf("storage: constraint %s expects %d lookup values, got %d", ac, len(ac.X), len(xVals))
	}
	var kb [value.KeyBufSize]byte
	entries := idx.EntriesOf(xVals.AppendKey(kb[:0]))
	db.stats.indexLookups.Add(1)
	db.stats.tuplesFetched.Add(int64(len(entries)))
	rc := db.relCounters(ac.Rel)
	rc.indexLookups.Add(1)
	rc.tuplesFetched.Add(int64(len(entries)))
	return entries, nil
}

// FetchBatch probes the access index of a constraint once per X-tuple and
// returns the entry groups aligned with xs (group i answers xs[i]). It is
// the batched form of Fetch — one index resolution and one arity check for
// the whole batch — and the unit of work the parallel executor hands to a
// worker. Counts one index lookup per probe and one fetched tuple per
// returned entry. Callers must not mutate the returned entry slices.
func (db *Database) FetchBatch(ac schema.AccessConstraint, xs []value.Tuple) ([][]IndexEntry, error) {
	idx, ok := db.access[ac.Key()]
	if !ok {
		return nil, fmt.Errorf("storage: no index built for constraint %s", ac)
	}
	out := make([][]IndexEntry, len(xs))
	var fetched int64
	var kb [value.KeyBufSize]byte
	key := kb[:0]
	for i, x := range xs {
		if len(x) != len(ac.X) {
			return nil, fmt.Errorf("storage: constraint %s expects %d lookup values, got %d", ac, len(ac.X), len(x))
		}
		key = x.AppendKey(key[:0])
		entries := idx.EntriesOf(key)
		out[i] = entries
		fetched += int64(len(entries))
	}
	db.stats.indexLookups.Add(int64(len(xs)))
	db.stats.tuplesFetched.Add(fetched)
	rc := db.relCounters(ac.Rel)
	rc.indexLookups.Add(int64(len(xs)))
	rc.tuplesFetched.Add(fetched)
	return out, nil
}

// HasAccessIndex reports whether an index for the constraint has been
// built.
func (db *Database) HasAccessIndex(ac schema.AccessConstraint) bool {
	_, ok := db.access[ac.Key()]
	return ok
}

// RowIndex is a conventional single-attribute secondary index: attribute
// value -> positions of all matching tuples. The baseline evaluators use
// these (the paper gave MySQL "all the indices specified in A"); unlike an
// AccessIndex they return every duplicate, which is precisely why full-data
// evaluation degrades as the data grows.
type RowIndex struct {
	Rel  string
	Attr string
	pos  int
	m    map[value.Value][]int
}

// BuildRowIndexes builds a RowIndex for every attribute that appears in
// some constraint's X (the "indices specified in A"). Idempotent. Like
// BuildIndexes it seals the database: row indexes record tuple positions
// too, so inserting after building them would stale every RowLookup.
func (db *Database) BuildRowIndexes(a *schema.AccessSchema) error {
	for _, ac := range a.Constraints() {
		for _, attr := range ac.X {
			if err := db.BuildRowIndex(ac.Rel, attr); err != nil {
				return err
			}
		}
	}
	return nil
}

// BuildRowIndex builds the row index on one attribute (a no-op when it
// already exists) and seals the database.
func (db *Database) BuildRowIndex(rel, attr string) error {
	r, err := db.Relation(rel)
	if err != nil {
		return err
	}
	p := r.Schema.Pos(attr)
	if p < 0 {
		return fmt.Errorf("storage: relation %s has no attribute %s", rel, attr)
	}
	db.sealed = true
	key := rel + "." + attr
	if _, exists := db.rowIdx[key]; exists {
		return nil
	}
	idx := &RowIndex{Rel: rel, Attr: attr, pos: p, m: make(map[value.Value][]int)}
	for i, t := range r.Tuples {
		idx.m[t[p]] = append(idx.m[t[p]], i)
	}
	db.rowIdx[key] = idx
	return nil
}

// HasRowIndex reports whether a row index exists on rel.attr.
func (db *Database) HasRowIndex(rel, attr string) bool {
	_, ok := db.rowIdx[rel+"."+attr]
	return ok
}

// RowLookup returns the positions of all tuples of rel whose attr equals v,
// using a row index if one exists (ok reports whether it did). The lookup
// counts one index probe; the caller is responsible for counting the tuples
// it then reads (baselines read full tuples).
func (db *Database) RowLookup(rel, attr string, v value.Value) (positions []int, ok bool) {
	idx, exists := db.rowIdx[rel+"."+attr]
	if !exists {
		return nil, false
	}
	db.stats.indexLookups.Add(1)
	db.relCounters(rel).indexLookups.Add(1)
	return idx.m[v], true
}

// ReadAt returns the tuple at a position of a relation, counting one
// fetched tuple.
func (db *Database) ReadAt(rel string, pos int) (value.Tuple, error) {
	r, err := db.Relation(rel)
	if err != nil {
		return nil, err
	}
	if pos < 0 || pos >= len(r.Tuples) {
		return nil, fmt.Errorf("storage: position %d out of range for relation %s", pos, rel)
	}
	db.stats.tuplesFetched.Add(1)
	db.relCounters(rel).tuplesFetched.Add(1)
	return r.Tuples[pos], nil
}
