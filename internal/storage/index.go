package storage

import (
	"fmt"
	"hash/maphash"
	"iter"
	"maps"
	"math"
	"slices"
	"unsafe"

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
//
// An entry is 16 bytes, half of a tuple's slice header and an int: it
// keeps the witness as its first value and its arity, and the position
// in 32 bits. The entry arenas are most of an index's heap.
type IndexEntry struct {
	w   *value.Value // the witness's first value
	n   uint32       // the witness's arity
	pos uint32
}

// MakeIndexEntry names the witness t, the relation's own tuple (not a
// copy), at position pos of its relation.
func MakeIndexEntry(t value.Tuple, pos int) IndexEntry {
	if uint(pos) > math.MaxUint32 {
		panic(fmt.Sprintf("storage: witness position %d past 32 bits", pos))
	}
	return IndexEntry{w: unsafe.SliceData(t), n: uint32(len(t)), pos: uint32(pos)}
}

// Witness is the first tuple of the relation exhibiting this (X, Y)
// combination. It is the relation's own tuple, not a copy, and it must
// not be written to.
func (e IndexEntry) Witness() value.Tuple { return unsafe.Slice(e.w, e.n) }

// Pos is the witness's position in the relation, identifying it for D_Q
// accounting.
func (e IndexEntry) Pos() int { return int(e.pos) }

// String shows the witness and its position.
func (e IndexEntry) String() string { return fmt.Sprintf("%v@%d", e.Witness(), e.pos) }

// AccessIndex is the index of one access constraint X → (Y, N), the
// witnesses of the distinct Y-values of each X-value, in three flat arrays:
// entries, one arena holding each group contiguously, groups and the
// entries of a group in first-seen order; start, each group's offset in
// it, plus its end; and slots, an open-addressed table over the X-values
// (a power of two at load ≤ 3/4, linear probing), a slot holding 1 + a
// group (0: empty) under the top half of the X-value's hash. The table
// stores no keys: a slot is confirmed by comparing the probe's X-value with
// the group's first witness, so Int(1) and Str("1") stay apart, and the
// hash half spares the comparison — three cache misses — with every other
// group a probe passes.
//
// The index keeps nothing of the tuples that are not witnesses but their
// number: Repeats finds them again, probing them alone, for the one
// reader that needs every occurrence of a pair — the live store's ledger.
type AccessIndex struct {
	AC         schema.AccessConstraint
	xPos, xSeq []int // X's positions in the relation, and in an X-value
	yPos       []int // Y's positions in the relation
	entries    []IndexEntry
	start      []uint32
	slots      []uint64
	maxGroup   int
	scanned    int // the tuples the index was built over
}

// BuildAccessIndex scans the relation and builds the index, verifying the
// constraint's cardinality bound along the way (see ScanAccessIndex).
func BuildAccessIndex(rel *Relation, ac schema.AccessConstraint) (*AccessIndex, error) {
	return ScanAccessIndex(rel.Schema, ac, slices.All(rel.Tuples), len(rel.Tuples))
}

// ScanAccessIndex builds the index of a constraint over a sequence of at
// most n (position, tuple) pairs of one relation — a sealed relation's
// tuples, or the live tuples of a snapshot in live order — verifying the
// constraint's cardinality bound along the way. The first tuple of the
// sequence to exhibit an (X, Y) pair becomes the pair's witness. A
// violation (some X-value with more than N distinct Y-values) is reported
// as an error carrying the offending X-value, which makes D |= A checking
// a by-product of index construction.
func ScanAccessIndex(rs *schema.Relation, ac schema.AccessConstraint, tuples iter.Seq2[int, value.Tuple], n int) (*AccessIndex, error) {
	b, err := newBuilder(rs, ac, n)
	if err != nil {
		return nil, err
	}
	scanned := 0
	for pos, t := range tuples {
		if err := b.add(pos, t); err != nil {
			return nil, err
		}
		scanned++
	}
	idx := b.finish()
	idx.scanned = scanned
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

// NumGroups returns the number of distinct X-values the index holds.
func (idx *AccessIndex) NumGroups() int64 { return int64(len(idx.start) - 1) }

// NumEntries returns the number of distinct (X, Y) pairs indexed.
func (idx *AccessIndex) NumEntries() int64 { return int64(len(idx.entries)) }

// Lookup returns the group under an X-value aligned with the constraint's
// sorted X attributes, or nil. Unlike Database.Fetch it counts nothing, so
// the live store's overlays can read base groups and count themselves.
// Callers must not mutate the returned slice.
func (idx *AccessIndex) Lookup(x value.Tuple) []IndexEntry {
	if len(x) != len(idx.xSeq) {
		return nil
	}
	return idx.LookupAt(x, idx.xSeq)
}

// LookupAt is Lookup for the X-value t holds at pos (t[pos[0]], …), such
// as a tuple of the relation at X's positions: the probe copies nothing.
func (idx *AccessIndex) LookupAt(t value.Tuple, pos []int) []IndexEntry {
	g, _ := idx.find(t, pos, hashAt(0, t, pos))
	if g < 0 {
		return nil
	}
	lo, hi := idx.start[g], idx.start[g+1]
	return idx.entries[lo:hi:hi]
}

// Groups yields every group in arena order, for the segment writer and the
// live store's bootstrap and extensions. Callers must not mutate them.
func (idx *AccessIndex) Groups() iter.Seq[[]IndexEntry] {
	return func(yield func([]IndexEntry) bool) {
		for g := range len(idx.start) - 1 {
			if lo, hi := idx.start[g], idx.start[g+1]; !yield(idx.entries[lo:hi:hi]) {
				return
			}
		}
	}
}

// Repeats yields each (X, Y) pair that occurs more than once among the
// tuples the index was built over — tuples must be that sequence again —
// with the positions of all its occurrences in scan order, the witness's
// first. Only the tuples that are no witness are looked up, so the cost is
// a bit test per tuple and a probe per repeat, and an index whose pairs
// all occur once reads nothing. Each slice is allocated to its length and
// belongs to the caller; the index keeps none of them.
func (idx *AccessIndex) Repeats(tuples iter.Seq2[int, value.Tuple]) iter.Seq2[IndexEntry, []int] {
	return func(yield func(IndexEntry, []int) bool) {
		if idx.scanned == len(idx.entries) {
			return
		}
		last := 0
		for _, e := range idx.entries {
			last = max(last, e.Pos())
		}
		witness := make([]uint64, last/64+1)
		for _, e := range idx.entries {
			witness[e.Pos()/64] |= 1 << (e.Pos() % 64)
		}
		// One probe per repeat, in scan order, counted per entry; then a
		// slice per repeated pair, sized by its count, filled in that order.
		reps := make([]repeat, 0, idx.scanned-len(idx.entries))
		count := make([]uint32, len(idx.entries))
		for pos, t := range tuples {
			if pos <= last && witness[pos/64]&(1<<(pos%64)) != 0 {
				continue
			}
			e := idx.entryOf(t)
			if e < 0 {
				panic(fmt.Sprintf("storage: repeats of %s: tuple %d is not indexed; the tuples are not the ones the index was built over", idx.AC, pos))
			}
			count[e]++
			reps = append(reps, repeat{entry: uint32(e), pos: pos})
		}
		var runs [][]int
		for e, c := range count {
			if c > 0 {
				runs = append(runs, append(make([]int, 0, c+1), idx.entries[e].Pos()))
				count[e] = uint32(len(runs)) // from here on, 1 + the entry's run
			}
		}
		for _, r := range reps {
			i := count[r.entry] - 1
			runs[i] = append(runs[i], r.pos)
		}
		for e, c := range count {
			if c > 0 && !yield(idx.entries[e], runs[c-1]) {
				return
			}
		}
	}
}

// entryOf returns the arena index of the entry holding t's (X, Y) pair,
// or -1.
func (idx *AccessIndex) entryOf(t value.Tuple) int {
	g, _ := idx.find(t, idx.xPos, hashAt(0, t, idx.xPos))
	if g < 0 {
		return -1
	}
	for e := idx.start[g]; e < idx.start[g+1]; e++ {
		if sameAt(idx.entries[e].Witness(), idx.yPos, t, idx.yPos) {
			return int(e)
		}
	}
	return -1
}

// find probes the X-table for t's X-value at pos, whose hash is h,
// returning the group (-1: absent) and the slot the probe ended on.
func (idx *AccessIndex) find(t value.Tuple, pos []int, h uint64) (int, uint64) {
	mask := uint64(len(idx.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := idx.slots[i]
		if s == 0 {
			return -1, i
		}
		if g := uint32(s) - 1; s>>32 == h>>32 && sameAt(idx.entries[idx.start[g]].Witness(), idx.xPos, t, pos) {
			return int(g), i
		}
	}
}

// sameAt reports whether w at wPos and t at tPos hold equal values.
func sameAt(w value.Tuple, wPos []int, t value.Tuple, tPos []int) bool {
	for i, p := range wPos {
		if w[p] != t[tPos[i]] {
			return false
		}
	}
	return true
}

var seed = maphash.MakeSeed()

// hashAt continues h over the values t[pos[0]], t[pos[1]], …: one
// multiplication for an integer, maphash for a string.
func hashAt(h uint64, t value.Tuple, pos []int) uint64 {
	for _, p := range pos {
		h = (h ^ t[p].Hash(seed)) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h
}

// tableFor returns an empty slot array for n elements at load ≤ 3/4.
func tableFor(n int) []uint64 {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	return make([]uint64, size)
}

// slot is what a table keeps of element e under hash h.
func slot(h uint64, e int) uint64 { return h>>32<<32 | uint64(e+1) }

// repeat is a tuple at pos whose (X, Y) pair entry holds.
type repeat struct {
	entry uint32
	pos   int
}

// builder is the one way an AccessIndex is made, fed the tuples of a scan
// or the witnesses a segment recorded (IndexRestore). Sized for n tuples,
// which bound the entries and so the groups, it allocates nothing more.
// Until finish, entries are in arrival order and start[g] is the index of
// group g's first entry, so find works unchanged.
type builder struct {
	idx   *AccessIndex
	gid   []uint32 // group of each accepted entry
	sizes []uint32 // entries per group
	hx    []uint64 // X-value hash of each group
	pairs []uint64 // table of the accepted (X, Y) pairs, over entries
}

func newBuilder(rs *schema.Relation, ac schema.AccessConstraint, n int) (*builder, error) {
	xPos, err := rs.Positions(ac.X)
	if err != nil {
		return nil, err
	}
	yPos, err := rs.Positions(ac.Y)
	if err != nil {
		return nil, err
	}
	idx := &AccessIndex{AC: ac, xPos: xPos, xSeq: make([]int, len(xPos)), yPos: yPos,
		entries: make([]IndexEntry, 0, n), start: make([]uint32, 0, n+1), slots: tableFor(n)}
	for i := range idx.xSeq {
		idx.xSeq[i] = i
	}
	return &builder{idx: idx, gid: make([]uint32, 0, n), sizes: make([]uint32, 0, n),
		hx: make([]uint64, 0, n), pairs: tableFor(n)}, nil
}

// add indexes the tuple at pos unless its (X, Y) pair is already in,
// opening its group when its X-value is new and checking N.
func (b *builder) add(pos int, t value.Tuple) error {
	idx := b.idx
	hx := hashAt(0, t, idx.xPos)
	g, at := idx.find(t, idx.xPos, hx)
	if g < 0 {
		g = len(b.sizes)
		idx.slots[at] = slot(hx, g)
		idx.start = append(idx.start, uint32(len(idx.entries)))
		b.sizes = append(b.sizes, 0)
		b.hx = append(b.hx, hx)
	}
	mask := uint64(len(b.pairs) - 1)
	h := hashAt(hx, t, idx.yPos)
	i := h & mask
	for ; b.pairs[i] != 0; i = (i + 1) & mask {
		s := b.pairs[i]
		if e := uint32(s) - 1; s>>32 == h>>32 && int(b.gid[e]) == g && sameAt(idx.entries[e].Witness(), idx.yPos, t, idx.yPos) {
			return nil
		}
	}
	if len(idx.entries) == cap(idx.entries) {
		return fmt.Errorf("storage: index of %s: more than the %d tuples announced", idx.AC, cap(idx.entries))
	}
	b.sizes[g]++
	if n := int64(b.sizes[g]); n > idx.AC.N {
		return &ViolationError{AC: idx.AC, XValue: t.Project(idx.xPos), Distinct: n}
	}
	idx.maxGroup = max(idx.maxGroup, int(b.sizes[g]))
	b.pairs[i] = slot(h, len(idx.entries))
	idx.entries = append(idx.entries, MakeIndexEntry(t, pos))
	b.gid = append(b.gid, uint32(g))
	return nil
}

// finish scatters the entries into the arena and places each group into
// an X-table sized to the groups under the hash it was opened with — the
// groups are distinct, so a free slot is all a group needs.
func (b *builder) finish() *AccessIndex {
	idx := b.idx
	start := make([]uint32, len(b.sizes)+1)
	for g, n := range b.sizes {
		start[g+1] = start[g] + n
	}
	copy(b.sizes, start) // each group's next free slot in the arena
	arena := make([]IndexEntry, len(idx.entries))
	for e, g := range b.gid {
		arena[b.sizes[g]] = idx.entries[e]
		b.sizes[g]++
	}
	idx.entries, idx.start, idx.slots = arena, start, tableFor(len(b.sizes))
	mask := uint64(len(idx.slots) - 1)
	for g, h := range b.hx {
		i := h & mask
		for idx.slots[i] != 0 {
			i = (i + 1) & mask
		}
		idx.slots[i] = slot(h, g)
	}
	return idx
}

// IndexRestore rebuilds the index of one constraint from the witness
// positions a segment file recorded: each goes straight to the builder a
// scan uses (Add), and Install proves the result is what a scan builds.
type IndexRestore struct {
	db  *Database
	rel *Relation
	b   *builder
}

// RestoreIndex begins restoring the index of ac over the database's tuples,
// which must all be loaded.
func (db *Database) RestoreIndex(ac schema.AccessConstraint) (*IndexRestore, error) {
	rel, err := db.Relation(ac.Rel)
	if err != nil {
		return nil, err
	}
	b, err := newBuilder(rel.Schema, ac, len(rel.Tuples))
	if err != nil {
		return nil, err
	}
	return &IndexRestore{db: db, rel: rel, b: b}, nil
}

// Add indexes the witness at a recorded position, checking its range and,
// as a scan does, N.
func (r *IndexRestore) Add(pos int) error {
	if pos < 0 || pos >= len(r.rel.Tuples) {
		return fmt.Errorf("storage: restore %s: witness position %d out of range (relation has %d tuples)", r.b.idx.AC, pos, len(r.rel.Tuples))
	}
	return r.b.add(pos, r.rel.Tuples[pos])
}

// Install finishes the index, checks that a scan builds the same one,
// group order aside, and installs it, sealing the database: every tuple's
// pair must have its entry witnessed at or before the tuple, and every
// witness must follow the one before it in its group. A checksum-valid but
// wrong layout is thus an error, not wrong answers.
func (r *IndexRestore) Install() error {
	idx := r.b.finish()
	for pos, t := range r.rel.Tuples {
		g := idx.LookupAt(t, idx.xPos)
		i := 0
		for i < len(g) && !sameAt(g[i].Witness(), idx.yPos, t, idx.yPos) {
			i++
		}
		if i == len(g) || g[i].Pos() > pos || g[i].Pos() == pos && i > 0 && g[i-1].Pos() > pos {
			return fmt.Errorf("storage: restore %s: tuple %d is not indexed as a scan indexes it", idx.AC, pos)
		}
	}
	idx.scanned = len(r.rel.Tuples)
	r.db.access[idx.AC.Key()] = idx
	r.db.sealed = true
	return nil
}

// AccessIndexFor returns the built index of a constraint, if any. Like
// AccessIndex.Lookup it is an uncounted, layering-oriented accessor.
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
	fresh, err := db.buildMissing(a, nil)
	if err != nil {
		return err
	}
	db.access, db.sealed = fresh, true
	return nil
}

// EnsureIndexes builds the access indexes of the schema that are missing,
// keeping any already built (BuildIndexes instead replaces the whole set).
// Like BuildIndexes it seals the database. The engine uses it so that a
// database loaded through datagen (which indexes its full schema) is not
// re-indexed on engine construction.
func (db *Database) EnsureIndexes(a *schema.AccessSchema) error {
	fresh, err := db.buildMissing(a, db.access)
	if err != nil {
		return err
	}
	maps.Copy(db.access, fresh)
	db.sealed = true
	return nil
}

// Satisfies reports whether D |= A, returning the first violation found.
// It is BuildIndexes without retaining the indexes.
func (db *Database) Satisfies(a *schema.AccessSchema) error {
	_, err := db.buildMissing(a, nil)
	return err
}

// buildMissing builds the index of every constraint of a not in have.
func (db *Database) buildMissing(a *schema.AccessSchema, have map[string]*AccessIndex) (map[string]*AccessIndex, error) {
	out := make(map[string]*AccessIndex, a.Size())
	for _, ac := range a.Constraints() {
		if _, ok := have[ac.Key()]; ok {
			continue
		}
		rel, err := db.Relation(ac.Rel)
		if err != nil {
			return nil, err
		}
		idx, err := BuildAccessIndex(rel, ac)
		if err != nil {
			return nil, err
		}
		out[ac.Key()] = idx
	}
	return out, nil
}

// Fetch probes the access index of a constraint with an X-value and returns
// the distinct Y-entries (at most N). The probe counts one index lookup and
// one fetched tuple per returned entry. xVals must align with the
// constraint's sorted X attribute list. Callers must not mutate the
// returned slice.
func (db *Database) Fetch(ac schema.AccessConstraint, xVals value.Tuple) ([]IndexEntry, error) {
	var out [1][]IndexEntry
	err := db.fetchInto(ac, []value.Tuple{xVals}, out[:])
	return out[0], err
}

// FetchBatch probes the access index of a constraint once per X-tuple and
// returns the entry groups aligned with xs (group i answers xs[i]). It is
// the batched form of Fetch — one index resolution for the whole batch —
// and what the executor issues for each plan operation of a wave. A probe
// of the wrong arity fails the whole batch. Counts one index lookup per
// probe and one fetched tuple per returned entry. Callers must not mutate
// the returned entry slices.
func (db *Database) FetchBatch(ac schema.AccessConstraint, xs []value.Tuple) ([][]IndexEntry, error) {
	out := make([][]IndexEntry, len(xs))
	if err := db.fetchInto(ac, xs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// fetchInto is Fetch for each X-tuple of xs, into out.
func (db *Database) fetchInto(ac schema.AccessConstraint, xs []value.Tuple, out [][]IndexEntry) error {
	idx, ok := db.access[ac.Key()]
	if !ok {
		return fmt.Errorf("storage: no index built for constraint %s", ac)
	}
	var fetched int64
	for i, x := range xs {
		if len(x) != len(ac.X) {
			return fmt.Errorf("storage: constraint %s expects %d lookup values, got %d", ac, len(ac.X), len(x))
		}
		out[i] = idx.Lookup(x)
		fetched += int64(len(out[i]))
	}
	db.stats.indexLookups.Add(int64(len(xs)))
	db.stats.tuplesFetched.Add(fetched)
	rc := db.relCounters(ac.Rel)
	rc.indexLookups.Add(int64(len(xs)))
	rc.tuplesFetched.Add(fetched)
	return nil
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
