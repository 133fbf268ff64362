package storage

import (
	"fmt"

	"bcq/internal/schema"
	"bcq/internal/value"
)

// This file is the database's serialization boundary: what the segment
// file format (internal/segment) needs, beside AccessIndex.Groups, to
// reconstruct a sealed database without re-scanning the data. Tuples are
// stored once per relation; an access index serializes as, per X-group,
// the witness positions of its entries — which is all an in-memory entry
// holds too (IndexEntry), so positions are the whole index.

// RestoreIndexes installs access indexes from their serialized group
// layout — for each constraint key, the witness-position groups a segment
// file recorded — and seals the database, exactly as BuildIndexes would
// have. Each entry names the tuple at its recorded position, so a restored
// index is structurally identical to the one BuildAccessIndex produced before
// the checkpoint (same witnesses, same in-group order, same counts).
// Positions are validated against the relation and each group is checked
// for X-key coherence and the constraint's bound, so a corrupted-but-
// checksum-valid layout is rejected rather than loaded as garbage.
func (db *Database) RestoreIndexes(a *schema.AccessSchema, groups map[string][][]int) error {
	fresh := make(map[string]*AccessIndex, a.Size())
	for _, ac := range a.Constraints() {
		rel, err := db.Relation(ac.Rel)
		if err != nil {
			return err
		}
		xPos, err := rel.Schema.Positions(ac.X)
		if err != nil {
			return err
		}
		idx := &AccessIndex{AC: ac, m: make(map[string][]IndexEntry)}
		for _, g := range groups[ac.Key()] {
			if len(g) == 0 {
				return fmt.Errorf("storage: restore %s: empty index group", ac)
			}
			if int64(len(g)) > ac.N {
				return &ViolationError{AC: ac, XValue: nil, Distinct: int64(len(g))}
			}
			entries := make([]IndexEntry, 0, len(g))
			var xk string
			for i, pos := range g {
				if pos < 0 || pos >= len(rel.Tuples) {
					return fmt.Errorf("storage: restore %s: witness position %d out of range (relation has %d tuples)", ac, pos, len(rel.Tuples))
				}
				w := rel.Tuples[pos]
				k := value.KeyOf(w, xPos)
				if i == 0 {
					xk = k
				} else if k != xk {
					return fmt.Errorf("storage: restore %s: index group mixes X-keys", ac)
				}
				entries = append(entries, IndexEntry{Witness: w, Pos: pos})
			}
			if _, dup := idx.m[xk]; dup {
				return fmt.Errorf("storage: restore %s: duplicate index group", ac)
			}
			idx.m[xk] = entries
			idx.entries += int64(len(entries))
			if len(entries) > idx.maxGroup {
				idx.maxGroup = len(entries)
			}
		}
		fresh[ac.Key()] = idx
	}
	db.access = fresh
	db.sealed = true
	return nil
}
