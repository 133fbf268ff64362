package segment

import (
	"os"
	"reflect"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

func testDB(t *testing.T) (*storage.Database, *schema.AccessSchema) {
	t.Helper()
	cat := schema.MustCatalog(
		schema.MustRelation("person", "id", "name", "city"),
		schema.MustRelation("friend", "a", "b"),
	)
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("person", []string{"id"}, []string{"name", "city"}, 2),
		schema.MustAccessConstraint("friend", []string{"a"}, []string{"b"}, 4),
	)
	db := storage.NewDatabase(cat)
	people := []value.Tuple{
		{value.Int(1), value.Str("ada"), value.Str("london")},
		{value.Int(2), value.Str("bob"), value.Str("paris")},
		{value.Int(1), value.Str("ada"), value.Str("london")}, // duplicate: not re-indexed
		{value.Int(3), value.Null, value.Str("rome")},
	}
	for _, p := range people {
		if err := db.Insert("person", p); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []value.Tuple{
		{value.Int(1), value.Int(2)},
		{value.Int(1), value.Int(3)},
		{value.Int(2), value.Int(1)},
	} {
		if err := db.Insert("friend", f); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndexes(acc); err != nil {
		t.Fatal(err)
	}
	return db, acc
}

// sameIndex compares the restored index of a constraint entry-by-entry
// against the original.
func sameIndex(t *testing.T, a, b *storage.Database, ac schema.AccessConstraint) {
	t.Helper()
	ia, ok := a.AccessIndexFor(ac)
	if !ok {
		t.Fatalf("original has no index for %s", ac)
	}
	ib, ok := b.AccessIndexFor(ac)
	if !ok {
		t.Fatalf("restored has no index for %s", ac)
	}
	if ia.NumGroups() != ib.NumGroups() || ia.NumEntries() != ib.NumEntries() || ia.MaxGroup() != ib.MaxGroup() {
		t.Fatalf("%s: shape mismatch: (%d,%d,%d) vs (%d,%d,%d)", ac,
			ia.NumGroups(), ia.NumEntries(), ia.MaxGroup(),
			ib.NumGroups(), ib.NumEntries(), ib.MaxGroup())
	}
	for xKey, entries := range ia.Groups() {
		if !reflect.DeepEqual(ib.Entries(xKey), entries) {
			t.Fatalf("%s: group %q differs", ac, xKey)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	db, acc := testDB(t)
	dir := t.TempDir()
	info, err := Write(dir, db, acc, 7)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if info.Epoch != 7 || info.Bytes == 0 {
		t.Fatalf("info = %+v", info)
	}
	segs := List(dir)
	if len(segs) != 1 || segs[0].Path != info.Path {
		t.Fatalf("List = %+v", segs)
	}

	got, gotAcc, epoch, err := Load(info.Path, db.Catalog())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if epoch != 7 {
		t.Fatalf("epoch = %d", epoch)
	}
	if gotAcc.String() != acc.String() {
		t.Fatalf("schema = %s, want %s", gotAcc, acc)
	}
	if !got.Sealed() {
		t.Fatal("restored database not sealed")
	}
	for _, rs := range db.Catalog().Relations() {
		orig := db.MustRelation(rs.Name()).Tuples
		rest := got.MustRelation(rs.Name()).Tuples
		if len(orig) != len(rest) {
			t.Fatalf("%s: %d tuples restored, want %d", rs.Name(), len(rest), len(orig))
		}
		for i := range orig {
			if !orig[i].Equal(rest[i]) {
				t.Fatalf("%s[%d] = %s, want %s", rs.Name(), i, rest[i], orig[i])
			}
		}
	}
	for _, ac := range acc.Constraints() {
		sameIndex(t, db, got, ac)
	}
	if !reflect.DeepEqual(db.CardStats(), got.CardStats()) {
		t.Fatal("CardStats differ after round trip")
	}
}

// TestCorruptionRejected flips every byte of the file in turn (and
// truncates at several lengths); Load must reject each mutation, never
// return garbage.
func TestCorruptionRejected(t *testing.T) {
	db, acc := testDB(t)
	dir := t.TempDir()
	info, err := Write(dir, db, acc, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}

	mut := Path(dir, 999)
	for i := 0; i < len(data); i++ {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0x20
		if err := os.WriteFile(mut, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Load(mut, db.Catalog()); err == nil {
			t.Fatalf("flip@%d: Load accepted a corrupt segment", i)
		}
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(mut, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Load(mut, db.Catalog()); err == nil {
			t.Fatalf("cut=%d: Load accepted a truncated segment", cut)
		}
	}
}

func TestWriteIsAtomicAndPrunes(t *testing.T) {
	db, acc := testDB(t)
	dir := t.TempDir()
	for epoch := uint64(1); epoch <= 4; epoch++ {
		if _, err := Write(dir, db, acc, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(List(dir)); n != 4 {
		t.Fatalf("%d segments before prune", n)
	}
	Prune(dir, 2)
	segs := List(dir)
	if len(segs) != 2 || segs[0].Epoch != 4 || segs[1].Epoch != 3 {
		t.Fatalf("after prune: %+v", segs)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "" && !reflectNameIsSegment(e.Name()) {
			t.Fatalf("unexpected file %s", e.Name())
		}
	}
}

func reflectNameIsSegment(name string) bool {
	return len(name) == len(namePrefix)+16+len(nameSuffix) &&
		name[:len(namePrefix)] == namePrefix
}
