package segment

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

func testDB(t testing.TB) (*storage.Database, *schema.AccessSchema) {
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
func sameIndex(t testing.TB, a, b *storage.Database, ac schema.AccessConstraint) {
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
	for g := range ia.Groups() {
		x := g[0].Witness().Project(xPos(t, a, ac))
		if got := ib.Lookup(x); !slices.EqualFunc(got, g, sameEntry) {
			t.Fatalf("%s: group %s is %v, want %v", ac, x, got, g)
		}
	}
}

// sameEntry: the same position and an equal witness, every column of it.
func sameEntry(a, b storage.IndexEntry) bool {
	return a.Pos() == b.Pos() && a.Witness().Equal(b.Witness())
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

// xPos returns the relation positions of a constraint's X attributes.
func xPos(t testing.TB, db *storage.Database, ac schema.AccessConstraint) []int {
	t.Helper()
	p, err := db.MustRelation(ac.Rel).Schema.Positions(ac.X)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// seal frames a segment body — everything between the header magic and
// the checksum — as a file Load accepts up to the body's own contents.
func seal(body []byte) []byte {
	data := append([]byte(headMagic), body...)
	data = binary.BigEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
	return append(data, footMagic...)
}

// friendBody is the body of a segment over testDB's catalog recording the
// constraint friend: a → (b, n) — its attribute lists from byte
// 20+len("friend") on — the friend tuples (1, 2) and (1, 3), and an index
// block of the given bytes.
func friendBody(n uint64, block []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, formatVersion)
	b = binary.BigEndian.AppendUint64(b, 1)
	b = binary.BigEndian.AppendUint32(b, 1)
	b = value.AppendStr(b, "friend")
	b = value.AppendStr(binary.BigEndian.AppendUint32(b, 1), "a")
	b = value.AppendStr(binary.BigEndian.AppendUint32(b, 1), "b")
	b = binary.BigEndian.AppendUint64(b, n)
	b = binary.BigEndian.AppendUint32(b, 1)
	b = value.AppendStr(b, "friend")
	b = binary.BigEndian.AppendUint32(b, 2)
	b = binary.BigEndian.AppendUint64(b, 2)
	b = value.Tuple{value.Int(1), value.Int(2), value.Int(1), value.Int(3)}.AppendKey(b)
	b = binary.BigEndian.AppendUint32(b, 1)
	return append(b, block...)
}

// u32s encodes big-endian words.
func u32s(ws ...uint32) []byte {
	var b []byte
	for _, w := range ws {
		b = binary.BigEndian.AppendUint32(b, w)
	}
	return b
}

// regressionBodies are crafted checksum-valid bodies that once made Load
// panic, ask for gigabytes, or report an unnamed group; each must now be
// refused with a plain error. testdata/fuzz/FuzzLoad holds each as a seed,
// beside a valid small segment and the inputs the fuzzer found.
var regressionBodies = map[string][]byte{
	// 2^40 groups claimed by a block of 12 bytes.
	"huge group count": friendBody(4, append(binary.BigEndian.AppendUint64(nil, 1<<40), u32s(1, 0)...)),
	// One group claiming 2^31 entries.
	"huge entry count": friendBody(4, append(binary.BigEndian.AppendUint64(nil, 1), u32s(1<<31, 0, 1)...)),
	// A constraint claiming 2^32-1 X attributes.
	"huge attribute count": append(friendBody(4, nil)[:20+len("friend")], u32s(1<<32-1, 0)...),
	// Both friends of 1 under a bound of one.
	"over-N group": friendBody(1, append(binary.BigEndian.AppendUint64(nil, 1), u32s(2, 0, 1)...)),
}

// TestLoadRefusesCraftedCounts: counts a crafted file claims are bounded
// by the bytes it has before anything is allocated for them, and a group
// past its bound is refused by name.
func TestLoadRefusesCraftedCounts(t *testing.T) {
	db, _ := testDB(t)
	path := filepath.Join(t.TempDir(), "seg.bcq")
	for name, body := range regressionBodies {
		if err := os.WriteFile(path, seal(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := Load(path, db.Catalog())
		if err == nil {
			t.Fatalf("%s: Load accepted the segment", name)
		}
		var v *storage.ViolationError
		if name == "over-N group" && (!errors.As(err, &v) || !v.XValue.Equal(value.Tuple{value.Int(1)}) || !strings.Contains(err.Error(), "X-value (1)")) {
			t.Errorf("%s: error %v does not name the X-value (1)", name, err)
		}
	}
	// The same body under a bound of two is a good segment.
	if err := os.WriteFile(path, seal(friendBody(2, append(binary.BigEndian.AppendUint64(nil, 1), u32s(2, 0, 1)...))), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Load(path, db.Catalog()); err != nil {
		t.Fatalf("well-formed crafted segment: %v", err)
	}
}

// FuzzLoad: whatever the body of a checksum-valid segment, Load returns an
// error or a database equal to a rebuild from its own tuples, group order
// aside — which includes D |= A — and never panics. The checksum is
// recomputed over each mutated body, so mutations reach the decoder.
func FuzzLoad(f *testing.F) {
	db, acc := testDB(f)
	info, err := Write(f.TempDir(), db, acc, 1)
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(info.Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[len(headMagic) : len(data)-4-len(footMagic)])
	cat := db.Catalog()
	path := filepath.Join(f.TempDir(), "seg.bcq")
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, seal(body), 0o644); err != nil {
			t.Fatal(err)
		}
		got, gotAcc, _, err := Load(path, cat)
		if err != nil {
			return
		}
		want := storage.NewDatabase(cat)
		for _, rs := range cat.Relations() {
			for _, tu := range got.MustRelation(rs.Name()).Tuples {
				if err := want.Insert(rs.Name(), tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := want.BuildIndexes(gotAcc); err != nil {
			t.Fatalf("Load accepted a database outside its access schema: %v", err)
		}
		for _, ac := range gotAcc.Constraints() {
			sameIndex(t, want, got, ac)
		}
		if !reflect.DeepEqual(want.CardStats(), got.CardStats()) {
			t.Fatal("CardStats differ from a rebuild")
		}
	})
}
