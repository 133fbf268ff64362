package stats

import "testing"

func TestAvgGroup(t *testing.T) {
	if got := (ACCard{}).AvgGroup(); got != 0 {
		t.Errorf("empty index AvgGroup = %v, want 0", got)
	}
	if got := (ACCard{Groups: 4, Entries: 10}).AvgGroup(); got != 2.5 {
		t.Errorf("AvgGroup = %v, want 2.5", got)
	}
}

func TestMerge(t *testing.T) {
	a := New()
	a.Rels["r"] = RelCard{Rows: 3}
	a.ACs["k"] = ACCard{Groups: 2, Entries: 5, MaxGroup: 3}
	b := New()
	b.Rels["r"] = RelCard{Rows: 4}
	b.Rels["s"] = RelCard{Rows: 1}
	b.ACs["k"] = ACCard{Groups: 1, Entries: 2, MaxGroup: 2}
	m := a.Merge(b)
	if m.Rels["r"].Rows != 7 || m.Rels["s"].Rows != 1 {
		t.Errorf("merged rows = %v", m.Rels)
	}
	if ac := m.ACs["k"]; ac.Groups != 3 || ac.Entries != 7 || ac.MaxGroup != 3 {
		t.Errorf("merged AC = %+v", ac)
	}
}

func TestFingerprintQuantization(t *testing.T) {
	s := New()
	s.ACs["k"] = ACCard{Groups: 100, Entries: 200} // avg 2
	base := s.Fingerprint([]string{"k"})

	// Small drift (avg 2 → 3.9, same power-of-two bucket) keeps the
	// fingerprint stable; a ~2× drift moves it.
	s.ACs["k"] = ACCard{Groups: 100, Entries: 390}
	if got := s.Fingerprint([]string{"k"}); got != base {
		t.Errorf("sub-threshold drift changed fingerprint: %q vs %q", got, base)
	}
	s.ACs["k"] = ACCard{Groups: 100, Entries: 800} // avg 8
	if got := s.Fingerprint([]string{"k"}); got == base {
		t.Errorf("4× drift kept fingerprint %q", got)
	}

	// Key order does not matter; unknown keys render distinctly from
	// present ones.
	s.ACs["j"] = ACCard{Groups: 1, Entries: 1}
	if s.Fingerprint([]string{"j", "k"}) != s.Fingerprint([]string{"k", "j"}) {
		t.Error("fingerprint depends on key order")
	}
	if s.Fingerprint([]string{"missing"}) == s.Fingerprint([]string{"j"}) {
		t.Error("missing key indistinguishable from a present one")
	}

	// The rendering itself, byte for byte (recorded before Fingerprint
	// stopped going through fmt): sorted keys, ';' between constraints,
	// negative and empty buckets, "-" for a key the snapshot lacks, and
	// the caller's slice left in the order it came in.
	lit := New()
	lit.ACs["friends|user_id|friend_id|5000"] = ACCard{Groups: 20000, Entries: 130000} // avg 6.5
	lit.ACs["album_owner|album_id|user_id|1"] = ACCard{Groups: 8000, Entries: 8000}    // avg 1
	lit.ACs["sparse||y|9"] = ACCard{Groups: 3, Entries: 1}                             // avg 1/3
	lit.ACs["empty|x|y|7"] = ACCard{}
	for _, tc := range []struct {
		keys []string
		want string
	}{
		{nil, ""},
		{[]string{"friends|user_id|friend_id|5000"}, "friends|user_id|friend_id|5000=2,14"},
		{[]string{"album_owner|album_id|user_id|1", "friends|user_id|friend_id|5000"},
			"album_owner|album_id|user_id|1=0,12;friends|user_id|friend_id|5000=2,14"},
		{[]string{"sparse||y|9", "missing|a|b|2", "empty|x|y|7"},
			"empty|x|y|7=-2147483648,-2147483648;missing|a|b|2=-;sparse||y|9=-2,1"},
	} {
		in := append([]string(nil), tc.keys...)
		if got := lit.Fingerprint(in); got != tc.want {
			t.Errorf("Fingerprint(%q) = %q, want %q", tc.keys, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.keys[i] {
				t.Errorf("Fingerprint reordered its argument: %q, was %q", in, tc.keys)
				break
			}
		}
	}
}

// TestShapeIsWhatFingerprintRenders: two cards of one constraint — either
// possibly absent — have equal shapes exactly when their one-key
// fingerprints agree, so comparing shapes (the engine's drift check) and
// comparing fingerprints are one test.
func TestShapeIsWhatFingerprintRenders(t *testing.T) {
	type card struct {
		c  ACCard
		ok bool
	}
	cards := []card{{ACCard{}, false}}
	for _, c := range []ACCard{
		{}, {Groups: 1, Entries: 1}, {Groups: 3, Entries: 1}, {Groups: 100, Entries: 200},
		{Groups: 100, Entries: 390}, {Groups: 100, Entries: 800}, {Groups: 200, Entries: 400},
	} {
		cards = append(cards, card{c, true})
	}
	fp := func(c card) string {
		s := New()
		if c.ok {
			s.ACs["k"] = c.c
		}
		if s.Shape("k") != ShapeOf(c.c, c.ok) {
			t.Errorf("Snapshot.Shape and ShapeOf disagree on %+v", c)
		}
		return s.Fingerprint([]string{"k"})
	}
	for _, a := range cards {
		for _, b := range cards {
			if (ShapeOf(a.c, a.ok) == ShapeOf(b.c, b.ok)) != (fp(a) == fp(b)) {
				t.Errorf("%+v vs %+v: shapes equal %v, fingerprints %q and %q",
					a, b, ShapeOf(a.c, a.ok) == ShapeOf(b.c, b.ok), fp(a), fp(b))
			}
		}
	}
}
