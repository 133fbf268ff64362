package spc

import "testing"

// FuzzParseRoundTrip: Parse never panics, and a query it accepts renders
// (Query.String) to text that parses again and renders the same. The
// engine's plan-cache fingerprint is that rendering, so a query whose
// rendering drifted across a round trip would be planned twice.
// Run it with
//
//	go test -run '^$' -fuzz '^FuzzParseRoundTrip$' -fuzztime 20s ./internal/spc/
//
// A failing input lands in testdata/fuzz/FuzzParseRoundTrip/ as its
// regression seed.
func FuzzParseRoundTrip(f *testing.F) {
	for _, src := range []string{
		q0Source, q1Source,
		"select exists from friends where friends.user_id = 1",
		"select f1.friend_id from friends as f1, friends as f2 where f1.friend_id = f2.user_id",
		"select photo_id as p from in_album where album_id = ? and photo_id = -7",
		"select t.photo_id from tagging t where t.tagger_id = 'it''s' and t.taggee_id = ''",
		"-- comment\nSELECT user_id FROM friends WHERE friend_id = null",
		"select x.user_id from friends as x, in_album where x.user_id = album_id",
	} {
		f.Add(src)
	}
	cat := socialCatalog()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src, cat)
		if err != nil {
			return
		}
		text := q.String()
		q2, err := Parse(text, cat)
		if err != nil {
			t.Fatalf("Parse(%q) accepted; its rendering %q does not parse: %v", src, text, err)
		}
		if again := q2.String(); again != text {
			t.Fatalf("Parse(%q) renders unstably:\n  %s\n  %s", src, text, again)
		}
	})
}
