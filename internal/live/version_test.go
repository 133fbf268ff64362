package live

import (
	"testing"

	"bcq/internal/schema"
	"bcq/internal/value"
)

// wordValues reads every version word of a store.
func wordValues(st *Store) []uint64 {
	out := make([]uint64, len(st.words))
	for i := range st.words {
		out[i] = st.words[i].Load()
	}
	return out
}

// movedWords maps each word that differs between two readings to its new
// value.
func movedWords(before, after []uint64) map[uint32]uint64 {
	out := map[uint32]uint64{}
	for i := range after {
		if after[i] != before[i] {
			out[uint32(i)] = after[i]
		}
	}
	return out
}

// TestVersionWordsFollowCommits: a commit stamps its epoch into the words
// of the groups it rewrote — an insert's, a delete's, on every constraint
// of the relation — and of the relations whose emptiness it flipped, and
// into no other word; a Compact stamps none; an ExtendAccess raises every
// word to its epoch.
func TestVersionWordsFollowCommits(t *testing.T) {
	st := liveSocial(t, Options{})
	friends := schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000).Key()
	tagging := schema.MustAccessConstraint("tagging", []string{"photo_id", "taggee_id"}, []string{"tagger_id"}, 1).Key()
	snap := st.Snapshot()
	word := func(acKey string, x ...string) uint32 {
		return AppendGroupWords(nil, acKey, []value.Tuple{strs(x...)})[0]
	}

	expect := func(what string, before []uint64, epoch uint64, words ...uint32) {
		t.Helper()
		want := map[uint32]uint64{}
		for _, w := range words {
			want[w] = epoch
		}
		got := movedWords(before, wordValues(st))
		if len(got) != len(want) {
			t.Fatalf("%s moved words %v, want %v", what, got, want)
		}
		for w, e := range want {
			if got[w] != e {
				t.Fatalf("%s moved words %v, want %v", what, got, want)
			}
		}
	}

	before := wordValues(st)
	e, err := st.Apply([]Op{Insert("in_album", strs("p5", "a1")), Delete("friends", strs("u0", "f2"))})
	if err != nil {
		t.Fatal(err)
	}
	expect("an insert and a delete", before, e,
		word(inAlbumAC().Key(), "a1"), word(friends, "u0"))

	// A duplicate of a live tuple rewrites no group: the answer of every
	// probe is what it was.
	before = wordValues(st)
	if _, err := st.Apply([]Op{Insert("in_album", strs("p5", "a1"))}); err != nil {
		t.Fatal(err)
	}
	expect("a duplicate insert", before, 0)

	// Emptying tagging flips its emptiness, and refilling it flips it back.
	before = wordValues(st)
	e, err = st.Apply([]Op{
		Delete("tagging", strs("p1", "f1", "u0")), Delete("tagging", strs("p2", "s9", "u0")),
		Delete("tagging", strs("p4", "f2", "u0")), Delete("tagging", strs("p3", "f1", "u0")),
	})
	if err != nil {
		t.Fatal(err)
	}
	expect("emptying tagging", before, e, snap.RelWord("tagging"),
		word(tagging, "p1", "u0"), word(tagging, "p2", "u0"),
		word(tagging, "p4", "u0"), word(tagging, "p3", "u0"))
	before = wordValues(st)
	e, err = st.Apply([]Op{Insert("tagging", strs("p9", "f1", "u3"))})
	if err != nil {
		t.Fatal(err)
	}
	expect("refilling tagging", before, e, snap.RelWord("tagging"), word(tagging, "p9", "u3"))

	before = wordValues(st)
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	expect("a compaction", before, 0)

	if err := st.ExtendAccess(schema.MustAccessConstraint("tagging", []string{"tagger_id"}, []string{"photo_id"}, 50)); err != nil {
		t.Fatal(err)
	}
	e = st.Epoch()
	for w, v := range wordValues(st) {
		if v != e {
			t.Fatalf("after an extension to epoch %d, word %d holds %d", e, w, v)
		}
	}
}
