package main

import (
	_ "embed"
	"math/rand"
	"sort"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

//go:embed scene.ddl
var sceneDDL string

// Scene sizes. Everything scales from the user count, so the tests run
// the same generator at a few hundred users.
const (
	defaultUsers = 20000
	// bigGroups is how many albums and how many users get a bigGroupSize
	// group: the skew of a real platform, still far below the declared N.
	bigGroups    = 8
	bigGroupSize = 500
	// hubDegree is the friend count of the hub users, the pool deep_scan
	// draws its arguments from: two friend hops from a hub reach a few
	// hundred users, whose albums hold the 500-1500 photos a scan returns.
	hubDegree = 20
)

// scene is the benchmark's data: a seeded social graph under the access
// schema of scene.ddl, plus the few facts about it that the workload
// generators need in order to draw arguments with non-empty answers.
// Group sizes are a function of the entity id alone and only membership
// is drawn from the seed, so per-op counts differ between seeds by
// sampling noise, not by scene shape.
type scene struct {
	cat *schema.Catalog
	acc *schema.AccessSchema

	users, albums, photos int
	// Users [0, bigGroups) have bigGroupSize friends and users
	// [bigGroups, hubs) have hubDegree; albums [0, bigGroups) hold
	// bigGroupSize photos.
	hubs int
	// albumTaggee[a] is a user who is tagged, by one of their own
	// friends, in a photo of album a, and albumLiker[a] a user who likes a
	// photo of album a (-1 if there is none): the argument pairs for which
	// the paper's Q1, and the joins of likes with an album, have answers.
	albumTaggee, albumLiker []int32
}

func newScene(users int) (*scene, error) {
	cat, acc, err := schema.ParseDDL(sceneDDL)
	if err != nil {
		return nil, err
	}
	return &scene{cat: cat, acc: acc, users: users, albums: users * 2 / 5, hubs: users / 25}, nil
}

func (sc *scene) friendCount(u int) int {
	switch {
	case u < bigGroups:
		return min(bigGroupSize, sc.users/4)
	case u < sc.hubs:
		return hubDegree
	default:
		return 4 + u%7
	}
}

func (sc *scene) albumSize(a int) int {
	if a < bigGroups {
		return bigGroupSize
	}
	return 4 + a%17
}

// rows hands out tuples of one arity from a single backing array, so a
// million-row load is five allocations instead of a million.
type rows struct {
	vals  []value.Value
	arity int
}

func newRows(n, arity int) *rows { return &rows{vals: make([]value.Value, 0, n*arity), arity: arity} }

func (r *rows) tuple(ids ...int) value.Tuple {
	if len(r.vals)+r.arity > cap(r.vals) {
		r.vals = make([]value.Value, 0, cap(r.vals)/4+r.arity)
	}
	start := len(r.vals)
	for _, id := range ids {
		r.vals = append(r.vals, value.Int(int64(id)))
	}
	return r.vals[start:len(r.vals):len(r.vals)]
}

// load generates the scene for a seed into a fresh, unsealed database.
func (sc *scene) load(seed int64) (*storage.Database, error) {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase(sc.cat)
	var err error
	insert := func(rel string, t value.Tuple) {
		if err == nil {
			err = db.Insert(rel, t)
		}
	}

	// friends: distinct random friends per user (directed, as in A0).
	friendsOf := make([][]int32, sc.users)
	nFriends := 0
	for u := range friendsOf {
		nFriends += sc.friendCount(u)
	}
	fr := newRows(nFriends, 2)
	for u := range friendsOf {
		n := sc.friendCount(u)
		fs := make([]int32, 0, n)
		seen := make(map[int32]bool, n)
		for len(fs) < n {
			v := int32(rng.Intn(sc.users))
			if int(v) == u || seen[v] {
				continue
			}
			seen[v] = true
			fs = append(fs, v)
			insert("friends", fr.tuple(u, int(v)))
		}
		friendsOf[u] = fs
	}

	// album_owner and in_album: photo ids are handed out album by album.
	owner := make([]int32, sc.albums)
	nPhotos := 0
	for a := range owner {
		nPhotos += sc.albumSize(a)
	}
	ao, ia := newRows(sc.albums, 2), newRows(nPhotos, 2)
	firstPhoto := make([]int, sc.albums+1)
	for a := range owner {
		owner[a] = int32(rng.Intn(sc.users))
		insert("album_owner", ao.tuple(a, int(owner[a])))
		firstPhoto[a+1] = firstPhoto[a] + sc.albumSize(a)
		for p := firstPhoto[a]; p < firstPhoto[a+1]; p++ {
			insert("in_album", ia.tuple(p, a))
		}
	}
	sc.photos = nPhotos

	// tagging: photo p carries p%3 tags. The first taggee is a friend of
	// the album's owner; on even photos the tagger is one of the taggee's
	// own friends, which is what gives Q1 answers (and non-answers).
	tg := newRows(nPhotos, 3)
	sc.albumTaggee = make([]int32, sc.albums)
	for a := range owner {
		sc.albumTaggee[a] = -1
		for p := firstPhoto[a]; p < firstPhoto[a+1]; p++ {
			first := -1
			for k := 0; k < p%3; k++ {
				taggee := rng.Intn(sc.users)
				if fs := friendsOf[owner[a]]; k == 0 {
					taggee = int(fs[rng.Intn(len(fs))])
					first = taggee
				} else if taggee == first {
					continue // (photo, taggee) determines the tagger
				}
				tagger := rng.Intn(sc.users)
				if p%2 == 0 {
					fs := friendsOf[taggee]
					tagger = int(fs[rng.Intn(len(fs))])
					if sc.albumTaggee[a] < 0 {
						sc.albumTaggee[a] = int32(taggee)
					}
				}
				insert("tagging", tg.tuple(p, tagger, taggee))
			}
		}
	}

	// likes: u%13 per user, one in eight on a photo of the big albums.
	lk := newRows(sc.users*6, 2)
	sc.albumLiker = make([]int32, sc.albums)
	for a := range sc.albumLiker {
		sc.albumLiker[a] = -1
	}
	for u := 0; u < sc.users; u++ {
		for k := 0; k < u%13; k++ {
			p := rng.Intn(nPhotos)
			if rng.Intn(8) == 0 {
				p = rng.Intn(firstPhoto[bigGroups])
			}
			insert("likes", lk.tuple(u, p))
			if a := sort.SearchInts(firstPhoto, p+1) - 1; sc.albumLiker[a] < 0 {
				sc.albumLiker[a] = int32(u)
			}
		}
	}
	return db, err
}
