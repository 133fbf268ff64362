package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"bcq/internal/live"
	"bcq/internal/value"
)

// The four workloads. Each is a closed loop: a client sends its next
// request only after the previous one returned.
const (
	wlHotPoint    = "hot_point"
	wlDeepScan    = "deep_scan"
	wlAdhocShapes = "adhoc_shapes"
	wlIngestChurn = "ingest_churn"
)

var workloadNames = []string{wlHotPoint, wlDeepScan, wlAdhocShapes, wlIngestChurn}

// clientsOf is the number of client goroutines a workload runs.
// hot_point is the only one with two, and so the only one in which
// requests contend for the server's locks.
func clientsOf(workload string) int {
	if workload == wlHotPoint {
		return 2
	}
	return 1
}

type opKind uint8

const (
	opQuery   opKind = iota // one POST /query
	opScan                  // POST /query with a limit, paged to exhaustion
	opIngest                // one POST /ingest batch
	opCompact               // the operator's checkpoint, Store.Compact: scheduled by the harness, not drawn
)

// op is one client operation. body is valid until the generator's next
// call; a caller that keeps an op copies it.
type op struct {
	kind opKind
	body []byte
	// text and args are the query behind body, for the traced replay and
	// the correctness pass. twin is set on a shape no request has used
	// before, which the plan cache cannot hold: another such shape.
	text string
	args []value.Value
	twin string
	// batch is the write behind an opIngest body.
	batch []live.Op
	// expect, when set, is the exact "tuples" fragment the response must
	// contain: the answer is known from the writes that preceded it.
	expect []byte
}

// template is a parameterised query whose request prefix is rendered
// once, so that building a request appends only the arguments.
type template struct {
	text   string
	prefix []byte // {"query":"...","args":[
	suffix string // ] plus the limit for scans, then }
}

func newTemplate(text, suffix string) template {
	q, _ := json.Marshal(text)
	return template{text: text, prefix: append(append([]byte(`{"query":`), q...), `,"args":[`...), suffix: suffix}
}

func (t *template) render(buf []byte, args ...int) []byte {
	buf = append(buf[:0], t.prefix...)
	for i, a := range args {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(a), 10)
	}
	return append(buf, t.suffix...)
}

func intArgs(dst []value.Value, args ...int) []value.Value {
	dst = dst[:0]
	for _, a := range args {
		dst = append(dst, value.Int(int64(a)))
	}
	return dst
}

func intTuple(ids ...int) value.Tuple { return intArgs(nil, ids...) }

// q1 is the paper's Q1: photos of an album in which a user was tagged by
// one of their friends.
const q1 = "select t1.photo_id from in_album as t1, friends as t2, tagging as t3" +
	" where t1.album_id = ? and t2.user_id = ? and t1.photo_id = t3.photo_id" +
	" and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id"

// hotTemplates are hot_point's eight point lookups of one to three fetch
// steps and about ten answer rows. byAlbum says which kind of entity the
// first argument is; q1 takes the album's tagged user as its second.
var hotTemplates = []struct {
	text    string
	byAlbum bool
}{
	{"select photo_id from in_album where album_id = ?", true},
	{"select friend_id from friends where user_id = ?", false},
	{"select user_id from album_owner where album_id = ?", true},
	{"select album_id from album_owner where user_id = ?", false},
	{q1, true},
	{"select t2.photo_id from album_owner as t1, in_album as t2 where t1.user_id = ? and t1.album_id = t2.album_id", false},
	{"select photo_id from likes where user_id = ?", false},
	{"select t2.album_id from friends as t1, album_owner as t2 where t1.user_id = ? and t1.friend_id = t2.user_id", false},
}

const (
	friendsOfUser = 1 // index in hotTemplates
	q1Template    = 4
	// zipfS is the skew of hot_point's arguments: with 4096 result-cache
	// entries shared by eight templates, about four requests in five find
	// their answer cached.
	zipfS = 1.2
	// stride spreads Zipf ranks over the id space, so that the hot
	// arguments are not the low ids.
	stride = 7919
)

// hotGen draws hot_point requests: a uniform template and a Zipf
// argument among the ordinary users and albums (the hubs and the big
// groups are left to deep_scan).
type hotGen struct {
	sc     *scene
	rng    *rand.Rand
	users  *rand.Zipf
	albums *rand.Zipf
	tmpl   []template
	buf    []byte
	args   []value.Value
	cur    op
}

func newHotGen(sc *scene, seed int64) *hotGen {
	g := &hotGen{sc: sc, rng: rand.New(rand.NewSource(seed))}
	g.users = rand.NewZipf(g.rng, zipfS, 1, uint64(sc.users-sc.hubs-1))
	g.albums = rand.NewZipf(g.rng, zipfS, 1, uint64(sc.albums-bigGroups-1))
	for _, t := range hotTemplates {
		g.tmpl = append(g.tmpl, newTemplate(t.text, "]}"))
	}
	return g
}

func (g *hotGen) next() *op {
	k := g.rng.Intn(len(g.tmpl))
	t := &g.tmpl[k]
	g.cur = op{kind: opQuery, text: t.text}
	switch {
	case k == q1Template:
		a := g.album()
		u := int(g.sc.albumTaggee[a])
		if u < 0 {
			u = g.user()
		}
		g.buf, g.args = t.render(g.buf, a, u), intArgs(g.args, a, u)
	case hotTemplates[k].byAlbum:
		a := g.album()
		g.buf, g.args = t.render(g.buf, a), intArgs(g.args, a)
	default:
		u := g.user()
		g.buf, g.args = t.render(g.buf, u), intArgs(g.args, u)
	}
	g.cur.body, g.cur.args = g.buf, g.args
	return &g.cur
}

func (g *hotGen) user() int {
	n := g.sc.users - g.sc.hubs
	return g.sc.hubs + int(g.users.Uint64()*stride%uint64(n))
}

func (g *hotGen) album() int {
	n := g.sc.albums - bigGroups
	return bigGroups + int(g.albums.Uint64()*stride%uint64(n))
}

// scanPageSize is the limit deep_scan asks for; its answers fill three
// to eight such pages.
const scanPageSize = 200

// scanTemplates are deep_scan's joins from a hub user: the photos in the
// albums of friends of friends in four fetch steps, and the same photos
// with their album's owner in five. In both, the late steps probe few
// groups and fetch large ones, so a scan takes the executor a few
// batched waves and about ten milliseconds; a step that probes once per
// photo costs the wave-at-a-time executor a hundred times that, which
// would leave a run too few scans to take a steady percentile from.
var scanTemplates = []string{
	"select t4.photo_id from friends as t1, friends as t2, album_owner as t3, in_album as t4" +
		" where t1.user_id = ? and t1.friend_id = t2.user_id and t2.friend_id = t3.user_id and t3.album_id = t4.album_id",
	"select t4.photo_id, t5.user_id from friends as t1, friends as t2, album_owner as t3, in_album as t4, album_owner as t5" +
		" where t1.user_id = ? and t1.friend_id = t2.user_id and t2.friend_id = t3.user_id and t3.album_id = t4.album_id" +
		" and t4.album_id = t5.album_id",
}

// scanGen draws deep_scan requests: a uniform template and a uniform hub
// user, so that no two scans in a run are likely to share an answer.
type scanGen struct {
	sc   *scene
	rng  *rand.Rand
	tmpl []template
	buf  []byte
	args []value.Value
	cur  op
}

func newScanGen(sc *scene, seed int64) *scanGen {
	g := &scanGen{sc: sc, rng: rand.New(rand.NewSource(seed))}
	for _, text := range scanTemplates {
		g.tmpl = append(g.tmpl, newTemplate(text, fmt.Sprintf(`],"limit":%d}`, scanPageSize)))
	}
	return g
}

func (g *scanGen) next() *op {
	t := &g.tmpl[g.rng.Intn(len(g.tmpl))]
	u := bigGroups + g.rng.Intn(g.sc.hubs-bigGroups)
	g.buf, g.args = t.render(g.buf, u), intArgs(g.args, u)
	g.cur = op{kind: opScan, text: t.text, body: g.buf, args: g.args}
	return &g.cur
}

// adhocShapes are adhoc_shapes' twelve families of three to six atoms:
// questions about one album and one or two users, whose literals are
// inlined, so that every request has a fingerprint of its own. Two
// literals pin most atoms down, so an answer takes a handful of fetches
// however many atoms the shape has, while parsing, analysis and planning
// grow with the atoms. %[1]d is a user, %[2]d an album, %[3]d a second
// user; pick says which user makes the first one's answers non-empty.
var adhocShapes = []struct {
	pick userPick
	text string
}{
	// 3 atoms
	{taggee, "select t1.photo_id from in_album as t1, friends as t2, tagging as t3 where t1.album_id = %[2]d and t2.user_id = %[1]d" +
		" and t1.photo_id = t3.photo_id and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id"},
	{liker, "select t1.photo_id, t3.user_id from in_album as t1, likes as t2, album_owner as t3 where t1.album_id = %[2]d and t2.user_id = %[1]d" +
		" and t2.photo_id = t1.photo_id and t3.album_id = t1.album_id"},
	{anyUser, "select t3.photo_id from album_owner as t1, friends as t2, likes as t3 where t1.album_id = %[2]d and t2.user_id = %[1]d" +
		" and t2.friend_id = t1.user_id and t3.user_id = t1.user_id"},
	{anyUser, "select t3.album_id from friends as t1, friends as t2, album_owner as t3 where t1.user_id = %[1]d and t2.user_id = %[3]d" +
		" and t1.friend_id = t2.friend_id and t3.user_id = t1.friend_id"},
	// 4 atoms
	{anyUser, "select t4.photo_id from album_owner as t1, friends as t2, album_owner as t3, in_album as t4 where t1.album_id = %[2]d" +
		" and t1.user_id = t2.user_id and t2.friend_id = t3.user_id and t3.album_id = t4.album_id"},
	{taggee, "select t1.photo_id, t4.user_id from in_album as t1, friends as t2, tagging as t3, album_owner as t4" +
		" where t1.album_id = %[2]d and t2.user_id = %[1]d and t1.photo_id = t3.photo_id" +
		" and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id and t4.album_id = t1.album_id"},
	{liker, "select t3.user_id, t1.photo_id from in_album as t1, likes as t2, likes as t3, friends as t4 where t1.album_id = %[2]d" +
		" and t2.user_id = %[1]d and t2.photo_id = t1.photo_id and t3.photo_id = t2.photo_id and t4.user_id = %[1]d and t4.friend_id = t3.user_id"},
	{liker, "select t3.photo_id from album_owner as t1, album_owner as t2, in_album as t3, likes as t4 where t1.album_id = %[2]d" +
		" and t2.user_id = t1.user_id and t3.album_id = t2.album_id and t4.user_id = %[1]d and t4.photo_id = t3.photo_id"},
	// 5 atoms
	{liker, "select t3.photo_id, t5.friend_id from album_owner as t1, album_owner as t2, in_album as t3, likes as t4, friends as t5" +
		" where t1.album_id = %[2]d and t2.user_id = t1.user_id and t3.album_id = t2.album_id and t4.user_id = %[1]d" +
		" and t4.photo_id = t3.photo_id and t5.user_id = %[1]d and t5.friend_id = t1.user_id"},
	{anyUser, "select t5.photo_id from album_owner as t1, friends as t2, friends as t3, album_owner as t4, in_album as t5" +
		" where t1.album_id = %[2]d and t2.user_id = t1.user_id and t3.user_id = %[1]d and t3.friend_id = t2.friend_id" +
		" and t4.user_id = t2.friend_id and t5.album_id = t4.album_id"},
	// 6 atoms
	{taggee, "select t1.photo_id, t6.album_id from in_album as t1, friends as t2, tagging as t3, album_owner as t4, friends as t5, album_owner as t6" +
		" where t1.album_id = %[2]d and t2.user_id = %[1]d and t1.photo_id = t3.photo_id and t3.tagger_id = t2.friend_id" +
		" and t3.taggee_id = t2.user_id and t4.album_id = t1.album_id and t5.user_id = t4.user_id and t5.friend_id = t3.tagger_id" +
		" and t6.user_id = t3.tagger_id"},
	{anyUser, "select t6.photo_id from album_owner as t1, friends as t2, friends as t3, album_owner as t4, in_album as t5, likes as t6" +
		" where t1.album_id = %[2]d and t2.user_id = t1.user_id and t3.user_id = %[1]d and t3.friend_id = t2.friend_id" +
		" and t4.user_id = t2.friend_id and t5.album_id = t4.album_id and t6.user_id = %[3]d and t6.photo_id = t5.photo_id"},
}

type userPick uint8

const (
	anyUser userPick = iota
	taggee           // a user tagged in the album by a friend
	liker            // a user who likes a photo of the album
)

// adhocGen draws adhoc_shapes requests. The families take turns, and the
// k-th request takes the k-th album and users of arithmetic walks over
// the ordinary ids: uniform over them, and never the same literals twice
// within the plan cache's memory. Each round of the families starts one
// family later than the last: the number of families divides the number
// of albums, so with a fixed order a family would meet the same twelfth
// of the albums all run long, a twelfth that the seed picks.
type adhocGen struct {
	sc          *scene
	k           int
	user, album int // where the walks start
	buf         []byte
	cur         op
}

func newAdhocGen(sc *scene, seed int64) *adhocGen {
	rng := rand.New(rand.NewSource(seed))
	return &adhocGen{sc: sc, user: rng.Intn(sc.users), album: rng.Intn(sc.albums)}
}

func (g *adhocGen) next() *op {
	shape := &adhocShapes[(g.k+g.k/len(adhocShapes))%len(adhocShapes)]
	nu, na := g.sc.users-g.sc.hubs, g.sc.albums-bigGroups
	u := g.sc.hubs + (g.user+g.k*stride)%nu
	v := g.sc.hubs + (g.user+g.k*stride+nu/2)%nu
	a := bigGroups + (g.album+g.k*stride)%na
	g.k++
	switch {
	case shape.pick == taggee && g.sc.albumTaggee[a] >= 0:
		u = int(g.sc.albumTaggee[a])
	case shape.pick == liker && g.sc.albumLiker[a] >= 0:
		u = int(g.sc.albumLiker[a])
	}
	text := fmt.Sprintf(shape.text, u, a, v)
	q, _ := json.Marshal(text)
	g.buf = append(append(append(g.buf[:0], `{"query":`...), q...), '}')
	// The twin is the same shape over ids nobody has: a second never-seen
	// fingerprint, on which the traced run times a cold prepare.
	off := 4 * g.sc.users * g.k // past every id, and another for every request
	g.cur = op{kind: opQuery, text: text, body: g.buf, twin: fmt.Sprintf(shape.text, u+off, a+off, v+off)}
	return &g.cur
}

const (
	// readsPerCycle and deleteLag shape ingest_churn's cycle: one batch of
	// eight inserts and the deletes of the batch deleteLag cycles back,
	// then readsPerCycle reads, the last of which asks for what the batch
	// just wrote.
	readsPerCycle = 8
	deleteLag     = 64
)

// churnGen draws ingest_churn's cycle. Cycle c writes a new user, album
// and photo with ids above the scene's, so no group approaches its N,
// the store's size is steady once deleteLag cycles have passed, and the
// answers of the hot_point reads do not depend on when they are asked.
type churnGen struct {
	sc    *scene
	rng   *rand.Rand
	reads *hotGen
	cycle int
	step  int // position in the cycle: 0 is the write
	ring  [deleteLag][]live.Op
	// wrote is the friend list the current cycle gave its new user.
	wrote  [3]int
	ryw    template
	buf    []byte
	expect []byte
	args   []value.Value
	cur    op
}

func newChurnGen(sc *scene, seed int64) *churnGen {
	return &churnGen{
		sc:    sc,
		rng:   rand.New(rand.NewSource(seed)),
		reads: newHotGen(sc, seed+1),
		ryw:   newTemplate(hotTemplates[friendsOfUser].text, "]}"),
	}
}

func (g *churnGen) next() *op {
	step := g.step
	g.step = (g.step + 1) % (1 + readsPerCycle)
	switch {
	case step == 0:
		g.write()
	case step < readsPerCycle:
		return g.reads.next()
	default:
		// Read your writes: the friends of the user this cycle added.
		u := g.sc.users + g.cycle - 1
		g.buf, g.args = g.ryw.render(g.buf, u), intArgs(g.args, u)
		fs := g.wrote
		g.expect = fmt.Appendf(g.expect[:0], `"tuples":[[%d],[%d],[%d]]`, fs[0], fs[1], fs[2])
		g.cur = op{kind: opQuery, text: g.ryw.text, body: g.buf, args: g.args, expect: g.expect}
	}
	return &g.cur
}

func (g *churnGen) write() {
	c := g.cycle
	g.cycle++
	u, a, p := g.sc.users+c, g.sc.albums+c, g.sc.photos+c
	// Three distinct friends in ascending order, which is the order the
	// answer comes back in.
	fs := &g.wrote
	fs[0] = g.rng.Intn(g.sc.users - 2)
	fs[1] = fs[0] + 1 + g.rng.Intn(g.sc.users-fs[0]-2)
	fs[2] = fs[1] + 1 + g.rng.Intn(g.sc.users-fs[1]-1)
	ins := []live.Op{
		live.Insert("friends", intTuple(u, fs[0])),
		live.Insert("friends", intTuple(u, fs[1])),
		live.Insert("friends", intTuple(u, fs[2])),
		live.Insert("album_owner", intTuple(a, u)),
		live.Insert("in_album", intTuple(p, a)),
		live.Insert("tagging", intTuple(p, fs[0], u)),
		live.Insert("likes", intTuple(u, p)),
		live.Insert("likes", intTuple(u, g.rng.Intn(g.sc.photos))),
	}
	batch := ins
	for _, o := range g.ring[c%deleteLag] {
		batch = append(batch, live.Delete(o.Rel, o.Tuple))
	}
	g.ring[c%deleteLag] = ins[:len(ins):len(ins)]

	g.buf = append(g.buf[:0], `{"ops":[`...)
	for i, o := range batch {
		if i > 0 {
			g.buf = append(g.buf, ',')
		}
		g.buf = fmt.Appendf(g.buf, `{"op":%q,"rel":%q,"tuple":[`, o.Kind.String(), o.Rel)
		for j, v := range o.Tuple {
			if j > 0 {
				g.buf = append(g.buf, ',')
			}
			g.buf = strconv.AppendInt(g.buf, v.AsInt(), 10)
		}
		g.buf = append(g.buf, "]}"...)
	}
	g.buf = append(g.buf, "]}"...)
	g.cur = op{kind: opIngest, body: g.buf, batch: batch}
}

// generator yields a client's operations; the sequence is a function of
// the scene and the seed alone.
type generator interface{ next() *op }

func newGenerator(workload string, sc *scene, seed int64, client int) (generator, error) {
	seed = seed*1000003 + int64(client)
	switch workload {
	case wlHotPoint:
		return newHotGen(sc, seed), nil
	case wlDeepScan:
		return newScanGen(sc, seed), nil
	case wlAdhocShapes:
		return newAdhocGen(sc, seed), nil
	case wlIngestChurn:
		return newChurnGen(sc, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", workload, workloadNames)
}
