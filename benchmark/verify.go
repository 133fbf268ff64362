package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"time"

	"bcq/internal/baseline"
	"bcq/internal/shard"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

const (
	// sampleOneIn is the share of read operations whose answers are kept
	// and checked after the run; maxSampled bounds the check's time.
	sampleOneIn = 200
	maxSampled  = 400
	// hashJoined is how many of the sampled reads are also answered by
	// baseline.HashJoin, which scans the relations and shares no index code
	// with the read path; it takes a third of a second a query, so the
	// other samples are answered by baseline.IndexLoop alone.
	hashJoined = 3
)

// verifyItem is a sampled read: the query and every response body it
// got (one per page).
type verifyItem struct {
	text   string
	args   []value.Value
	limit  bool
	bodies [][]byte
}

// sampler picks a seeded one in sampleOneIn of a client's reads.
type sampler struct {
	rng   *rand.Rand
	items []*verifyItem
}

func newSampler(seed int64, client int) *sampler {
	return &sampler{rng: rand.New(rand.NewSource(seed ^ int64(0x5eed+client)))}
}

func (s *sampler) pick(o *op) *verifyItem {
	if s == nil || o.kind > opScan || o.expect != nil || s.rng.Intn(sampleOneIn) != 0 || len(s.items) >= maxSampled {
		return nil
	}
	it := &verifyItem{text: o.text, args: append([]value.Value(nil), o.args...), limit: o.kind == opScan}
	s.items = append(s.items, it)
	return it
}

// answerKeys decodes the tuples of a (possibly paged) answer into sorted
// tuple keys.
func answerKeys(bodies [][]byte) ([]string, error) {
	var keys []string
	for _, b := range bodies {
		var env struct {
			Result struct {
				Tuples [][]int64 `json:"tuples"`
			} `json:"result"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			return nil, fmt.Errorf("undecodable response %.80q: %w", b, err)
		}
		for _, row := range env.Result.Tuples {
			t := make(value.Tuple, len(row))
			for i, v := range row {
				t[i] = value.Int(v)
			}
			keys = append(keys, t.Key())
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// evaluator is one of the baseline package's conventional evaluators.
type evaluator func(*spc.Closure, *storage.Database, baseline.Options) (*baseline.Result, error)

// reference answers a sampled query with a conventional evaluator over
// the whole data.
func reference(eval evaluator, db *storage.Database, sc *scene, it *verifyItem) ([]string, error) {
	q, err := spc.Parse(it.text, sc.cat)
	if err != nil {
		return nil, err
	}
	bind := make(map[spc.AttrRef]value.Value, len(it.args))
	for i, ref := range q.Placeholders {
		bind[ref] = it.args[i]
	}
	cl, err := spc.NewClosure(q.Instantiate(bind), sc.cat)
	if err != nil {
		return nil, err
	}
	res, err := eval(cl, db, baseline.Options{})
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(res.Tuples))
	for i, t := range res.Tuples {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return keys, nil
}

// frozenData is the data the sampled reads were answered from, as a
// plain database with the row indexes the reference evaluator uses. The
// read-only workloads measure before anything is written, so that is the
// live store's base; ingest_churn's reads have answers that its writes
// never change (see churnGen), so it is the store's final content.
func frozenData(sys *system) (*storage.Database, error) {
	db := storage.NewDatabase(sys.sc.cat)
	if sys.ss == nil {
		db = sys.ls.Base()
	} else {
		view := sys.ss.View()
		for _, rs := range sys.sc.cat.Relations() {
			ts, err := view.Tuples(rs.Name())
			if err != nil {
				return nil, err
			}
			for _, t := range ts {
				if err := db.Insert(rs.Name(), t); err != nil {
					return nil, err
				}
			}
		}
	}
	return db, db.BuildRowIndexes(sys.sc.acc)
}

// verify checks every sampled answer against the reference evaluator and
// returns how many were wrong.
func verify(sys *system, items []*verifyItem, logf func(string, ...any)) (int, error) {
	if len(items) == 0 {
		return 0, nil
	}
	db, err := frozenData(sys)
	if err != nil {
		return 0, err
	}
	bad := 0
	for i, it := range items {
		got, err := answerKeys(it.bodies)
		if err != nil {
			return 0, err
		}
		evals := []evaluator{baseline.IndexLoop}
		if i < hashJoined {
			evals = append(evals, baseline.HashJoin)
		}
		for _, eval := range evals {
			want, err := reference(eval, db, sys.sc, it)
			if err != nil {
				return 0, err
			}
			if !slices.Equal(got, want) {
				bad++
				logf("wrong answer: %s %v: %d tuples, reference has %d", it.text, it.args, len(got), len(want))
				break
			}
		}
	}
	return bad, nil
}

// reask sends every sampled query again and returns how many answers
// differ from the ones recorded during the run.
func reask(sys *system, items []*verifyItem) (int, error) {
	w := &worker{sys: sys, c: newClient(sys.srv.Handler())}
	bad := 0
	for _, it := range items {
		suffix := "]}"
		if it.limit {
			suffix = fmt.Sprintf(`],"limit":%d}`, scanPageSize)
		}
		t := newTemplate(it.text, suffix)
		ids := make([]int, len(it.args))
		for i, a := range it.args {
			ids[i] = int(a.AsInt())
		}
		again := &verifyItem{}
		o := &op{kind: opQuery, body: t.render(nil, ids...)}
		if it.limit {
			o.kind = opScan
		}
		if w.do(o, again, time.Now()); w.failed > 0 {
			return 0, fmt.Errorf("re-asking %s %v: status %d", it.text, it.args, w.c.w.status)
		}
		got, err := answerKeys(again.bodies)
		if err != nil {
			return 0, err
		}
		want, err := answerKeys(it.bodies)
		if err != nil {
			return 0, err
		}
		if !slices.Equal(got, want) {
			bad++
		}
	}
	return bad, nil
}

// contentHash is an order-independent digest of every live tuple of a
// sharded store, by which a recovered store is compared with the one
// that was closed.
func contentHash(ss *shard.Store) (uint64, error) {
	view := ss.View()
	var sum uint64
	for _, rs := range ss.Catalog().Relations() {
		ts, err := view.Tuples(rs.Name())
		if err != nil {
			return 0, err
		}
		for _, t := range ts {
			h := fnv.New64a()
			h.Write([]byte(rs.Name()))
			h.Write([]byte(t.Key()))
			sum += h.Sum64()
		}
	}
	return sum, nil
}
