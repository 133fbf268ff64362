package serve

import (
	"runtime"
	"sync/atomic"
)

// counter is a request counter that concurrent requests add to without
// sharing a cache line: one atomic per stripe, each stripe padded to two
// cache lines, so that no two stripes' words share a line or its
// prefetched neighbour. An add names its stripe: the one carried by the
// pooled body decoder its request was read into, which sync.Pool keeps
// per processor, so a stripe stays with one processor as long as its
// decoder does. Load sums every stripe: an add is counted exactly once,
// and a Load after the adds have returned sees all of them.
type counter struct {
	stripes []stripe
}

type stripe struct {
	n atomic.Int64
	_ [120]byte
}

// stripeCount is the stripe count of a server's counters: the power of
// two at least four times GOMAXPROCS, read once when the server is built.
// Decoders get their stripes round-robin, and the pool drops and
// rebuilds them across collections, so two processors' decoders land on
// one stripe with probability about 1/n; four stripes per processor keep
// that rare.
func stripeCount() int {
	n := 1
	for n < 4*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}

func newCounter(stripes int) counter { return counter{stripes: make([]stripe, stripes)} }

// add counts one on stripe i (taken modulo the stripe count).
func (c *counter) add(i uint32) {
	c.stripes[int(i)&(len(c.stripes)-1)].n.Add(1)
}

// Load returns the sum of the stripes.
func (c *counter) Load() int64 {
	var n int64
	for i := range c.stripes {
		n += c.stripes[i].n.Load()
	}
	return n
}
