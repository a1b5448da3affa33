package main

import "math"

// The benchmark carries its own op-stream generator instead of importing
// internal/bench: ROADMAP item 2(e) moves that load generator, and a PR
// that claims a gain may not edit the benchmark. The duplication is
// deliberate.

const (
	keySpace = 1 << 16 // keys are 1..keySpace; every other one is prefilled
	keyMask  = 1<<20 - 1
	maxScan  = 100
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opInsert
	opScan
)

// op is one generated request. n is the scan length (1..maxScan), 0 otherwise.
type op struct {
	kind opKind
	n    uint8
	key  uint64
}

// scanHi bounds a scan's range: about half the keys are present, so twice
// the wanted length holds about n of them, and the scan stops at n. (The
// sharded engine scans the whole range on every shard before it merges;
// its callers are told to bound hi.)
func (o op) scanHi() uint64 { return min(o.key+2*uint64(o.n)-1, keySpace) }

// mix is a workload's operation shares in percent; the rest are puts.
type mix struct{ get, scan, insert int }

var (
	ycsbA = mix{get: 50}
	ycsbB = mix{get: 95}
	ycsbE = mix{scan: 95, insert: 5}
)

// value packs a request sequence number and the key's low bits, so every
// reply can be checked against the key that was asked for.
func value(seq, key uint64) uint64 { return seq<<20 | key&keyMask }

// valueMatches reports whether v was written for key.
func valueMatches(v, key uint64) bool { return v&keyMask == key&keyMask }

// rng is splitmix64: the stream depends on the seed alone, not on the Go
// release's math/rand.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, by the
// closed-form inverse of Gray et al. that YCSB uses.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipf(n int, theta float64) zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += math.Pow(float64(i), -theta)
		}
		return s
	}
	z := zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

var zipf99 = newZipf(keySpace, 0.99)

// opGen is one client's seeded request stream.
type opGen struct {
	r rng
	m mix
}

// newOpGen derives an independent stream for each (seed, client) pair.
func newOpGen(seed uint64, client int, m mix) *opGen {
	r := rng(seed*0x9e3779b97f4a7c15 + uint64(client+1)*0xd1342543de82ef95)
	r.next()
	return &opGen{r: r, m: m}
}

func (g *opGen) next() op {
	// The odd multiplier scatters the hot ranks over the key space (a
	// bijection because keySpace is a power of two), so hot keys are
	// neither neighbours nor all in one shard.
	key := 1 + (zipf99.rank(g.r.float())*0x9e3779b1)%keySpace
	switch p := int(g.r.next() % 100); {
	case p < g.m.get:
		return op{kind: opGet, key: key}
	case p < g.m.get+g.m.scan:
		return op{kind: opScan, key: key, n: uint8(1 + g.r.next()%maxScan)}
	case p < g.m.get+g.m.scan+g.m.insert:
		return op{kind: opInsert, key: key}
	}
	return op{kind: opPut, key: key}
}
