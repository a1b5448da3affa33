package main

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func streamBytes(seed uint64, client int, m mix, n int) []byte {
	g := newOpGen(seed, client, m)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := g.next()
		binary.Write(&buf, binary.LittleEndian, [3]uint64{uint64(o.kind), uint64(o.n), o.key})
	}
	return buf.Bytes()
}

func TestStreamDependsOnSeedAlone(t *testing.T) {
	for _, m := range []mix{ycsbA, ycsbB, ycsbE} {
		a := streamBytes(7, 0, m, 10000)
		if !bytes.Equal(a, streamBytes(7, 0, m, 10000)) {
			t.Errorf("%+v: same seed gave different streams", m)
		}
		if bytes.Equal(a, streamBytes(8, 0, m, 10000)) {
			t.Errorf("%+v: seeds 7 and 8 gave the same stream", m)
		}
		if bytes.Equal(a, streamBytes(7, 1, m, 10000)) {
			t.Errorf("%+v: clients 0 and 1 gave the same stream", m)
		}
	}
}

func TestStreamShape(t *testing.T) {
	const n = 200000
	g := newOpGen(1, 0, ycsbE)
	counts := map[opKind]int{}
	keys := map[uint64]int{}
	for i := 0; i < n; i++ {
		o := g.next()
		counts[o.kind]++
		keys[o.key]++
		if o.key < 1 || o.key > keySpace {
			t.Fatalf("key %d outside 1..%d", o.key, keySpace)
		}
		if o.kind == opScan && (o.n < 1 || o.n > maxScan || o.scanHi() > keySpace) {
			t.Fatalf("scan %+v outside its bounds", o)
		}
	}
	if share := float64(counts[opScan]) / n; share < 0.94 || share > 0.96 {
		t.Errorf("scan share %.3f, want 0.95", share)
	}
	if counts[opGet]+counts[opPut] != 0 {
		t.Errorf("YCSB-E generated %v", counts)
	}
	// Zipf 0.99 over 65,536 keys: the hottest key draws about 8.6 % of the
	// requests, the ten hottest about a quarter, and most keys are cold.
	var hot []int
	for _, c := range keys {
		hot = append(hot, c)
	}
	top, top10 := 0, 0
	for i := 0; i < 10; i++ {
		best := 0
		for j, c := range hot {
			if c > hot[best] {
				best = j
			}
		}
		if i == 0 {
			top = hot[best]
		}
		top10 += hot[best]
		hot[best] = 0
	}
	if share := float64(top) / n; share < 0.07 || share > 0.10 {
		t.Errorf("hottest key drew %.3f of the requests, want about 0.086", share)
	}
	if share := float64(top10) / n; share < 0.20 || share > 0.30 {
		t.Errorf("ten hottest keys drew %.3f of the requests, want about 0.25", share)
	}
	if len(keys) < keySpace/4 {
		t.Errorf("only %d distinct keys in %d draws", len(keys), n)
	}
}

func TestOwnKeysPartition(t *testing.T) {
	ks := newKeyState(wireConns)
	for key := uint64(1); key <= keySpace; key++ {
		owners := 0
		for ci := 0; ci < wireConns; ci++ {
			k := ks.own(key, ci)
			if k < 1 || k > keySpace {
				t.Fatalf("own(%d, %d) = %d outside the key space", key, ci, k)
			}
			if k == key {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %d has %d owners", key, owners)
		}
	}
	if v := value(12345, 77); !valueMatches(v, 77) || valueMatches(v, 78) || v>>20 != 12345 {
		t.Errorf("value(12345, 77) = %#x does not decode", v)
	}
}
