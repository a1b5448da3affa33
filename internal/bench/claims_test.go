package bench

import (
	"testing"

	"repro/internal/core"
)

// claimPins are the exact totals of every claims run (claims.go): clwbs
// issued, flushes coalesced and fences, over the counted op stream — the
// counter gate, at ±0. A change to a structure's or a policy's flush
// placement moves them; update a pin only with the reason in CHANGES.md.
// The YCSB rows (/A, /B, /C) draw Zipf keys through floating point; they
// were pinned on amd64, and a platform whose compiler fuses multiply-adds
// may round a key differently and move them.
var claimPins = []struct {
	run                     string
	flushes, elided, fences uint64
}{
	{"list/nvtraverse/256", 7253, 205, 4722},
	{"list/nvtraverse/4096", 7260, 205, 4722},
	{"list/izraelevitz/256", 134275, 0, 136997},
	{"list/izraelevitz/4096", 2054979, 0, 2057701},
	{"list/logfree/256", 541, 200, 541},
	{"list/logfree/4096", 635, 206, 635},
	{"hash/nvtraverse/256", 4214, 2196, 4722},
	{"hash/nvtraverse/4096", 4214, 2196, 4722},
	{"hash/izraelevitz/256", 5355, 0, 8077},
	{"hash/izraelevitz/4096", 5355, 0, 8077},
	{"hash/logfree/256", 767, 224, 767},
	{"hash/logfree/4096", 767, 224, 767},
	{"ellenbst/nvtraverse/256", 8073, 6770, 4726},
	{"ellenbst/nvtraverse/4096", 8073, 6768, 4726},
	{"ellenbst/izraelevitz/256", 46229, 0, 48955},
	{"ellenbst/izraelevitz/4096", 71673, 0, 74399},
	{"ellenbst/logfree/256", 1687, 2580, 1381},
	{"ellenbst/logfree/4096", 1806, 2660, 1488},
	{"nmbst/nvtraverse/256", 7475, 3000, 4638},
	{"nmbst/nvtraverse/4096", 7475, 3000, 4638},
	{"nmbst/izraelevitz/256", 23168, 0, 25806},
	{"nmbst/izraelevitz/4096", 35891, 0, 38529},
	{"nmbst/logfree/256", 944, 856, 837},
	{"nmbst/logfree/4096", 989, 864, 881},
	{"skiplist/nvtraverse/256", 6235, 1321, 4722},
	{"skiplist/nvtraverse/4096", 6144, 1419, 4722},
	{"skiplist/izraelevitz/256", 9314, 0, 12036},
	{"skiplist/izraelevitz/4096", 9331, 0, 12053},
	{"skiplist/logfree/256", 544, 306, 544},
	{"skiplist/logfree/4096", 632, 309, 632},
	{"list/nvtraverse+origparent/256", 7351, 205, 4722},
	{"list/nvtraverse/256/A", 8878, 1437, 5299},
	{"list/nvtraverse/256/B", 7453, 471, 4191},
	{"list/nvtraverse/256/C", 6746, 319, 4000},
	{"list/izraelevitz/256/A", 86528, 0, 89730},
	{"list/izraelevitz/256/B", 63611, 0, 65774},
	{"list/izraelevitz/256/C", 48819, 0, 50819},
	{"nmbst/nvtraverse/256/A", 9307, 2873, 5202},
	{"nmbst/nvtraverse/256/B", 7817, 2252, 4163},
	{"nmbst/nvtraverse/256/C", 7065, 2000, 4000},
	{"nmbst/izraelevitz/256/A", 27757, 0, 30862},
	{"nmbst/izraelevitz/256/B", 24557, 0, 26692},
	{"nmbst/izraelevitz/256/C", 22327, 0, 24327},
	{"ellenbst/nvtraverse/256/A", 13436, 15244, 7218},
	{"ellenbst/nvtraverse/256/B", 8273, 5406, 4377},
	{"ellenbst/nvtraverse/256/C", 7065, 4000, 4000},
	{"ellenbst/izraelevitz/256/A", 66125, 0, 71246},
	{"ellenbst/izraelevitz/256/B", 48739, 0, 51088},
	{"ellenbst/izraelevitz/256/C", 43589, 0, 45589},
}

// TestPaperClaims runs the claims table once: every run's counts must
// equal its pin, and every one of the paper's findings (Claims) must hold.
func TestPaperClaims(t *testing.T) {
	counts, err := RunClaimCounts()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(claimPins) {
		t.Errorf("%d claims runs, %d pins", len(counts), len(claimPins))
	}
	for _, p := range claimPins {
		c, ok := counts[p.run]
		if !ok {
			t.Errorf("%s: pinned, but not a claims run", p.run)
			continue
		}
		if c.Flushes != p.flushes || c.Elided != p.elided || c.Fences != p.fences {
			t.Errorf("%s: %d flushes %d elided %d fences, pinned %d %d %d",
				p.run, c.Flushes, c.Elided, c.Fences, p.flushes, p.elided, p.fences)
		}
	}
	for _, cl := range Claims() {
		if err := cl.Check(counts); err != nil {
			t.Errorf("claim failed: %s\n\t%v", cl.Finding, err)
		}
	}
}

// countTuples executes the runs of ts and returns their counts as tuples.
func countTuples(t *testing.T, ts [][]ClaimRun) [][]Counts {
	t.Helper()
	out := make([][]Counts, len(ts))
	for i, tu := range ts {
		for _, r := range tu {
			c, err := r.count()
			if err != nil {
				t.Fatalf("%s: %v", r.Name(), err)
			}
			out[i] = append(out[i], c)
		}
	}
	return out
}

// TestIzraelevitzFlushesFarMoreThanNVTraverse is the paper's central
// quantitative claim on its own: on the list, whose traversals are the
// longest, the general transformation issues at least an order of magnitude
// more flushes than NVTraverse, at both claims sizes.
func TestIzraelevitzFlushesFarMoreThanNVTraverse(t *testing.T) {
	ts := tuples([]core.Kind{core.KindList}, claimSizes, "", "nvtraverse", "izraelevitz")
	for i, c := range countTuples(t, ts) {
		if c[1].Flushes < 10*c[0].Flushes {
			t.Errorf("%s: izraelevitz %d flushes vs nvtraverse %d, under 10x",
				ts[i][0].Name(), c[1].Flushes, c[0].Flushes)
		}
	}
}

// TestFlushAblationNVTraverseWins checks the skewed YCSB A/B/C read/update
// mixes on a traversal-heavy structure (list) and a tree (NM-BST): the
// flush-everything transformation issues at least 1.5x NVTraverse's clwbs,
// and more fences.
func TestFlushAblationNVTraverseWins(t *testing.T) {
	ts := ycsbTuples(core.KindList, core.KindNMBST)
	for i, c := range countTuples(t, ts) {
		if 2*c[1].Flushes < 3*c[0].Flushes {
			t.Errorf("%s: izraelevitz %d flushes vs nvtraverse %d, under 1.5x",
				ts[i][0].Name(), c[1].Flushes, c[0].Flushes)
		}
		if c[1].Fences <= c[0].Fences {
			t.Errorf("%s: izraelevitz %d fences vs nvtraverse %d",
				ts[i][0].Name(), c[1].Fences, c[0].Fences)
		}
	}
}
