package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/persist"
)

// FuzzManifest feeds arbitrary bytes to the MANIFEST.json reader:
// parseManifest must accept exactly what formatManifest renders,
// checkManifest must open a directory only on the byte-exact manifest of
// its own Config and refuse anything else without touching the file, and
// every manifest formatManifest renders must read back unchanged.
func FuzzManifest(f *testing.F) {
	cfg := Config{Kind: core.KindSkiplist, Policy: persist.NVTraverse{}, Shards: 4, SizeHint: 1024}
	dir := f.TempDir()
	path := filepath.Join(dir, manifestName)
	want := manifest{Version: 1, Kind: string(cfg.Kind), Policy: cfg.Policy.Name(), Shards: 4, SizeHint: 1024}
	f.Add(formatManifest(want))
	f.Add(formatManifest(manifest{}))
	f.Add(bytes.TrimSuffix(formatManifest(want), []byte("\n")))
	f.Add([]byte(`{"version": 1, "kind": "skiplist", "policy": "nvtraverse", "shards": 4, "size_hint": 1024, "buckets": 0}`))
	f.Add(bytes.Replace(formatManifest(want), []byte(`"kind"`), []byte(`"Kind"`), 1))
	f.Add(bytes.Replace(formatManifest(want), []byte(`4,`), []byte(`04,`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := parseManifest(data)
		if ok != bytes.Equal(formatManifest(m), data) {
			t.Fatalf("parseManifest(%q) ok = %v, but it re-formats as %q", data, ok, formatManifest(m))
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := checkManifest(dir, cfg)
		if open := ok && m == want; (err == nil) != open {
			t.Fatalf("checkManifest(%q) = %v, want open %v", data, err, open)
		}
		if err != nil && !strings.Contains(err.Error(), "refusing to open") {
			t.Fatalf("checkManifest(%q) = %v, want a refusal", data, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
			t.Fatalf("checkManifest rewrote %q as %q", data, after)
		}

		if !utf8.Valid(data) {
			return
		}
		rt := manifest{Version: len(data), Kind: string(data), Policy: strings.ToUpper(string(data)), Shards: -len(data)}
		if got, ok := parseManifest(formatManifest(rt)); !ok || got != rt {
			t.Fatalf("round trip of %+v = %+v, %v", rt, got, ok)
		}
	})
}
