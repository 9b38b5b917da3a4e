package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/engine"
)

// copyFixture copies a testdata fixture into a temp dir so Open can lock
// and rewrite it without touching the checked-in file.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecVersionMigration is the golden migration test for the spec
// codec bumps. Each fixture is a store written by an older binary:
//
//   - testdata/store_specv0.golden predates the "v" field (its record's
//     spec decodes with V == 0);
//   - testdata/store_specv1.golden carries "v":1, written before version 2
//     changed the median kind's fixed-seed realizations;
//   - testdata/store_specv2.golden carries "v":2, written before version 3
//     changed the gossip kind's fixed-seed realizations.
//
// A current binary must preserve each such frame opaquely — never load
// it, never serve it under a re-derived key, never destroy it — while
// appending and serving current-codec records alongside it.
func TestSpecVersionMigration(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		// oldHash is the fixture record's spec hash under its own codec.
		oldHash string
	}{
		{"store_specv0.golden", "ea2ebade08e1135d6271f5f56cde869f7a8ebe539bc4fd01e651f3e9343bfc46"},
		{"store_specv1.golden", "aeb02d6c4e71cc3c995b529cb5add4574dadca5de20f33372de9c40bfed5ef6a"},
		{"store_specv2.golden", "136dcb6f3fd39cafaee06b83c250dee3231a4c085208a96707e3dc90876a7874"},
	} {
		t.Run(tc.fixture, func(t *testing.T) { checkOldSpecPreserved(t, tc.fixture, tc.oldHash) })
	}
}

func checkOldSpecPreserved(t *testing.T, fixture, oldHash string) {
	path := copyFixture(t, fixture)

	l, err := Open(path)
	if err != nil {
		t.Fatalf("a pre-bump store must open cleanly: %v", err)
	}
	if runs := loadAll(t, l); len(runs) != 0 {
		t.Fatalf("old-spec record must not be loaded, got %+v", runs)
	}
	st := l.Stats()
	if st.RecordsOldSpec != 1 || st.RecordsLoaded != 0 || st.RecordsUnknown != 0 {
		t.Fatalf("want 1 old-spec frame preserved, stats %+v", st)
	}
	if st.Compactions != 0 {
		t.Fatalf("an intact pre-bump file must not be rewritten at open: %+v", st)
	}

	// Life goes on: current-codec records append and reload next to the
	// preserved frame.
	current := testRun(t, 1)
	if err := l.Append(current); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	runs := loadAll(t, l)
	st = l.Stats()
	if len(runs) != 1 || runs[0].SpecHash != current.SpecHash {
		t.Fatalf("want only the current-codec run, got %+v", runs)
	}
	if st.RecordsOldSpec != 1 {
		t.Fatalf("old-spec frame lost across reopen: %+v", st)
	}

	// Force a rewrite (duplicate append → dead frame → Compact) and make
	// sure the compaction carries the old-spec frame through verbatim.
	if err := l.Append(current); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The old record's spec hash (under its codec) must still be on
	// disk, byte for byte, and must differ from every current-codec key.
	if !strings.Contains(string(data), oldHash) {
		t.Fatal("compaction destroyed the preserved old-spec frame")
	}
	if current.SpecHash == oldHash {
		t.Fatal("codec bump did not change the cache key — migration test is vacuous")
	}
}

// TestDecodeRunSpecVersion pins the codec boundary both ways: a record
// whose spec carries the current version round-trips; one without (the
// pre-bump encoding) is refused with engine.ErrSpecVersion so recovery
// treats it as opaque.
func TestDecodeRunSpecVersion(t *testing.T) {
	run := testRun(t, 0)
	if run.Spec.V != engine.SpecVersion {
		t.Fatalf("normalized spec must carry v%d, got v%d", engine.SpecVersion, run.Spec.V)
	}
	payload, err := EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRun(payload); err != nil {
		t.Fatalf("current-version record must decode: %v", err)
	}

	old := strings.Replace(string(payload), fmt.Sprintf(`,"v":%d`, engine.SpecVersion), "", 1)
	if old == string(payload) {
		t.Fatal("fixture surgery failed: no v field found to strip")
	}
	_, err = DecodeRun([]byte(old))
	if !errors.Is(err, engine.ErrSpecVersion) {
		t.Fatalf("pre-bump record must be refused with ErrSpecVersion, got %v", err)
	}
}
