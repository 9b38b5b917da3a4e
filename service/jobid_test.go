package service

import (
	"path/filepath"
	"testing"

	"repro/service/store"
)

// TestJobIDBeforeQueue: a queued job carries its id before any worker can
// see it. Distinct tiny runs against a file store finish as fast as they
// are queued, so a worker that read the id before the submitter set it
// would publish job.started — and persist the run — under an empty or torn
// id. Under -race the unsynchronized write itself is reported.
func TestJobIDBeforeQueue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.store")
	s := newTestService(t, Options{Workers: 2, StorePath: path})
	sub := s.Events(4096, 0)
	// One run at a time: each submit then finds a worker parked on the
	// queue, which picks the job up the moment it is sent.
	const jobs = 200
	ids := make(map[string]string, jobs) // spec hash → job id
	for i := range jobs {
		v, err := s.Submit(Spec{Seed: uint64(i + 1), Payload: &MedianSpec{
			Init: InitSpec{Kind: "twovalue", N: 16},
			Rule: RuleSpec{Name: "median"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		ids[v.SpecHash] = v.ID
		waitDone(t, s, v.ID)
	}
	s.Close() // drains the store and closes the event stream

	started := 0
	for ev := range sub.C {
		if ev.Type != "job.started" {
			continue
		}
		started++
		if want := ids[ev.SpecHash]; ev.Job != want {
			t.Errorf("job.started for %s carries id %q, want %q", ev.SpecHash, ev.Job, want)
		}
	}
	if sub.Dropped() != 0 || started != jobs {
		t.Fatalf("saw %d job.started events (%d dropped), want %d", started, sub.Dropped(), jobs)
	}

	l, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	persisted := 0
	err = l.Load(func(r store.Run) error {
		persisted++
		if want := ids[r.SpecHash]; r.ID != want {
			t.Errorf("persisted run %s carries id %q, want %q", r.SpecHash, r.ID, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if persisted != jobs {
		t.Fatalf("%d runs persisted, want %d", persisted, jobs)
	}
}
