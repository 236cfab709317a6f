package fleetlane

import "testing"

// TestLanes runs every lane once so harness breakage fails go test, not
// only the benchmark smoke: each replay reads the windows it is owed and
// the failover hands at least one session off.
func TestLanes(t *testing.T) {
	for name, lane := range map[string]Lane{
		"mixed": Mixed, "routed": Routed, "bursty": Bursty, "float32": {Precision: "float32"},
	} {
		f, err := New(lane, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for op, want := range []int{Sessions * (Steps - f.Window + 1), Sessions * Steps} {
			if got, err := f.Replay(); err != nil || got != want {
				t.Errorf("%s replay %d: %d windows (err %v), want %d", name, op, got, err, want)
			}
		}
		if err := f.Close(); err != nil {
			t.Errorf("%s close: %v", name, err)
		}
	}

	f, err := New(Routed, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Handoffs < 1 || res.Windows <= 0 || res.Windows > Sessions*(Steps-f.Window+1) {
		t.Fatalf("failover: %+v", res)
	}
}
