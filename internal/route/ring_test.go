package route

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingLookupDeterministicAndDistinct(t *testing.T) {
	ids := []string{"b1", "b2", "b3"}
	ring := buildRing(ids)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("model@v%d:int8", i)
		a := ringLookup(ring, key, 3)
		b := ringLookup(ring, key, 3)
		if len(a) != 3 {
			t.Fatalf("lookup returned %d ids, want 3", len(a))
		}
		seen := map[string]bool{}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("lookup not deterministic for %q: %v vs %v", key, a, b)
			}
			if seen[a[j]] {
				t.Fatalf("duplicate id in lookup: %v", a)
			}
			seen[a[j]] = true
		}
	}
}

// TestRingStabilityOnMemberLoss is the consistent-hashing property the
// router exists for: dropping one backend must only move the keys that
// lived on it.
func TestRingStabilityOnMemberLoss(t *testing.T) {
	full := buildRing([]string{"b1", "b2", "b3", "b4"})
	reduced := buildRing([]string{"b1", "b2", "b4"})
	moved := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("m%d@latest:float32", i)
		before := ringLookup(full, key, 1)[0]
		after := ringLookup(reduced, key, 1)[0]
		if before == "b3" {
			if after == "b3" {
				t.Fatal("key still placed on removed member")
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved that were not on the removed member", moved)
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	ring := buildRing([]string{"b1", "b2", "b3"})
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[ringLookup(ring, fmt.Sprintf("m%d", i), 1)[0]]++
	}
	for id, n := range counts {
		if n == 0 || n == 300 {
			t.Fatalf("degenerate spread: %v", counts)
		}
		_ = id
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 backends received keys: %v", len(counts), counts)
	}
}

// TestPlacePrecisionPools checks the capability-aware pool narrowing:
// sessions requesting a precision only some backends support must stay
// inside that pool, and backends advertising the model outrank ones
// that don't.
func TestPlacePrecisionPools(t *testing.T) {
	rt := NewRouter(Config{DefaultModel: "varade"})
	rt.Register(Announcement{ID: "f64only", Addr: "a:1", Precisions: []string{"float64"},
		Models: []ModelAd{{Name: "varade"}}})
	rt.Register(Announcement{ID: "full1", Addr: "a:2", Precisions: []string{"float64", "float32", "int8"},
		Models: []ModelAd{{Name: "varade"}}})
	rt.Register(Announcement{ID: "full2", Addr: "a:3", Precisions: []string{"float64", "float32", "int8"},
		Models: []ModelAd{{Name: "other"}}})

	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("varade@v%d:int8", i)
		cands := rt.place("varade", "int8", key)
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		// Preference order must exhaust the int8+varade pool (full1)
		// before any fallback; f64only can only appear as failover.
		if cands[0].b.id != "full1" {
			t.Fatalf("int8 varade session preferred %q, want full1", cands[0].b.id)
		}
	}
	// A float64 session for the model spreads over the model's pool
	// (f64only and full1), never preferring the backend that does not
	// advertise it.
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		cands := rt.place("varade", "float64", fmt.Sprintf("varade@v%d:float64", i))
		seen[cands[0].b.id] = true
		if cands[0].b.id == "full2" {
			t.Fatal("preferred a backend that does not advertise the model")
		}
	}
	if !seen["f64only"] || !seen["full1"] {
		t.Fatalf("float64 keys did not spread over the model pool: %v", seen)
	}
}

// TestTableTTLAndDrain covers the health plane: registrations age out
// at TTL, a draining announcement removes the backend immediately, and
// a fresh announcement clears a dial-failure mark.
func TestTableTTLAndDrain(t *testing.T) {
	tab := newTable(100 * time.Millisecond)
	now := time.Unix(1000, 0)
	tab.now = func() time.Time { return now }

	tab.upsert(Announcement{ID: "b1", Addr: "a:1"})
	tab.upsert(Announcement{ID: "b2", Addr: "a:2"})
	if got := len(tab.views(true)); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}

	// b1's announcements stop: it ages out, b2 keeps heartbeating.
	now = now.Add(80 * time.Millisecond)
	tab.upsert(Announcement{ID: "b2", Addr: "a:2"})
	now = now.Add(80 * time.Millisecond)
	views := tab.views(true)
	if len(views) != 1 || views[0].b.id != "b2" {
		t.Fatalf("after TTL, healthy = %+v, want just b2", views)
	}

	// Dial failure drains immediately; a fresh announcement restores.
	tab.fail("b2")
	if got := len(tab.views(true)); got != 0 {
		t.Fatalf("failed backend still healthy (%d)", got)
	}
	tab.upsert(Announcement{ID: "b2", Addr: "a:2"})
	if got := len(tab.views(true)); got != 1 {
		t.Fatalf("re-announced backend not restored (%d)", got)
	}

	// Graceful drain removes without waiting out the TTL.
	tab.upsert(Announcement{ID: "b2", Addr: "a:2", Draining: true})
	if got := len(tab.views(true)); got != 0 {
		t.Fatalf("draining backend still placeable (%d)", got)
	}
}

// TestPlaceRingCacheMatchesUncached drives the table through register,
// dial failure, re-announce, drain and TTL expiry: at every step the
// memoised placement must equal one from a cold cache, and a member set
// seen before must place as it did then. Concurrent placements share
// the cache (run under -race).
func TestPlaceRingCacheMatchesUncached(t *testing.T) {
	rt := NewRouter(Config{DefaultModel: "varade", TTL: time.Minute})
	now := time.Unix(1000, 0)
	rt.tab.now = func() time.Time { return now }
	announce := func(ann Announcement) {
		ann.Addr = "a:" + ann.ID
		ann.Models = []ModelAd{{Name: "varade"}}
		rt.Register(ann)
	}
	placements := func() []string {
		var out []string
		for i := 0; i < 30; i++ {
			for _, prec := range []string{"float64", "float32", "int8"} {
				var ids []string
				for _, v := range rt.place("varade", prec, fmt.Sprintf("varade@v%d:%s", i, prec)) {
					ids = append(ids, v.b.id)
				}
				out = append(out, strings.Join(ids, ","))
			}
		}
		return out
	}
	check := func(step string) string {
		warm := strings.Join(placements(), " ")
		saved := rt.rings.rings
		rt.rings.rings = nil
		cold := strings.Join(placements(), " ")
		rt.rings.rings = saved
		if warm != cold {
			t.Fatalf("%s: cached placement %s, uncached %s", step, warm, cold)
		}
		return warm
	}

	announce(Announcement{ID: "b1"})
	announce(Announcement{ID: "b2"})
	announce(Announcement{ID: "b3", Precisions: []string{"float64", "float32"}})
	full := check("register")
	rt.tab.fail("b2")
	check("dial-fail")
	announce(Announcement{ID: "b2"})
	if got := check("re-announce"); got != full {
		t.Fatalf("re-announced set placed %s, first time %s", got, full)
	}
	announce(Announcement{ID: "b3", Draining: true})
	check("drain")
	announce(Announcement{ID: "b3", Precisions: []string{"float64", "float32"}})
	now = now.Add(50 * time.Second)
	announce(Announcement{ID: "b2"})
	announce(Announcement{ID: "b3", Precisions: []string{"float64", "float32"}})
	now = now.Add(20 * time.Second) // b1 last announced 70s ago: expired
	if got := len(rt.tab.views(true)); got != 2 {
		t.Fatalf("healthy = %d after b1's TTL, want 2", got)
	}
	check("ttl-expiry")
	announce(Announcement{ID: "b1"})
	if got := check("re-announce after expiry"); got != full {
		t.Fatalf("re-announced set placed %s, first time %s", got, full)
	}
	if len(rt.rings.rings) == 0 {
		t.Fatal("placement never filled the ring cache")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := strings.Join(placements(), " "); got != full {
				t.Errorf("concurrent placement %s, want %s", got, full)
			}
		}()
	}
	wg.Wait()
}
