package route

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Consistent-hash placement. Each backend contributes ringVnodes
// virtual points; a session key ("model@vN:precision") is placed on the
// first point clockwise from its hash. Adding or removing one backend
// moves only the keys that hashed to its arcs, so a backend failure
// re-routes its sessions without reshuffling everyone else's co-batched
// groups — the property that keeps a model's sessions coalescing on one
// backend across fleet churn.
const ringVnodes = 64

// hash64 is FNV-1a with a 64-bit avalanche finalizer, inlined so
// placement needs no dependencies and stays identical across router
// restarts (the ring must be a pure function of the member set). The
// finalizer matters: raw FNV over short, similar keys ("m1", "m2", …)
// clusters on the circle and starves members of arc.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node.
type ringPoint struct {
	hash uint64
	id   string
}

// buildRing returns the sorted virtual-node circle for a member set.
func buildRing(ids []string) []ringPoint {
	points := make([]ringPoint, 0, len(ids)*ringVnodes)
	for _, id := range ids {
		for v := 0; v < ringVnodes; v++ {
			points = append(points, ringPoint{hash: hash64(id + "#" + strconv.Itoa(v)), id: id})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].id < points[j].id
	})
	return points
}

// ringLookup walks clockwise from key's hash and returns up to want
// distinct member ids in preference order.
func ringLookup(points []ringPoint, key string, want int) []string {
	if len(points) == 0 || want <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
	out := make([]string, 0, want)
	for i := 0; i < len(points) && len(out) < want; i++ {
		if id := points[(start+i)%len(points)].id; !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// ringCacheMax bounds a router's memoised rings. Member sets are few
// (per-precision and per-model pools across health changes), so when the
// cache fills it is simply emptied.
const ringCacheMax = 64

// ringCache memoises buildRing per member set. A ring is read-only once
// built, so concurrent placements share it.
type ringCache struct {
	mu    sync.Mutex
	rings map[string][]ringPoint
}

// ring returns the circle for ids. The key is ids in the given order,
// each length-prefixed so no two member sets share one; buildRing
// ignores order, so an unsorted caller only costs a duplicate entry.
func (c *ringCache) ring(ids []string) []ringPoint {
	var kb strings.Builder
	for _, id := range ids {
		kb.WriteString(strconv.Itoa(len(id)))
		kb.WriteByte(':')
		kb.WriteString(id)
	}
	key := kb.String()
	c.mu.Lock()
	points, ok := c.rings[key]
	c.mu.Unlock()
	if ok {
		return points
	}
	points = buildRing(ids)
	c.mu.Lock()
	if c.rings == nil || len(c.rings) >= ringCacheMax {
		c.rings = make(map[string][]ringPoint)
	}
	c.rings[key] = points
	c.mu.Unlock()
	return points
}
