package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// The consistent-hash ring maps routing keys (session keys, job ids) to
// owner nodes. Each node projects ringVNodes points onto a uint64 circle;
// a key belongs to the first point clockwise from its own hash. Virtual
// nodes smooth the load split, and consistency is the property the
// failover design leans on: when a node dies, only the keys it owned
// move (to the next point clockwise), so a claim decision — "am I the
// next owner of this dead node's job?" — is a pure local computation
// every survivor answers identically.

// ringVNodes is the number of virtual nodes each member projects.
const ringVNodes = 64

type ringPoint struct {
	hash uint64
	id   string
}

// ring is an immutable consistent-hash circle over a fixed peer set.
// Health is deliberately not baked in: the ring orders ALL configured
// nodes, and routing walks that order skipping unhealthy ones, so the
// circle never has to be rebuilt (and every node's copy stays equal).
type ring struct {
	points []ringPoint
	ids    []string // distinct node ids, ring-walk order is per key
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// newRing builds the circle. vnodes points per node, labeled "id#i".
func newRing(peers []Peer, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(peers)*vnodes), ids: make([]string, 0, len(peers))}
	for _, p := range peers {
		r.ids = append(r.ids, p.ID)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", p.ID, i)), id: p.ID})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes tie-break on id so every node sorts identically.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// successors returns every distinct node id in ring order starting at
// key's position: the owner first, then the failover/replica order.
func (r *ring) successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.ids))
	seen := make(map[string]bool, len(r.ids))
	for i := 0; i < len(r.points) && len(out) < len(r.ids); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}

// owner returns the key's primary owner, ignoring health.
func (r *ring) owner(key string) string {
	s := r.successors(key)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}
