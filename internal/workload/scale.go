// scale.go — flow populations and routing for the thousand-AS scale
// experiment: deterministic shortest-path next-hop tables over a generated
// topology, and seeded source/destination flow sets. Everything here is a
// pure function of (topology, seed), so the netsim scenarios built on top of
// it are reproducible across engines and runs.
package workload

import (
	"fmt"

	"colibri/internal/netsim"
	"colibri/internal/topology"
)

// RouteTable holds shortest-path next hops between every AS pair of a
// topology, in dense int32-indexed form so per-packet lookups in the netsim
// hot path are two array indexings (no map, no allocation).
type RouteTable struct {
	// IAs lists the ASes in sorted (deterministic) order; indices below
	// refer to positions in this slice.
	IAs []topology.IA
	// Index inverts IAs.
	Index map[topology.IA]int32
	// Next[dst][cur] is the index of the next AS on a shortest path from
	// cur toward dst (-1 when dst is unreachable or cur == dst).
	Next [][]int32
}

// BuildRoutes computes shortest-path next hops by per-destination BFS over
// the undirected AS graph. Neighbors are expanded in sorted-interface order
// and the first discovered predecessor wins, so the table is a deterministic
// function of the topology alone.
func BuildRoutes(t *topology.Topology) *RouteTable {
	ias := t.SortedIAs()
	rt := &RouteTable{
		IAs:   ias,
		Index: make(map[topology.IA]int32, len(ias)),
		Next:  make([][]int32, len(ias)),
	}
	for i, ia := range ias {
		rt.Index[ia] = int32(i)
	}

	// Dense adjacency in index space, neighbor order deterministic.
	adj := make([][]int32, len(ias))
	for i, ia := range ias {
		for _, n := range t.AS(ia).Neighbors() {
			adj[i] = append(adj[i], rt.Index[n])
		}
	}

	queue := make([]int32, 0, len(ias))
	for d := range ias {
		next := make([]int32, len(ias))
		for i := range next {
			next[i] = -1
		}
		// BFS from the destination; next hop toward d is the BFS parent.
		queue = queue[:0]
		queue = append(queue, int32(d))
		visited := make([]bool, len(ias))
		visited[d] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, n := range adj[cur] {
				if !visited[n] {
					visited[n] = true
					next[n] = cur
					queue = append(queue, n)
				}
			}
		}
		rt.Next[d] = next
	}
	return rt
}

// Flow is one unidirectional end-to-end traffic flow between two ASes.
type Flow struct {
	Src, Dst topology.IA
}

// ScaleFlows draws n distinct-endpoint flows between non-core ASes of the
// topology (falling back to all ASes for tiny graphs), seeded and
// deterministic. Flows spread across the whole topology, which is what makes
// the scale experiment exercise every shard rather than a hot corner.
func ScaleFlows(t *topology.Topology, n int, seed uint64) []Flow {
	pool := make([]topology.IA, 0, len(t.ASes))
	for _, as := range t.NonCoreASes() {
		pool = append(pool, as.IA)
	}
	if len(pool) < 2 {
		pool = t.SortedIAs()
	}
	if len(pool) < 2 {
		panic(fmt.Sprintf("workload: topology too small for flows (%d ASes)", len(pool)))
	}
	rng := netsim.NewRand(seed)
	flows := make([]Flow, n)
	for i := range flows {
		src := pool[rng.Uint64()%uint64(len(pool))]
		dst := pool[rng.Uint64()%uint64(len(pool))]
		for dst == src {
			dst = pool[rng.Uint64()%uint64(len(pool))]
		}
		flows[i] = Flow{Src: src, Dst: dst}
	}
	return flows
}
