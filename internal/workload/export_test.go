package workload

import "colibri/internal/topology"

// NextHop returns the next AS on a shortest path from cur toward dst, or
// zero when cur == dst or dst is unreachable.
func (rt *RouteTable) NextHop(cur, dst topology.IA) topology.IA {
	n := rt.Next[rt.Index[dst]][rt.Index[cur]]
	if n < 0 {
		return 0
	}
	return rt.IAs[n]
}
