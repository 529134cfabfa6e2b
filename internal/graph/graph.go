// Package graph provides the rigidity theory behind topology-based
// localization (§2.1.2 of the paper): Laman rigidity via the (2,3)-pebble
// game, redundant rigidity, k-connectivity, and the unique-realizability
// test (redundantly rigid ∧ 3-connected, Goldenberg et al.) that gates
// which link subsets the outlier-detection search may drop.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected link between two node indices (Low < High).
type Edge struct{ Low, High int }

// NewEdge normalizes node ordering.
func NewEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{Low: a, High: b}
}

// Graph is a simple undirected graph on nodes 0..N-1.
type Graph struct {
	n     int
	edges map[Edge]bool
}

// New creates an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, edges: make(map[Edge]bool)}
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge (a, b). Self-loops are rejected.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		panic("graph: self loop")
	}
	if a < 0 || b < 0 || a >= g.n || b >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", a, b, g.n))
	}
	g.edges[NewEdge(a, b)] = true
}

// RemoveEdge deletes the edge if present.
func (g *Graph) RemoveEdge(a, b int) { delete(g.edges, NewEdge(a, b)) }

// HasEdge reports edge presence.
func (g *Graph) HasEdge(a, b int) bool { return g.edges[NewEdge(a, b)] }

// Edges returns the edge set in deterministic order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Low != out[j].Low {
			return out[i].Low < out[j].Low
		}
		return out[i].High < out[j].High
	})
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := New(g.n)
	for e := range g.edges {
		out.edges[e] = true
	}
	return out
}

// WithoutEdges returns a copy with the listed edges removed.
func (g *Graph) WithoutEdges(drop []Edge) *Graph {
	out := g.Clone()
	for _, e := range drop {
		delete(out.edges, e)
	}
	return out
}

// adjacency builds adjacency lists, optionally excluding a node set.
func (g *Graph) adjacency(exclude map[int]bool) [][]int {
	adj := make([][]int, g.n)
	for e := range g.edges {
		if exclude[e.Low] || exclude[e.High] {
			continue
		}
		adj[e.Low] = append(adj[e.Low], e.High)
		adj[e.High] = append(adj[e.High], e.Low)
	}
	return adj
}

// Connected reports whether the graph (restricted to nodes not excluded)
// is connected. Graphs with fewer than 2 included nodes count as connected.
func (g *Graph) Connected(exclude map[int]bool) bool {
	var start = -1
	included := 0
	for v := 0; v < g.n; v++ {
		if !exclude[v] {
			included++
			if start < 0 {
				start = v
			}
		}
	}
	if included <= 1 {
		return true
	}
	adj := g.adjacency(exclude)
	seen := make([]bool, g.n)
	stack := []int{start}
	seen[start] = true
	visited := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				visited++
				stack = append(stack, w)
			}
		}
	}
	return visited == included
}

// KConnected reports whether the graph stays connected after removing any
// k−1 nodes (i.e. node connectivity ≥ k). Exhaustive over removal sets,
// which is exact and cheap at dive-group sizes.
func (g *Graph) KConnected(k int) bool {
	if k <= 1 {
		return g.Connected(nil)
	}
	if g.n < k+1 {
		return false // convention: need at least k+1 nodes
	}
	return g.kConnectedRec(k-1, 0, map[int]bool{})
}

func (g *Graph) kConnectedRec(toRemove, from int, removed map[int]bool) bool {
	if toRemove == 0 {
		return g.Connected(removed)
	}
	for v := from; v < g.n; v++ {
		removed[v] = true
		if !g.kConnectedRec(toRemove-1, v+1, removed) {
			delete(removed, v)
			return false
		}
		delete(removed, v)
	}
	return true
}
