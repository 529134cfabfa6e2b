package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, normalized
	g.AddEdge(2, 3)
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	g.RemoveEdge(3, 2)
	if g.M() != 1 {
		t.Errorf("after remove M = %d", g.M())
	}
	if adj := g.adjacency(nil); len(adj[0]) != 1 || len(adj[2]) != 0 {
		t.Error("degree wrong")
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(3)
	for _, c := range [][2]int{{0, 0}, {-1, 1}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) should panic", c[0], c[1])
				}
			}()
			g.AddEdge(c[0], c[1])
		}()
	}
}

func TestConnected(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	if g.Connected(nil) {
		t.Error("two components should not be connected")
	}
	g.AddEdge(2, 3)
	if !g.Connected(nil) {
		t.Error("path should be connected")
	}
	// Excluding a cut vertex disconnects.
	if g.Connected(map[int]bool{2: true}) {
		t.Error("removing node 2 should disconnect")
	}
	// Trivial graphs are connected.
	if !New(0).Connected(nil) || !New(1).Connected(nil) {
		t.Error("empty/singleton should be connected")
	}
}

func TestKConnected(t *testing.T) {
	// K4 is 3-connected.
	if !Complete(4).KConnected(3) {
		t.Error("K4 should be 3-connected")
	}
	// A cycle is 2-connected but not 3-connected.
	c5 := New(5)
	for i := 0; i < 5; i++ {
		c5.AddEdge(i, (i+1)%5)
	}
	if !c5.KConnected(2) {
		t.Error("C5 should be 2-connected")
	}
	if c5.KConnected(3) {
		t.Error("C5 should not be 3-connected")
	}
	// Too few nodes.
	if Complete(3).KConnected(3) {
		t.Error("3 nodes cannot be 3-connected by convention")
	}
}

func TestRigidityTriangle(t *testing.T) {
	if !Complete(3).Rigid() {
		t.Error("triangle should be rigid")
	}
	// Path on 3 nodes: 2 edges < 2*3-3.
	p := New(3)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	if p.Rigid() {
		t.Error("path should be flexible")
	}
}

func TestRigiditySmallCases(t *testing.T) {
	if !New(0).Rigid() || !New(1).Rigid() {
		t.Error("trivial graphs are rigid")
	}
	g2 := New(2)
	if g2.Rigid() {
		t.Error("two unlinked nodes are not rigid")
	}
	g2.AddEdge(0, 1)
	if !g2.Rigid() {
		t.Error("an edge is rigid")
	}
}

func TestRigidityFourCycleIsFlexible(t *testing.T) {
	// Fig. 4a of the paper: a 4-cycle deforms continuously.
	c4 := New(4)
	for i := 0; i < 4; i++ {
		c4.AddEdge(i, (i+1)%4)
	}
	if c4.Rigid() {
		t.Error("4-cycle should be flexible")
	}
	// Adding one diagonal makes it rigid (2n-3 = 5 edges).
	c4.AddEdge(0, 2)
	if !c4.Rigid() {
		t.Error("braced quadrilateral should be rigid")
	}
}

func TestRankCountsIndependentEdgesOnly(t *testing.T) {
	// Doubling constraints inside a triangle must not raise the rank:
	// K4 has rank 5 (2n-3), not 6.
	if got := Complete(4).RankRigidity(); got != 5 {
		t.Errorf("K4 rank = %d, want 5", got)
	}
	// Two triangles sharing one node: rank is 6 but 2n-3 = 7 (hinge).
	h := New(5)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 0)
	h.AddEdge(0, 3)
	h.AddEdge(3, 4)
	h.AddEdge(4, 0)
	if got := h.RankRigidity(); got != 6 {
		t.Errorf("hinged triangles rank = %d, want 6", got)
	}
	if h.Rigid() {
		t.Error("hinged triangles rotate freely: not rigid")
	}
}

func TestLamanSubgraphViolation(t *testing.T) {
	// K4 plus a pendant: rigid component + dangling node is not rigid.
	g := Complete(4)
	h := New(5)
	for _, e := range g.Edges() {
		h.AddEdge(e.Low, e.High)
	}
	h.AddEdge(0, 4)
	if h.Rigid() {
		t.Error("pendant node should break rigidity")
	}
	if got, want := h.RankRigidity(), 6; got != want {
		t.Errorf("rank = %d, want %d", got, want)
	}
}

func TestRedundantRigidity(t *testing.T) {
	// K4 is redundantly rigid: remove any edge, still rigid (5 edges,
	// wheel-minus... K4 minus an edge has 5 edges = 2n-3 and is Laman).
	if !Complete(4).RedundantlyRigid() {
		t.Error("K4 should be redundantly rigid")
	}
	// A minimally rigid graph (exactly 2n-3 edges) is never redundant.
	tri := Complete(3)
	if tri.RedundantlyRigid() {
		t.Error("triangle loses rigidity with any edge removed")
	}
}

func TestUniquelyRealizable(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"K3", Complete(3), true},
		{"K4", Complete(4), true},
		{"K5", Complete(5), true},
		{"K5 minus edge", func() *Graph { g := Complete(5); g.RemoveEdge(0, 1); return g }(), true},
		{"path3", func() *Graph { g := New(3); g.AddEdge(0, 1); g.AddEdge(1, 2); return g }(), false},
		{"C4+diag", func() *Graph {
			g := New(4)
			for i := 0; i < 4; i++ {
				g.AddEdge(i, (i+1)%4)
			}
			g.AddEdge(0, 2)
			return g
		}(), false}, // minimally rigid: partial reflection possible (Fig. 4b)
		{"pair", func() *Graph { g := New(2); g.AddEdge(0, 1); return g }(), true},
		{"singleton", New(1), true},
		{"two isolated", New(2), false},
	}
	for _, c := range cases {
		if got := c.g.UniquelyRealizable(); got != c.want {
			t.Errorf("%s: UniquelyRealizable = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestK5MinusTwoAdjacent(t *testing.T) {
	// K5 minus two edges sharing a node: node drops to degree 2;
	// still rigid but that node can partially reflect? Its degree is 2,
	// so redundant rigidity fails (removing one of its links leaves a
	// degree-1 node).
	g := Complete(5)
	g.RemoveEdge(0, 1)
	g.RemoveEdge(0, 2)
	if g.RedundantlyRigid() {
		t.Error("degree-2 node cannot be redundantly rigid")
	}
	if g.UniquelyRealizable() {
		t.Error("should not be uniquely realizable")
	}
}

func TestFromWeights(t *testing.T) {
	w := [][]float64{
		{0, 1, 0},
		{1, 0, 0.5},
		{0, 0.5, 0},
	}
	g := FromWeights(w)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Error("FromWeights edges wrong")
	}
	// Asymmetric entries: either triangle counts.
	w2 := [][]float64{
		{0, 0},
		{1, 0},
	}
	if !FromWeights(w2).HasEdge(0, 1) {
		t.Error("asymmetric weight should still create the edge")
	}
}

func TestSubsetsEnumeration(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}}
	var count int
	Subsets(edges, 2, func(s []Edge) bool {
		if len(s) != 2 {
			t.Fatalf("subset size %d", len(s))
		}
		count++
		return true
	})
	if count != 6 { // C(4,2)
		t.Errorf("enumerated %d subsets, want 6", count)
	}
	// Early stop.
	count = 0
	Subsets(edges, 1, func(s []Edge) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop failed: %d", count)
	}
	// Degenerate k.
	Subsets(edges, 0, func([]Edge) bool { t.Fatal("k=0 should not call fn"); return true })
	Subsets(edges, 9, func([]Edge) bool { t.Fatal("k>len should not call fn"); return true })
}

func TestWithoutEdges(t *testing.T) {
	g := Complete(4)
	h := g.WithoutEdges([]Edge{NewEdge(0, 1), NewEdge(2, 3)})
	if h.M() != 4 || g.M() != 6 {
		t.Errorf("WithoutEdges: h.M=%d g.M=%d", h.M(), g.M())
	}
}

// Property: complete graphs K_n (n>=4) are always uniquely realizable, and
// random spanning trees never are (trees are flexible for n>=3).
func TestRealizabilityProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + int(uint(seed)%4)
		if !Complete(n).UniquelyRealizable() {
			return false
		}
		// Random spanning tree.
		tr := New(n)
		for v := 1; v < n; v++ {
			tr.AddEdge(v, r.Intn(v))
		}
		return !tr.Rigid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: rigidity rank never exceeds min(m, 2n-3) and matches m for
// independent sets.
func TestRankBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + int(uint(seed)%6)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.5 {
					g.AddEdge(i, j)
				}
			}
		}
		rank := g.RankRigidity()
		if rank > g.M() || rank > 2*n-3 {
			return false
		}
		return rank >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
