package graph

import "testing"

func TestProfileBatch(t *testing.T) {
	b := &Batch{}
	for i := 0; i < 100; i++ {
		b.Edges = append(b.Edges, Edge{Src: VertexID(i), Dst: 5, Weight: 1})
	}
	for i := 0; i < 100; i++ {
		b.Edges = append(b.Edges, Edge{Src: 1, Dst: VertexID(100 + i), Delete: true})
	}
	p := ProfileBatch(b, 64)
	if p.Edges != 200 {
		t.Fatalf("Edges = %d", p.Edges)
	}
	if p.DeleteRatio != 0.5 {
		t.Fatalf("DeleteRatio = %v", p.DeleteRatio)
	}
	if p.DegreeSkew != 0.5 {
		t.Fatalf("DegreeSkew = %v", p.DegreeSkew)
	}
	// One destination (5) has in-degree 100 > λ=64: CAD = 100/1.
	if p.CAD != 100 {
		t.Fatalf("CAD = %v", p.CAD)
	}
	if got := ProfileBatch(&Batch{}, 64); got.Edges != 0 || got.CAD != 0 {
		t.Fatalf("empty profile = %+v", got)
	}
}
