package graph

import (
	"bufio"
	"fmt"
	"io"
)

// DIMACS max-flow problem format, the input format of the HIPR solver the
// paper used. Vertices are 1-indexed in the file and 0-indexed in memory.
// Like the authors' modified HIPR, a file may carry several source/target
// pairs: the first is the standard "n <v> s"/"n <v> t" pair, any further
// ones extension comment lines of the form "c pair <s> <t>" (also
// 1-indexed).

// WriteEvenDIMACS writes the Even transformation of g as a DIMACS
// max-flow problem: 2n vertices, and the arcs of EvenEdges(g) — the n
// internal arcs first, then the original ones — without building the
// transformed graph's 2n rows (four times g's own). Pairs are in
// transformed numbering (Out(v), In(w)).
func WriteEvenDIMACS(w io.Writer, g *Digraph, pairs ...[2]int) error {
	return writeDIMACS(w, 2*g.N(), EvenEdges(g), pairs)
}

// writeDIMACS writes an n-vertex problem with the given arcs.
func writeDIMACS(w io.Writer, n int, edges []Edge, pairs [][2]int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c kadre connectivity graph: %d vertices, %d unit-capacity arcs\n", n, len(edges))
	fmt.Fprintf(bw, "p max %d %d\n", n, len(edges))
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return fmt.Errorf("graph: pair (%d,%d) out of range [0,%d)", p[0], p[1], n)
		}
		if p[0] == p[1] {
			return fmt.Errorf("graph: pair (%d,%d) has identical endpoints", p[0], p[1])
		}
		if i == 0 {
			fmt.Fprintf(bw, "n %d s\n", p[0]+1)
			fmt.Fprintf(bw, "n %d t\n", p[1]+1)
			continue
		}
		fmt.Fprintf(bw, "c pair %d %d\n", p[0]+1, p[1]+1)
	}
	for _, e := range edges {
		fmt.Fprintf(bw, "a %d %d 1\n", e.U+1, e.V+1)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: write dimacs: %w", err)
	}
	return nil
}
