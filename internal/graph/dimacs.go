package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DIMACS max-flow problem format, the input format of the HIPR solver the
// paper used. Vertices are 1-indexed in the file and 0-indexed in memory.
// Like the authors' modified HIPR, this implementation supports multiple
// source/target pairs per file, encoded as extension comment lines of the
// form "c pair <s> <t>" (also 1-indexed).

// DIMACSProblem is a parsed DIMACS max-flow file: a unit-capacity digraph
// plus one or more source/target pairs.
type DIMACSProblem struct {
	Graph *Digraph
	// Pairs holds the (source, target) vertex pairs to solve, 0-indexed.
	// The primary "n ... s"/"n ... t" pair comes first if present.
	Pairs [][2]int
}

// WriteDIMACS serialises a unit-capacity digraph as a DIMACS max-flow
// problem. The first pair becomes the standard source/sink lines; any
// further pairs are written as "c pair" extension lines.
func WriteDIMACS(w io.Writer, g *Digraph, pairs ...[2]int) error {
	return writeDIMACS(w, g.N(), g.Edges(), pairs)
}

// WriteEvenDIMACS writes the Even transformation of g as a DIMACS
// max-flow problem, byte for byte what WriteDIMACS(w, EvenTransform(g),
// pairs...) writes, without building the transformed graph's 2n rows
// (four times g's own). Pairs are in transformed numbering (Out(v),
// In(w)).
func WriteEvenDIMACS(w io.Writer, g *Digraph, pairs ...[2]int) error {
	edges := make([]Edge, 0, g.n+g.m)
	for u := 0; u < g.n; u++ {
		edges = append(edges, Edge{U: In(u), V: Out(u)})
		g.eachSucc(u, func(v int) { edges = append(edges, Edge{U: Out(u), V: In(v)}) })
	}
	return writeDIMACS(w, 2*g.n, edges, pairs)
}

// writeDIMACS writes an n-vertex problem with the given arcs.
func writeDIMACS(w io.Writer, n int, edges []Edge, pairs [][2]int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c kadre connectivity graph: %d vertices, %d unit-capacity arcs\n", n, len(edges))
	fmt.Fprintf(bw, "p max %d %d\n", n, len(edges))
	for i, p := range pairs {
		if err := checkPair(n, p); err != nil {
			return err
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

// ReadDIMACS parses a DIMACS max-flow problem. Arc capacities other than 1
// are rejected: the connectivity pipeline only ever deals in unit
// capacities, and accepting anything else would silently corrupt results.
// Self-loop arcs and vertex counts above MaxVertices are errors too.
func ReadDIMACS(r io.Reader) (*DIMACSProblem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var (
		g          *Digraph
		src, tgt   = -1, -1
		extraPairs [][2]int
		lineNo     int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "c":
			if len(fields) == 4 && fields[1] == "pair" {
				u, err1 := strconv.Atoi(fields[2])
				v, err2 := strconv.Atoi(fields[3])
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("graph: dimacs line %d: bad pair comment %q", lineNo, line)
				}
				extraPairs = append(extraPairs, [2]int{u - 1, v - 1})
			}
		case "p":
			if g != nil {
				return nil, fmt.Errorf("graph: dimacs line %d: duplicate problem line", lineNo)
			}
			if len(fields) != 4 || fields[1] != "max" {
				return nil, fmt.Errorf("graph: dimacs line %d: want 'p max <n> <m>', got %q", lineNo, line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad vertex count %q", lineNo, fields[2])
			}
			if n > MaxVertices {
				return nil, fmt.Errorf("graph: dimacs line %d: %d vertices exceed the limit of %d", lineNo, n, MaxVertices)
			}
			g = NewDigraph(n)
		case "n":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad node descriptor %q", lineNo, line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: dimacs line %d: bad vertex %q", lineNo, fields[1])
			}
			switch fields[2] {
			case "s":
				src = v - 1
			case "t":
				tgt = v - 1
			default:
				return nil, fmt.Errorf("graph: dimacs line %d: node role %q is not s/t", lineNo, fields[2])
			}
		case "a":
			if g == nil {
				return nil, fmt.Errorf("graph: dimacs line %d: arc before problem line", lineNo)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad arc %q", lineNo, line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			cap, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: dimacs line %d: bad arc %q", lineNo, line)
			}
			if cap != 1 {
				return nil, fmt.Errorf("graph: dimacs line %d: capacity %d unsupported (unit capacities only)", lineNo, cap)
			}
			if u-1 < 0 || u-1 >= g.N() || v-1 < 0 || v-1 >= g.N() {
				return nil, fmt.Errorf("graph: dimacs line %d: arc endpoint out of range", lineNo)
			}
			if u == v {
				return nil, fmt.Errorf("graph: dimacs line %d: self-loop arc at vertex %d", lineNo, u)
			}
			g.AddEdge(u-1, v-1)
		default:
			return nil, fmt.Errorf("graph: dimacs line %d: unknown descriptor %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read dimacs: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graph: dimacs input has no problem line")
	}
	prob := &DIMACSProblem{Graph: g}
	if src >= 0 && tgt >= 0 {
		prob.Pairs = append(prob.Pairs, [2]int{src, tgt})
	}
	prob.Pairs = append(prob.Pairs, extraPairs...)
	for _, p := range prob.Pairs {
		if err := checkPair(g.N(), p); err != nil {
			return nil, err
		}
	}
	return prob, nil
}

func checkPair(n int, p [2]int) error {
	if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
		return fmt.Errorf("graph: pair (%d,%d) out of range [0,%d)", p[0], p[1], n)
	}
	if p[0] == p[1] {
		return fmt.Errorf("graph: pair (%d,%d) has identical endpoints", p[0], p[1])
	}
	return nil
}
