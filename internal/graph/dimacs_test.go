package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestWriteDIMACSFormat(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 1)
	var buf bytes.Buffer
	if err := writeDIMACS(&buf, g.N(), g.Edges(), [][2]int{{0, 1}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	want := "c kadre connectivity graph: 2 vertices, 1 unit-capacity arcs\n" +
		"p max 2 1\nn 1 s\nn 2 t\nc pair 2 1\na 1 2 1\n"
	if buf.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// splitDIMACS separates a written problem into its header and pair lines,
// in file order, and its arc lines, sorted.
func splitDIMACS(out string) (head, arcs []string) {
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "a ") {
			arcs = append(arcs, line)
		} else {
			head = append(head, line)
		}
	}
	slices.Sort(arcs)
	return head, arcs
}

// TestWriteEvenDIMACSMatchesTransform holds WriteEvenDIMACS to the
// problem the materialised EvenTransform describes: the same header and
// pair lines and the same arc set, across word boundaries and an empty
// graph, with the n internal arcs written first.
func TestWriteEvenDIMACSMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 130} {
		g := NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.1 {
					g.AddEdge(u, v)
				}
			}
		}
		var pairs [][2]int
		if n >= 2 {
			pairs = [][2]int{{Out(0), In(n - 1)}, {Out(n - 1), In(0)}}
		}
		var got, want bytes.Buffer
		if err := WriteEvenDIMACS(&got, g, pairs...); err != nil {
			t.Fatal(err)
		}
		even := EvenTransform(g)
		if err := writeDIMACS(&want, even.N(), even.Edges(), pairs); err != nil {
			t.Fatal(err)
		}
		gotHead, gotArcs := splitDIMACS(got.String())
		wantHead, wantArcs := splitDIMACS(want.String())
		if !slices.Equal(gotHead, wantHead) {
			t.Fatalf("n=%d: header and pair lines %q, want %q", n, gotHead, wantHead)
		}
		if !slices.Equal(gotArcs, wantArcs) {
			t.Fatalf("n=%d: arc set differs from EvenTransform's:\n%q\nwant:\n%q", n, gotArcs, wantArcs)
		}
		lines := strings.Split(got.String(), "\n")[len(gotHead):]
		for v := 0; v < n; v++ {
			if want := fmt.Sprintf("a %d %d 1", In(v)+1, Out(v)+1); lines[v] != want {
				t.Fatalf("n=%d: arc %d is %q, want the internal arc %q", n, v, lines[v], want)
			}
		}
	}
	if err := WriteEvenDIMACS(&bytes.Buffer{}, NewDigraph(2), [2]int{0, 4}); err == nil {
		t.Error("out-of-range pair should fail")
	}
}

func TestWriteDIMACSRejectsBadPair(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 1)
	var buf bytes.Buffer
	if err := writeDIMACS(&buf, g.N(), g.Edges(), [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range pair should fail")
	}
	if err := writeDIMACS(&buf, g.N(), g.Edges(), [][2]int{{1, 1}}); err == nil {
		t.Error("identical endpoints should fail")
	}
}
