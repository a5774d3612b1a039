package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestDIMACSRoundTrip(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 3)

	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g, [2]int{0, 3}, [2]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	prob, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Graph.N() != 4 || prob.Graph.M() != 4 {
		t.Fatalf("parsed %d vertices %d edges", prob.Graph.N(), prob.Graph.M())
	}
	for _, e := range g.Edges() {
		if !prob.Graph.HasEdge(e.U, e.V) {
			t.Fatalf("missing edge %v after round trip", e)
		}
	}
	if len(prob.Pairs) != 2 || prob.Pairs[0] != [2]int{0, 3} || prob.Pairs[1] != [2]int{1, 3} {
		t.Fatalf("pairs = %v", prob.Pairs)
	}
}

func TestWriteDIMACSFormat(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 1)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g, [2]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"p max 2 1", "n 1 s", "n 2 t", "a 1 2 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteEvenDIMACSMatchesTransform pins WriteEvenDIMACS to the bytes
// WriteDIMACS writes for the materialised EvenTransform, pairs included,
// across word boundaries and an empty graph.
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
		if err := WriteDIMACS(&want, EvenTransform(g), pairs...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: WriteEvenDIMACS differs from WriteDIMACS(EvenTransform):\n%s\nwant:\n%s", n, got.String(), want.String())
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
	if err := WriteDIMACS(&buf, g, [2]int{0, 5}); err == nil {
		t.Error("out-of-range pair should fail")
	}
	if err := WriteDIMACS(&buf, g, [2]int{1, 1}); err == nil {
		t.Error("identical endpoints should fail")
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"no problem line", "a 1 2 1\n"},
		{"bad problem", "p min 3 2\n"},
		{"duplicate problem", "p max 2 1\np max 2 1\n"},
		{"non-unit capacity", "p max 2 1\na 1 2 7\n"},
		{"arc out of range", "p max 2 1\na 1 5 1\n"},
		{"bad arc fields", "p max 2 1\na 1 x 1\n"},
		{"bad node role", "p max 2 1\nn 1 q\n"},
		{"bad pair comment", "p max 2 1\nc pair 1 x\na 1 2 1\n"},
		{"unknown descriptor", "p max 2 1\nz 1 2\n"},
		{"pair out of range", "p max 2 0\nc pair 1 9\n"},
		{"self-loop arc", "p max 2 1\na 2 2 1\n"},
		{"too many vertices", fmt.Sprintf("p max %d 0\n", MaxVertices+1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadDIMACS(strings.NewReader(tt.input)); err == nil {
				t.Errorf("input %q: expected error", tt.input)
			}
		})
	}
}

func TestReadDIMACSWithoutPairs(t *testing.T) {
	prob, err := ReadDIMACS(strings.NewReader("p max 3 2\na 1 2 1\na 2 3 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Pairs) != 0 {
		t.Fatalf("pairs = %v, want none", prob.Pairs)
	}
	if prob.Graph.M() != 2 {
		t.Fatalf("M = %d", prob.Graph.M())
	}
}

func TestReadDIMACSSkipsCommentsAndBlankLines(t *testing.T) {
	in := "c header comment\n\np max 2 1\nc another\na 1 2 1\n\n"
	prob, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if prob.Graph.N() != 2 || prob.Graph.M() != 1 {
		t.Fatal("comment/blank handling broke parsing")
	}
}

// FuzzReadDIMACS holds the DIMACS decoder to reject-or-roundtrip: any
// input either fails with an error (never a panic) or parses into a
// problem that WriteDIMACS writes and ReadDIMACS reads back unchanged,
// byte for byte on a second write. CI runs a short -fuzztime smoke.
func FuzzReadDIMACS(f *testing.F) {
	f.Add("p max 3 2\nn 1 s\nn 3 t\nc pair 2 1\na 1 2 1\na 2 3 1\n")
	f.Add("c only a comment\np max 2 1\n\na 1 2 1\na 1 2 1\n")
	f.Add("p max 2 1\na 2 2 1\n")
	f.Add("p max 40000 0\n")
	f.Add("p max 1 0\nn 1 s\n")
	f.Fuzz(func(t *testing.T, in string) {
		prob, err := ReadDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteDIMACS(&first, prob.Graph, prob.Pairs...); err != nil {
			t.Fatalf("accepted problem does not write: %v", err)
		}
		back, err := ReadDIMACS(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written problem does not read back: %v\n%s", err, first.Bytes())
		}
		if !back.Graph.Equal(prob.Graph) || !slices.Equal(back.Pairs, prob.Pairs) {
			t.Fatalf("round trip changed the problem:\n%s", first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteDIMACS(&second, back.Graph, back.Pairs...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
