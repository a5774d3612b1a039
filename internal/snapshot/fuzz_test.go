package snapshot

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzSnapshotReadJSON holds the snapshot decoder to reject-or-roundtrip:
// any input either fails with an error (never a panic) or parses into a
// snapshot that WriteJSON writes and ReadJSON reads back unchanged, byte
// for byte on a second write. CI runs a short -fuzztime smoke.
func FuzzSnapshotReadJSON(f *testing.F) {
	f.Add(`{"time_ns":60000000000,"bits":64,"nodes":[{"id":"0000000000000001","addr":1},{"id":"00000000000000ff","addr":7}],"edges":[[0,1],[1,0],[0,1]]}`)
	f.Add(`{"bits":64,"nodes":[{"id":"0000000000000001","addr":1}],"edges":[[0,0]]}`)
	f.Add(`{"time_ns":0,"bits":0,"nodes":[],"edges":null}`)
	f.Add(`{"bits":160,"nodes":[{"id":"zz","addr":1}]}`)
	f.Add(`[`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatalf("accepted snapshot does not write: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written snapshot does not read back: %v\n%s", err, first.Bytes())
		}
		if back.Time != s.Time || !slices.Equal(back.IDs, s.IDs) || !slices.Equal(back.Addrs, s.Addrs) || !back.Graph.Equal(s.Graph) {
			t.Fatalf("round trip changed the snapshot:\n%s", first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
