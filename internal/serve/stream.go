package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
)

// jsonFloat is a float64 that encodes NaN as null (the CI half-width of
// a single replication has no value; encoding/json rejects NaN).
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// repRecord is one consumed replication on the wire: the rep's metric
// value and the running statistics over the consumed prefix. Identical
// under any server -max-concurrent-sims setting.
type repRecord struct {
	Type    string    `json:"type"` // "rep"
	Rep     int       `json:"rep"`
	Seed    int64     `json:"seed"`
	Value   jsonFloat `json:"value"`
	Reps    int       `json:"reps"`
	Mean    jsonFloat `json:"mean"`
	CI95    jsonFloat `json:"ci95"`
	Decided bool      `json:"decided"`
	Verdict string    `json:"verdict"`
	Cached  bool      `json:"cached"`
}

// resultRecord is the query's final verdict. Every field is
// deterministic for a spec and a given arena temperature — wall-clock
// and speculative-execution counts are deliberately absent — so warmed
// repeat queries golden-compare byte for byte.
type resultRecord struct {
	Type        string      `json:"type"` // "result"
	Name        string      `json:"name"`
	Metric      string      `json:"metric"`
	Verdict     string      `json:"verdict"`
	Reps        int         `json:"reps"`
	Values      []jsonFloat `json:"values"`
	Mean        jsonFloat   `json:"mean"`
	CI95        jsonFloat   `json:"ci95"`
	Threshold   *float64    `json:"threshold,omitempty"`
	Precision   *float64    `json:"precision,omitempty"`
	ArenaHits   int         `json:"arena_hits"`
	ArenaMisses int         `json:"arena_misses"`
}

type errorRecord struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// streamWriter emits query records as NDJSON (default) or Server-Sent
// Events (Accept: text/event-stream), flushing after every record so
// clients see replication progress live. A write failure (client gone)
// silences subsequent writes; the query itself runs to completion and
// warms the arena either way.
type streamWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	sse     bool
	started bool
	dead    bool
}

func newStreamWriter(w http.ResponseWriter, r *http.Request) *streamWriter {
	sw := &streamWriter{w: w}
	sw.flusher, _ = w.(http.Flusher)
	sw.sse = strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	return sw
}

// Started reports whether any record (and therefore the 200 status) has
// gone out. While false, the handler still owns the status line and can
// answer a failure with a real HTTP error code.
func (sw *streamWriter) Started() bool { return sw.started }

func (sw *streamWriter) write(event string, v any) {
	if sw.dead {
		return
	}
	if !sw.started {
		sw.started = true
		if sw.sse {
			sw.w.Header().Set("Content-Type", "text/event-stream")
			sw.w.Header().Set("Cache-Control", "no-cache")
		} else {
			sw.w.Header().Set("Content-Type", "application/x-ndjson")
		}
		sw.w.WriteHeader(http.StatusOK)
	}
	data, err := json.Marshal(v)
	if err != nil {
		sw.dead = true
		return
	}
	if sw.sse {
		_, err = sw.w.Write([]byte("event: " + event + "\ndata: " + string(data) + "\n\n"))
	} else {
		_, err = sw.w.Write(append(data, '\n'))
	}
	if err != nil {
		sw.dead = true
		return
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}
