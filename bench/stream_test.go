package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"kadre/internal/serve"
)

func loadServeMixed(t *testing.T) *serveSpec {
	t.Helper()
	sp, err := loadServeSpec(filepath.Join("workloads", "serve-mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func keyOrder(stream []request) []int {
	keys := make([]int, len(stream))
	for i, r := range stream {
		keys[i] = r.Key
	}
	return keys
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	sp := loadServeMixed(t)
	a, err := sp.genStream(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.genStream(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("same seed, request %d differs:\n%s\n%s", i, a[i].Body, b[i].Body)
		}
	}

	c, err := sp.genStream(8)
	if err != nil {
		t.Fatal(err)
	}
	ka, kc := keyOrder(a), keyOrder(c)
	same := len(ka) == len(kc)
	for i := 0; same && i < len(ka); i++ {
		same = ka[i] == kc[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 produce the same key order")
	}
	if bytes.Equal(a[0].Body, c[0].Body) && bytes.Equal(a[1].Body, c[1].Body) {
		t.Fatal("seeds 7 and 8 query the same scenarios")
	}
}

func TestStreamShape(t *testing.T) {
	sp := loadServeMixed(t)
	stream, err := sp.genStream(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(len(stream)-sp.Requests)) > float64(sp.Keys) {
		t.Fatalf("stream has %d requests, spec asks for %d", len(stream), sp.Requests)
	}

	// Key frequencies follow Zipf(s) over any window, not just in the
	// limit: that is what keeps the hit ratio the same for every seed.
	total := 0.0
	for r := 0; r < sp.Keys; r++ {
		total += 1 / math.Pow(float64(r+1), sp.ZipfS)
	}
	for _, window := range [][2]int{{0, 400}, {400, 800}, {0, len(stream)}} {
		counts := make([]int, sp.Keys)
		resamples := 0
		for _, r := range stream[window[0]:window[1]] {
			counts[r.Key]++
			if r.Resample {
				resamples++
			}
		}
		n := float64(window[1] - window[0])
		for key, got := range counts {
			want := n / math.Pow(float64(key+1), sp.ZipfS) / total
			if math.Abs(float64(got)-want) > 2 {
				t.Errorf("window %v: key %d occurs %d times, Zipf share is %.1f", window, key, got, want)
			}
		}
		if want := n * sp.ResampleShare; math.Abs(float64(resamples)-want) > float64(sp.Keys) {
			t.Errorf("window %v: %d resamples, share is %.0f", window, resamples, want)
		}
	}

	// Every body is a query the server accepts, and keys of the stream are
	// the keys the traced run resolves.
	distinct := map[string]bool{}
	seeds := map[int64]bool{}
	for i, r := range stream {
		var qs serve.QuerySpec
		dec := json.NewDecoder(bytes.NewReader(r.Body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&qs); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		q, err := qs.Resolve()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		distinct[q.Config.Name] = true
		if r.Resample != (qs.Resample != nil) {
			t.Fatalf("request %d: resample flag %v, body %s", i, r.Resample, r.Body)
		}
		if qs.Resample != nil {
			if seeds[qs.Resample.Seed] {
				t.Fatalf("request %d reuses resample seed %d", i, qs.Resample.Seed)
			}
			seeds[qs.Resample.Seed] = true
		}
	}
	if len(distinct) != sp.Keys {
		t.Fatalf("stream queries %d distinct scenarios, spec has %d keys", len(distinct), sp.Keys)
	}
	cfgs, err := sp.keyConfigs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		if !distinct[cfg.Name] {
			t.Fatalf("traced config %s is not a scenario of the stream", cfg.Name)
		}
	}
}
