package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"kadre/internal/serve"
)

// serveSpec is the serve-mixed workload file: the shape of the query
// stream and of the server it is sent to.
type serveSpec struct {
	Why              string   `json:"why"`
	Clients          int      `json:"clients"`
	Requests         int      `json:"requests"`
	Keys             int      `json:"keys"`
	ZipfS            float64  `json:"zipf_s"`
	ResampleShare    float64  `json:"resample_share"`
	ResampleFraction float64  `json:"resample_fraction"`
	ArenaBudgetMB    int      `json:"arena_budget_mb"`
	Precision        float64  `json:"precision"`
	Reps             int      `json:"reps"`
	Scale            string   `json:"scale"`
	Size             int      `json:"size"`
	ChurnMinutes     float64  `json:"churn_minutes"`
	K                []int    `json:"k"`
	Churn            []string `json:"churn"`
}

// loadServeSpec reads and validates a serve workload file.
func loadServeSpec(path string) (*serveSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve spec: %w", err)
	}
	var sp serveSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("serve spec %s: %w", path, err)
	}
	shapes := len(sp.K) * len(sp.Churn)
	switch {
	case sp.Clients < 1 || sp.Requests < 1 || sp.Reps < 2:
		return nil, fmt.Errorf("serve spec %s: clients, requests must be >= 1 and reps >= 2", path)
	case shapes == 0 || sp.Keys < shapes || sp.Keys%shapes != 0:
		return nil, fmt.Errorf("serve spec %s: keys %d is not a positive multiple of the %d k x churn shapes", path, sp.Keys, shapes)
	case sp.ZipfS <= 0 || sp.ResampleShare < 0 || sp.ResampleShare > 1:
		return nil, fmt.Errorf("serve spec %s: zipf_s must be positive and resample_share within [0,1]", path)
	}
	return &sp, nil
}

// splitmix64 is the stream generator: the whole query stream is a pure
// function of the benchmark seed.
type splitmix64 struct{ s uint64 }

func (g *splitmix64) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (g *splitmix64) float() float64 { return float64(g.next()>>11) / (1 << 53) }

// seed31 returns a positive seed, so the scenario layer's "seed 0 means
// 1" default can never fold two stream seeds into one.
func (g *splitmix64) seed31() int64 { return int64(g.next()>>33) + 1 }

// request is one generated query: the bytes to POST plus what the
// client needs to class and check the answer.
type request struct {
	Body     []byte
	Key      int // scenario key index
	Resample bool
}

// keySpecs returns the scenario block of every key for the given seed:
// the k x churn shapes repeat every len(K)*len(Churn) keys, each round
// under a fresh scenario seed.
func (sp *serveSpec) keySpecs(seed int64) []serve.ScenarioSpec {
	g := splitmix64{s: uint64(seed)}
	shapes := len(sp.K) * len(sp.Churn)
	seeds := make([]int64, sp.Keys/shapes)
	for i := range seeds {
		seeds[i] = g.seed31()
	}
	keys := make([]serve.ScenarioSpec, sp.Keys)
	for i := range keys {
		shape := i % shapes
		keys[i] = serve.ScenarioSpec{
			Scale: sp.Scale, Size: sp.Size, ChurnMinutes: sp.ChurnMinutes,
			K: sp.K[shape%len(sp.K)], Churn: sp.Churn[shape/len(sp.K)],
			Seed: seeds[i/shapes],
		}
	}
	return keys
}

// genStream generates the whole request stream up front, so the timed
// loop only sends. Key i recurs at its Zipf(s) frequency p_i: its j-th
// occurrence is due at (j + phase_i + jitter_ij) / p_i, with the phase
// and the jitter drawn from the seed, and the stream is every key's
// occurrences merged by due time. Frequencies — and with them the
// arena's hit ratio — are therefore the same for every seed and over any
// window of the stream, while the order of keys is the seed's. Key rank
// equals key index, so ranks cycle through the k x churn shapes and no
// seed makes one shape popular; the workload file lists the middle k
// first, so that the most frequent keys, 57 % of the stream, are the
// middle mode of the resample latencies and their median lies inside a
// mode, not on the edge between two. A resample_share of each key's
// occurrences, evenly spaced, ask for final_avg re-sampled on the warm
// engine under a fresh resample seed; the rest ask for the plain
// churn_min_mean.
func (sp *serveSpec) genStream(seed int64) ([]request, error) {
	keys := sp.keySpecs(seed)
	// A second generator, so changing the key count never shifts the draws.
	g := splitmix64{s: uint64(seed) ^ 0x5eed5eed5eed5eed}

	total := 0.0
	for r := 0; r < sp.Keys; r++ {
		total += 1 / math.Pow(float64(r+1), sp.ZipfS)
	}
	type due struct {
		at       float64
		key      int
		resample bool
	}
	var dues []due
	for key := 0; key < sp.Keys; key++ {
		p := 1 / math.Pow(float64(key+1), sp.ZipfS) / total
		phase, turn := g.float(), g.float()
		for j := 0; ; j++ {
			at := (float64(j) + phase + 0.5*g.float()) / p
			if at >= float64(sp.Requests) {
				break
			}
			// Bresenham spacing: occurrence j is a resample whenever the
			// running share crosses an integer.
			resample := math.Floor((float64(j+1)+turn)*sp.ResampleShare) > math.Floor((float64(j)+turn)*sp.ResampleShare)
			dues = append(dues, due{at: at, key: key, resample: resample})
		}
	}
	sort.SliceStable(dues, func(i, j int) bool { return dues[i].at < dues[j].at })

	precision := sp.Precision
	out := make([]request, len(dues))
	for i, d := range dues {
		qs := serve.QuerySpec{
			Scenario:  keys[d.key],
			Metric:    serve.MetricChurnMinMean,
			Precision: &precision,
			MinReps:   sp.Reps, MaxReps: sp.Reps,
		}
		if d.resample {
			qs.Metric = serve.MetricFinalAvg
			qs.Resample = &serve.ResampleSpec{Fraction: sp.ResampleFraction, Seed: g.seed31()}
		}
		body, err := json.Marshal(qs)
		if err != nil {
			return nil, fmt.Errorf("serve stream: %w", err)
		}
		out[i] = request{Body: body, Key: d.key, Resample: d.resample}
	}
	return out, nil
}
