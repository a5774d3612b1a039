package sweep

import (
	"encoding/json"
	"io"
	"math"

	"kadre/internal/stats"
)

// The JSON schema mirrors the RunSet structure: one document per
// experiment, one entry per configuration, carrying both the raw per-rep
// snapshot series and the cross-rep aggregates. Undefined statistics (the
// CI of a single replication) encode as null, never as fabricated zeros.
// Wall-clock timings are deliberately excluded so that the same sweep
// always serializes to identical bytes — golden tests depend on it.

// JSONFile is the top-level document written by WriteJSON.
type JSONFile struct {
	Experiment string    `json:"experiment"`
	Title      string    `json:"title"`
	Scale      string    `json:"scale,omitempty"`
	Reps       int       `json:"reps"`
	Runs       []JSONRun `json:"runs"`
}

// JSONRun is one configuration with its replications and aggregates.
type JSONRun struct {
	Name      string `json:"name"`
	BaseSeed  int64  `json:"base_seed"`
	Size      int    `json:"size"`
	K         int    `json:"k"`
	Alpha     int    `json:"alpha"`
	Bits      int    `json:"bits"`
	Staleness int    `json:"staleness"`
	Churn     string `json:"churn"`
	Loss      string `json:"loss"`
	Traffic   bool   `json:"traffic"`
	// Attack describes the adversary ("" when the run has none).
	Attack string `json:"attack,omitempty"`

	Reps      []JSONRep     `json:"reps"`
	Aggregate JSONAggregate `json:"aggregate"`
}

// JSONRep is the raw outcome of one seeded replication.
type JSONRep struct {
	Seed         int64       `json:"seed"`
	Points       []JSONPoint `json:"points"`
	ChurnAdded   int         `json:"churn_added"`
	ChurnRemoved int         `json:"churn_removed"`
	TrafficOps   int         `json:"traffic_ops"`
	// Generative-workload membership actions; absent for runs without a
	// workload bundle, so pre-spec documents are byte-identical.
	WorkloadJoins  int          `json:"workload_joins,omitempty"`
	WorkloadLeaves int          `json:"workload_leaves,omitempty"`
	AttackRemoved  int          `json:"attack_removed,omitempty"`
	Victims        []JSONVictim `json:"victims,omitempty"`
	MsgSent        uint64       `json:"msg_sent"`
	MsgLost        uint64       `json:"msg_lost"`
	// Memory reports the run's memory-governance outcome; absent when
	// governance was disabled for the run.
	Memory *JSONMemory `json:"memory,omitempty"`
}

// JSONMemory is one replication's memory-governance outcome: how many
// slot-table compactions the policy triggered and the end-of-run slot
// utilization, whose floor is the serialized form of the long-run memory
// bound. Deterministic for a config — independent of the worker count —
// like every other field.
type JSONMemory struct {
	SlotCompactions int     `json:"slot_compactions"`
	SlotUtilization float64 `json:"slot_utilization"`
}

// JSONVictim is one adversarial removal.
type JSONVictim struct {
	TMin float64 `json:"t_min"`
	Addr uint64  `json:"addr"`
	ID   string  `json:"id"`
}

// JSONPoint is one snapshot of one replication.
type JSONPoint struct {
	TMin     float64 `json:"t_min"`
	N        int     `json:"n"`
	Edges    int     `json:"edges"`
	Min      int     `json:"min_conn"`
	Avg      float64 `json:"avg_conn"`
	Symmetry float64 `json:"symmetry"`
	SCCFrac  float64 `json:"scc_frac"`
	Removed  int     `json:"removed,omitempty"`
}

// JSONAggregate carries the cross-rep curves and the churn-window summary.
type JSONAggregate struct {
	Min         []JSONAggPoint `json:"min_conn"`
	Avg         []JSONAggPoint `json:"avg_conn"`
	Size        []JSONAggPoint `json:"size"`
	SCC         []JSONAggPoint `json:"scc_frac"`
	Removed     []JSONAggPoint `json:"removed,omitempty"`
	ChurnWindow JSONChurnStat  `json:"churn_window"`
}

// JSONAggPoint is one cross-rep aggregate at one snapshot instant.
type JSONAggPoint struct {
	TMin float64  `json:"t_min"`
	Mean float64  `json:"mean"`
	Std  float64  `json:"std"`
	CI95 *float64 `json:"ci95"` // null when undefined (single rep)
	Min  float64  `json:"min"`
	Max  float64  `json:"max"`
}

// JSONChurnStat summarizes the per-rep churn-window means (Table 2's
// quantity) across replications.
type JSONChurnStat struct {
	Means []*float64 `json:"rep_means"`
	Mean  *float64   `json:"mean"`
	CI95  *float64   `json:"ci95"`
}

func finiteOrNil(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func aggPoints(a *stats.AggregateSeries) []JSONAggPoint {
	out := make([]JSONAggPoint, 0, a.Len())
	for _, p := range a.Points {
		out = append(out, JSONAggPoint{
			TMin: p.T.Minutes(), Mean: p.Mean, Std: p.Std,
			CI95: finiteOrNil(p.CI95), Min: p.Min, Max: p.Max,
		})
	}
	return out
}

// JSONMeta labels a document; Scale is informational only. No worker
// count goes in, so a sweep's document is the same for any -jobs value.
type JSONMeta struct {
	Experiment string
	Title      string
	Scale      string
}

// BuildJSON assembles the document for a finished sweep.
func BuildJSON(meta JSONMeta, sets []*RunSet) *JSONFile {
	file := &JSONFile{
		Experiment: meta.Experiment,
		Title:      meta.Title,
		Scale:      meta.Scale,
		Runs:       make([]JSONRun, 0, len(sets)),
	}
	for _, rs := range sets {
		if file.Reps == 0 {
			file.Reps = len(rs.Reps)
		}
		// Render the effective configuration (zero loss reads "none", not
		// "LossLevel(0)"); the seed is already the derived rep-0 seed.
		cfg := rs.Config.WithDefaults()
		run := JSONRun{
			Name: cfg.Name, BaseSeed: cfg.Seed, Size: cfg.Size,
			K: cfg.K, Alpha: cfg.Alpha, Bits: cfg.Bits, Staleness: cfg.Staleness,
			Churn: cfg.Churn.String(), Loss: cfg.Loss.String(), Traffic: cfg.Traffic,
		}
		if cfg.Attack.Enabled() {
			run.Attack = cfg.Attack.String()
		}
		for _, r := range rs.Reps {
			rep := JSONRep{
				Seed:           r.Config.Seed,
				ChurnAdded:     r.ChurnAdded,
				ChurnRemoved:   r.ChurnRemoved,
				TrafficOps:     r.TrafficOps,
				WorkloadJoins:  r.WorkloadJoins,
				WorkloadLeaves: r.WorkloadLeaves,
				AttackRemoved:  r.AttackRemoved,
				MsgSent:        r.Network.Sent,
				MsgLost:        r.Network.Lost,
				Points:         make([]JSONPoint, 0, len(r.Points)),
			}
			if cfg.Governance.Enabled() {
				rep.Memory = &JSONMemory{
					SlotCompactions: r.SlotCompactions,
					SlotUtilization: r.SlotUtilization,
				}
			}
			for _, v := range r.Victims {
				rep.Victims = append(rep.Victims, JSONVictim{
					TMin: v.Time.Minutes(), Addr: uint64(v.Addr), ID: v.ID.String(),
				})
			}
			for _, p := range r.Points {
				rep.Points = append(rep.Points, JSONPoint{
					TMin: p.Time.Minutes(), N: p.N, Edges: p.Edges,
					Min: p.Min, Avg: p.Avg, Symmetry: p.Symmetry,
					SCCFrac: p.SCC, Removed: p.Removed,
				})
			}
			run.Reps = append(run.Reps, rep)
		}
		means := rs.ChurnWindowMeans()
		jsonMeans := make([]*float64, len(means))
		for i, m := range means {
			jsonMeans[i] = finiteOrNil(m)
		}
		run.Aggregate = JSONAggregate{
			Min:  aggPoints(rs.Min),
			Avg:  aggPoints(rs.Avg),
			Size: aggPoints(rs.Size),
			SCC:  aggPoints(rs.SCC),
			ChurnWindow: JSONChurnStat{
				Means: jsonMeans,
				Mean:  finiteOrNil(stats.Mean(means)),
				CI95:  finiteOrNil(stats.CI95Half(means)),
			},
		}
		if cfg.Attack.Enabled() {
			run.Aggregate.Removed = aggPoints(rs.Removed)
		}
		file.Runs = append(file.Runs, run)
	}
	return file
}

// WriteJSON serializes a finished sweep as an indented JSON document.
func WriteJSON(w io.Writer, meta JSONMeta, sets []*RunSet) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildJSON(meta, sets))
}
