package sweep

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"kadre/internal/scenario"
)

// Checkpointer persists every completed run as one JSON file and replays
// those files on a later sweep, so a long replicated sweep interrupted
// half-way resumes instead of restarting (the ROADMAP's "sweep resume").
//
// Files are content-addressed: a run's file is named by a hash of its Key
// and stores the full key beside the result. A run two experiments share
// therefore has one file, and a spec edit needs no bookkeeping: every run
// whose key the edit changed misses and executes again, and every run it
// left alone replays. The result is stored in scenario.Result's own JSON
// encoding — every measurement, Durations as exact nanoseconds — so a
// resumed sweep produces byte-identical CSV/JSON artefacts, and a field
// added to Result resumes without an edit here. Wall-clock Elapsed is
// deliberately not stored. Governance and MinOnly are outside the key, so
// sweeps that vary them do not share a directory (kadsweep never varies
// them).
type Checkpointer struct {
	dir string
}

// NewCheckpointer creates (if necessary) the checkpoint directory.
func NewCheckpointer(dir string) (*Checkpointer, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: checkpoint dir: %w", err)
	}
	return &Checkpointer{dir: dir}, nil
}

// Dir returns the checkpoint directory.
func (c *Checkpointer) Dir() string { return c.dir }

// ckptFile is the on-disk form of one completed run: the key that says
// whose run it is, and the result in scenario.Result's own JSON encoding.
type ckptFile struct {
	Key    string           `json:"key"`
	Result *scenario.Result `json:"result"`
}

// Fingerprint condenses every configuration field that shapes a run's
// measurements into a canonical string. Seed and Name are deliberately
// absent (Key appends the seed), as are OnSnapshot, Workers,
// Governance and MinOnly, which only affect observation, scheduling,
// maintenance and which measurements are paid for, never a measured
// value. TestFingerprintCoversEveryField holds every other Config field
// to changing it.
func Fingerprint(cfg scenario.Config) string {
	// Attack.String() renders strategy/kills/interval/budget only, so the
	// cutset analyzer's sampling fraction is keyed explicitly: it changes
	// which cut the adversary finds, hence the victims and every curve.
	fp := fmt.Sprintf("size=%d|k=%d|a=%d|b=%d|s=%d|loss=%s|churn=%s|traffic=%v|wl=%+v|setup=%d|stab=%d|phase=%d|snap=%d|c=%g|attack=%s|ac=%g|target=%s",
		cfg.Size, cfg.K, cfg.Alpha, cfg.Bits, cfg.Staleness,
		cfg.Loss, cfg.Churn, cfg.Traffic, cfg.Workload,
		cfg.Setup, cfg.Stabilize, cfg.ChurnPhase, cfg.SnapshotInterval,
		cfg.SampleFraction, cfg.Attack, cfg.Attack.SampleFraction, cfg.Attack.Target)
	// The generative workload bundle joins the fingerprint only when one
	// is configured.
	if canon := cfg.Gen.Canon(); canon != "" {
		fp += "|gen=" + canon
	}
	return fp
}

// Key is the one identity of a run: the Fingerprint of its effective
// configuration plus its effective seed. Two configs with one Key run the
// same simulation and measure the same values, whatever their names. The
// kadserve arena keys warm engines by it, a checkpoint file is addressed
// by it, and RunGroups executes a run several groups declare once.
func Key(cfg scenario.Config) string {
	eff := cfg.WithDefaults()
	return fmt.Sprintf("%s|seed=%d", Fingerprint(eff), eff.Seed)
}

// path names the file of the run keyed key.
func (c *Checkpointer) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%016x.ckpt.json", h.Sum64()))
}

// Store persists one completed run. cfg must be the job's config (its
// Seed already derived for the replication).
func (c *Checkpointer) Store(cfg scenario.Config, r *scenario.Result) error {
	key := Key(cfg)
	data, err := json.Marshal(ckptFile{Key: key, Result: r})
	if err == nil {
		err = c.write(c.path(key), data)
	}
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s seed %d: %w", cfg.Name, cfg.Seed, err)
	}
	return nil
}

// write replaces path by data through a private temporary file and a
// rename, so a crash mid-write leaves no half checkpoint, and two runs
// that store under one path at once (one key, two governance policies)
// never write into each other's file.
func (c *Checkpointer) write(path string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, "*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Load replays the stored run of cfg. A missing, unreadable or torn file,
// or one holding another key (an older layout, or a hash collision), is
// no checkpoint: it reports false, the run executes again and Store
// rewrites the file.
func (c *Checkpointer) Load(cfg scenario.Config) (*scenario.Result, bool) {
	key := Key(cfg)
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var in ckptFile
	if json.Unmarshal(data, &in) != nil || in.Key != key || in.Result == nil {
		return nil, false
	}
	in.Result.Config = cfg.WithDefaults()
	return in.Result, true
}
