package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kadre/internal/scenario"
)

// Checkpointer persists every completed run as one JSON file and replays
// those files on a later sweep, so a long replicated sweep interrupted
// half-way resumes instead of restarting (the ROADMAP's "sweep resume").
//
// A checkpoint stores the run in scenario.Result's own JSON encoding —
// every measurement, Durations as exact nanoseconds — so a resumed sweep
// produces byte-identical CSV/JSON artefacts, and a field added to Result
// resumes without an edit here. Wall-clock Elapsed is deliberately not
// stored (it is excluded from all deterministic outputs). Files are keyed
// by experiment, run name, replication index, and derived seed, and carry
// a fingerprint of the effective configuration; Load says what a mismatch
// means.
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
	Name        string `json:"name"`
	Rep         int    `json:"rep"`
	Seed        int64  `json:"seed"`
	Fingerprint string `json:"fingerprint"`
	// SpecDigest fingerprints the scenario spec file the run's config was
	// resolved from (empty for a config built in Go). Resume refuses to mix
	// results across different digests.
	SpecDigest string           `json:"spec_digest,omitempty"`
	Result     *scenario.Result `json:"result"`
}

// Fingerprint condenses every configuration field that shapes a run's
// measurements into a canonical string. Seed and Name are deliberately
// absent (checkpoints key them separately; caches append the seed
// themselves), as are Log/OnSnapshot, Workers, Governance and MinOnly,
// which only affect observation, scheduling, maintenance and which
// measurements are paid for, never a measured value. Shared
// by checkpoint resume and by cross-run warm-state caches (the kadserve
// engine arena), so one definition decides what "the same run" means.
func Fingerprint(cfg scenario.Config) string {
	// Attack.String() renders strategy/kills/interval/budget only, so the
	// cutset analyzer's sampling fraction is keyed explicitly: it changes
	// which cut the adversary finds, hence the victims and every curve.
	// Workers is deliberately absent — results are worker-independent.
	fp := fmt.Sprintf("size=%d|k=%d|a=%d|b=%d|s=%d|loss=%s|churn=%s|traffic=%v|wl=%+v|setup=%d|stab=%d|phase=%d|snap=%d|c=%g|attack=%s|ac=%g|target=%s",
		cfg.Size, cfg.K, cfg.Alpha, cfg.Bits, cfg.Staleness,
		cfg.Loss, cfg.Churn, cfg.Traffic, cfg.Workload,
		cfg.Setup, cfg.Stabilize, cfg.ChurnPhase, cfg.SnapshotInterval,
		cfg.SampleFraction, cfg.Attack, cfg.Attack.SampleFraction, cfg.Attack.Target)
	// The generative workload bundle joins the fingerprint only when one
	// is configured, so every pre-existing fingerprint (and the cache keys
	// derived from it, e.g. kadserve's arena/query names) is unchanged.
	if canon := cfg.Gen.Canon(); canon != "" {
		fp += "|gen=" + canon
	}
	return fp
}

// sanitize flattens a run name into a safe file-name fragment.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// path files a run under its experiment's subdirectory, so two experiments
// may reuse a run name and seed (the catalogue's figure6 and table2 both
// define SimE/k=5 at seed offset 0); a run outside any experiment ("")
// lies in the directory itself.
func (c *Checkpointer) path(exp string, cfg scenario.Config, rep int) string {
	file := fmt.Sprintf("%s_r%d_s%d.ckpt.json", sanitize(cfg.Name), rep, cfg.Seed)
	if exp == "" {
		return filepath.Join(c.dir, file)
	}
	return filepath.Join(c.dir, sanitize(exp), file)
}

// Store persists one completed run of experiment exp. cfg must be the
// job's config (its Seed already derived for the replication).
func (c *Checkpointer) Store(exp string, cfg scenario.Config, rep int, r *scenario.Result) error {
	eff := cfg.WithDefaults()
	out := ckptFile{
		Name: cfg.Name, Rep: rep, Seed: eff.Seed, Fingerprint: Fingerprint(eff),
		SpecDigest: eff.SpecDigest, Result: r,
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s rep %d: %w", cfg.Name, rep, err)
	}
	// Write-then-rename so a crash mid-write leaves no half checkpoint
	// that a resume would have to distrust.
	path := c.path(exp, cfg, rep)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sweep: checkpoint %s rep %d: %w", cfg.Name, rep, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("sweep: checkpoint %s rep %d: %w", cfg.Name, rep, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sweep: checkpoint %s rep %d: %w", cfg.Name, rep, err)
	}
	return nil
}

// Load reconstructs a previously stored run of experiment exp. It reports (nil, false,
// nil) when no usable checkpoint exists — missing, unreadable, or keyed
// to a different run — and the sweep simply re-executes. But a
// checkpoint that IS this run's (experiment, name, rep, seed match) while its
// configuration fingerprint or scenario-spec digest differs means the
// experiment definition changed since the checkpoint was written;
// silently re-running (or worse, replaying) would mix results from two
// different experiments into one artefact, so Load fails loudly instead
// and the caller aborts the sweep.
func (c *Checkpointer) Load(exp string, cfg scenario.Config, rep int) (*scenario.Result, bool, error) {
	path := c.path(exp, cfg, rep)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, nil
	}
	var in ckptFile
	if err := json.Unmarshal(data, &in); err != nil || in.Result == nil {
		// A corrupt file (e.g. a torn write from a hard kill predating the
		// rename protocol) or one without a result object (the field-by-field
		// layout of earlier versions) is not a definition change: re-run and
		// rewrite.
		return nil, false, nil
	}
	eff := cfg.WithDefaults()
	if in.Name != cfg.Name || in.Rep != rep || in.Seed != eff.Seed {
		return nil, false, nil
	}
	if in.Fingerprint != Fingerprint(eff) {
		return nil, false, fmt.Errorf(
			"sweep: checkpoint %s holds run %q rep %d under a different experiment definition (checkpoint %q, current %q): the config or spec changed since the sweep was checkpointed — use a fresh checkpoint directory or delete the stale files",
			path, cfg.Name, rep, in.Fingerprint, Fingerprint(eff))
	}
	if in.SpecDigest != "" && eff.SpecDigest != "" && in.SpecDigest != eff.SpecDigest {
		return nil, false, fmt.Errorf(
			"sweep: checkpoint %s was written from scenario spec digest %s but the current spec digests to %s: the spec file changed since the sweep was checkpointed — use a fresh checkpoint directory or delete the stale files",
			path, in.SpecDigest, eff.SpecDigest)
	}
	in.Result.Config = eff
	return in.Result, true, nil
}
