// Package api is the wire protocol of the latency-campaign service: the
// campaign submission spec, job status and progress-event shapes shared by
// internal/server and internal/client, and the content address that makes
// the service a cache rather than a job queue.
//
// A campaign's identity is derived from its content, not from when or by
// whom it was submitted: CampaignID hashes the ordered list of per-cell
// checkpoint fingerprints (store.Fingerprint over base seed, cell key and
// the canonical config with the derived per-cell seed filled in — exactly
// the key the on-disk result cache files live under). Two submissions of
// the same campaign therefore map to the same job, in flight or finished,
// and a campaign executed by the server shares cell-level cache entries
// with the same campaign run locally against the same store directory.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
)

// CellSpec is one submitted measurement cell: the stable key its seed is
// derived from and its run configuration (Config.Seed is ignored — the
// runner overwrites it with the seed derived from the campaign base seed
// and the key, as in internal/campaign).
type CellSpec struct {
	Key    string         `json:"key"`
	Config core.RunConfig `json:"config"`
}

// CampaignSpec is the POST /v1/campaigns request body: a base seed and the
// ordered cell list. Order matters — the campaign's result stream is one
// core.EncodeResult document per cell, in this order.
type CampaignSpec struct {
	BaseSeed uint64     `json:"base_seed"`
	Cells    []CellSpec `json:"cells"`
	// Precision, if set, turns every cell into a logical cell run under the
	// adaptive-replica policy: replicas "<key>/0", "<key>/1", ... are added
	// until the policy's tail quantiles converge (or its MaxRuns cap is
	// hit), and the result stream carries one pooled document per logical
	// cell. The policy is part of the campaign identity — CampaignID folds
	// its canonical form in, so the same cells at a different precision are
	// a different campaign — but not of the per-replica cache fingerprints,
	// because a replica's result does not depend on the stopping rule that
	// requested it (see DESIGN.md §12).
	Precision *stats.Precision `json:"precision,omitempty"`
}

// Seed returns the effective base seed (the runner treats 0 as 1, so the
// content address must too).
func (s *CampaignSpec) Seed() uint64 {
	if s.BaseSeed == 0 {
		return 1
	}
	return s.BaseSeed
}

// Validate rejects specs the campaign runner would panic on (empty cell
// list, empty or duplicate keys) before they reach a worker pool.
func (s *CampaignSpec) Validate() error {
	if len(s.Cells) == 0 {
		return fmt.Errorf("api: campaign has no cells")
	}
	seen := make(map[string]struct{}, len(s.Cells))
	for i, c := range s.Cells {
		if c.Key == "" {
			return fmt.Errorf("api: cell %d has an empty key", i)
		}
		if _, dup := seen[c.Key]; dup {
			return fmt.Errorf("api: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = struct{}{}
	}
	if s.Precision != nil {
		if err := s.Precision.Validate(); err != nil {
			return fmt.Errorf("api: invalid precision policy: %w", err)
		}
	}
	return nil
}

// CellFingerprint returns the store fingerprint of cell c in a campaign
// with base seed seed: store.Fingerprint over the seed, the key and the
// config with the seed the campaign runner derives for it, the key the
// runner looks the cell up under.
func CellFingerprint(seed uint64, c CellSpec) string {
	cfg := c.Config
	cfg.Seed = sim.DeriveSeed(seed, c.Key)
	return store.Fingerprint(seed, c.Key, cfg)
}

// CampaignID is the campaign's content address: SHA-256 over the ordered
// per-cell store fingerprints (each of which already covers the codec
// version, base seed, cell key and canonical config with the derived
// seed), plus — for adaptive campaigns — the canonical form of the
// precision policy, because precision changes the pooled result stream.
// Identical campaigns — same seed, same cells, same order, same policy —
// hash identical; reordering the cells changes the result stream and
// therefore the ID. Fixed-replica campaigns (nil Precision) hash exactly
// as before the policy existed, so published IDs stay stable.
func CampaignID(s *CampaignSpec) string {
	seed := s.Seed()
	h := sha256.New()
	fmt.Fprintf(h, "wdmlat-campaign\x00%d\x00%d\x00", seed, len(s.Cells))
	for _, c := range s.Cells {
		fmt.Fprintf(h, "%s\x00", CellFingerprint(seed, c))
	}
	if s.Precision != nil {
		fmt.Fprintf(h, "precision\x00%s\x00", s.Precision.Canonical())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Job states, in lifecycle order. Queued and Running are transient;
// Done, Failed and Cancelled are terminal.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// TerminalState reports whether a job in this state will never change
// again (its events stream has ended and its status is final).
func TerminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Status is a job's externally visible state: GET /v1/campaigns/{id}, and
// the body of a successful submission.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Done/Total count published cells (any outcome) out of cells
	// submitted, exactly as campaign.Runner.Progress reports them.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Cached is set on terminal jobs that executed zero cells: every cell
	// was served from the content-addressed result cache.
	Cached bool `json:"cached"`
	// Error carries the failure (or cancellation) detail on terminal
	// non-done jobs.
	Error string `json:"error,omitempty"`
}

// Event kinds on the NDJSON /events stream.
const (
	EventState = "state" // job changed state; State is set
	EventCell  = "cell"  // one cell was published; Key is set
)

// Event is one line of GET /v1/campaigns/{id}/events. Seq numbers are
// dense from 0, so a watcher that saw event N resumes with ?from=N+1 and
// misses nothing.
type Event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"`
	State string `json:"state,omitempty"`
	Key   string `json:"key,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// Error is the JSON body of every non-2xx response.
type Error struct {
	Message string `json:"error"`
}
