package server

// The durable half of the server: an append-only NDJSON journal of the
// campaigns a restart must not forget. Two record kinds cover it:
//
//	{"op":"campaign","id":...,"spec":{...}}  a campaign was admitted
//	{"op":"state","id":...,"state":"done"}   it reached a terminal state
//
// A campaign with no terminal-state record is live: on restart the server
// re-admits it from the journaled spec and the coordinator's task table
// rebuilds itself as the resumed job's cells flow back through
// ExecuteRemote — cells whose results already reached the checkpoint store
// replay from disk, the rest re-dispatch to workers. Nothing per cell is
// journaled: the checkpoint store is the record that a cell finished, and
// a straggler completion that crossed the crash boundary finds no live
// task and is dropped. The journal only ever changes whether a cell
// re-executes, never what its bytes are.
//
// Open replays the file, tolerating a truncated final record (the crash
// landed mid-append) and skipping records of any other kind — among them
// the per-cell "merged" records older journals hold — then compacts:
// finished campaigns' records are dropped and the live campaigns are
// rewritten atomically before the file reopens for appending. Appends are
// fsynced one record at a time, two per campaign. Append failures are
// counted (MetricJournalErrors), not fatal: a full disk degrades the
// server to a restart that loses its campaigns instead of killing it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"wdmlat/internal/api"
	"wdmlat/internal/metrics"
)

// Journal metric names, published once Instrument is called.
const (
	MetricJournalErrors = "server_journal_errors" // append/sync failures (journal degraded, server alive)
)

const (
	journalOpCampaign = "campaign"
	journalOpState    = "state"
	journalOpMerged   = "merged"
)

type journalRecord struct {
	Op    string            `json:"op"`
	ID    string            `json:"id,omitempty"`
	State string            `json:"state,omitempty"`
	Spec  *api.CampaignSpec `json:"spec,omitempty"`
	FP    string            `json:"fp,omitempty"`
}

// JournalCampaign is one live (admitted, not yet terminal) campaign as
// replayed from the journal.
type JournalCampaign struct {
	ID   string
	Spec api.CampaignSpec
}

// JournalState is what a journal remembers across a restart.
type JournalState struct {
	// Campaigns lists live campaigns in admission order.
	Campaigns []JournalCampaign
}

// Journal is the append-only durable record of the server's campaigns.
// All methods are safe for concurrent use and nil-receiver safe (a nil
// *Journal journals nothing), mirroring the metrics registry contract.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	state JournalState
	errs  *metrics.Counter
}

// OpenJournal opens (creating if needed) the journal at path, replays its
// records into State, compacts it, and leaves it open for appending. A
// truncated or garbled tail — the signature of a crash mid-append — ends
// the replay silently; everything before it is kept.
func OpenJournal(path string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	state, err := replayJournal(path)
	if err != nil {
		return nil, err
	}
	if err := compactJournal(path, state); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, state: state}, nil
}

// replayJournal folds a journal file into the state a restart needs:
// admitted campaigns minus those with terminal-state records.
func replayJournal(path string) (JournalState, error) {
	var state JournalState
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return state, nil
	}
	if err != nil {
		return state, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	var campaigns []JournalCampaign
	terminal := map[string]struct{}{}
	dec := json.NewDecoder(f)
	for {
		var rec journalRecord
		if err := dec.Decode(&rec); err != nil {
			// io.EOF is a clean end; anything else is the torn tail of an
			// append the crash interrupted. Records are self-contained and
			// appended in causal order, so dropping the tail only forgets
			// the newest events — a resumed campaign re-executes a little
			// more, bytes unchanged.
			break
		}
		switch rec.Op {
		case journalOpCampaign:
			if rec.ID == "" || rec.Spec == nil || rec.Spec.Validate() != nil {
				continue
			}
			campaigns = append(campaigns, JournalCampaign{ID: rec.ID, Spec: *rec.Spec})
		case journalOpState:
			if api.TerminalState(rec.State) {
				terminal[rec.ID] = struct{}{}
			}
		}
	}
	seen := map[string]struct{}{}
	for _, c := range campaigns {
		if _, done := terminal[c.ID]; done {
			continue
		}
		if _, dup := seen[c.ID]; dup {
			continue
		}
		seen[c.ID] = struct{}{}
		state.Campaigns = append(state.Campaigns, c)
	}
	return state, nil
}

// compactJournal atomically rewrites the journal to exactly the live
// state: one campaign record per unfinished campaign. Terminal-state
// records disappear together with the campaigns they closed, and records
// replay skipped disappear with them.
func compactJournal(path string, state JournalState) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	enc := json.NewEncoder(tmp)
	for _, c := range state.Campaigns {
		spec := c.Spec
		if err := enc.Encode(journalRecord{Op: journalOpCampaign, ID: c.ID, Spec: &spec}); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: compacting: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// State returns what the journal replayed at open time. The caller owns
// the returned slices.
func (j *Journal) State() JournalState {
	if j == nil {
		return JournalState{}
	}
	return JournalState{Campaigns: append([]JournalCampaign(nil), j.state.Campaigns...)}
}

// Instrument attaches the journal's error counter to reg.
func (j *Journal) Instrument(reg *metrics.Registry) {
	if j == nil {
		return
	}
	j.errs = reg.Counter(MetricJournalErrors)
}

// Campaign records an admitted campaign.
func (j *Journal) Campaign(id string, spec *api.CampaignSpec) {
	j.append(journalRecord{Op: journalOpCampaign, ID: id, Spec: spec})
}

// Finished records a campaign's terminal state. Non-terminal states are
// ignored: only done/failed/cancelled close a campaign's journal entry.
func (j *Journal) Finished(id, state string) {
	if !api.TerminalState(state) {
		return
	}
	j.append(journalRecord{Op: journalOpState, ID: id, State: state})
}

// Merged appends a per-cell record. The program no longer calls it — the
// checkpoint store records finished cells — and replay skips the records
// it writes; it stays because the end-to-end benchmark's journal-append
// probe (bench/probes.go) times an fsynced append through it.
func (j *Journal) Merged(fp string) {
	j.append(journalRecord{Op: journalOpMerged, FP: fp})
}

func (j *Journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.errs.Inc()
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		j.errs.Inc()
		return
	}
	if err := j.f.Sync(); err != nil {
		j.errs.Inc()
	}
}

// Close closes the journal file. Appends after Close count as errors.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
