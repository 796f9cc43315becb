package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wdmlat/internal/api"
)

// FuzzJournalReplay writes each input as a journal file and opens it with
// OpenJournal. The invariants:
//   - opening never panics and succeeds: a garbled record ends the replay,
//     it is not an error;
//   - every replayed campaign has a non-empty ID and a spec that passes
//     Validate, and no ID appears twice;
//   - Close then reopen gives the same State(), since compaction is a
//     fixed point;
//   - Finished(id, "done") for the first live campaign, then a reopen,
//     removes exactly that campaign.
//
// States are compared as the journal writes them, so a spec list the
// input spelled as [] and the compacted file omits compares equal.
//
// The seeds are shaped like the journal tests' files: two campaigns and a
// finish, a truncated last record, an older journal's merged line, a
// DELETE-cancel followed by a readmission, and a state record before its
// campaign record.
func FuzzJournalReplay(f *testing.F) {
	line := func(rec journalRecord) string {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return string(data) + "\n"
	}
	specA, specB := journalSpec("a", 2), journalSpec("b", 1)
	idA, idB := api.CampaignID(specA), api.CampaignID(specB)
	admitA := line(journalRecord{Op: journalOpCampaign, ID: idA, Spec: specA})
	admitB := line(journalRecord{Op: journalOpCampaign, ID: idB, Spec: specB})
	finish := func(id, state string) string {
		return line(journalRecord{Op: journalOpState, ID: id, State: state})
	}
	merged := line(journalRecord{Op: journalOpMerged, FP: strings.Repeat("ab", 32)})
	f.Add([]byte(admitA + admitB + finish(idA, api.StateDone)))
	f.Add([]byte(admitA + admitB[:len(admitB)/2]))
	f.Add([]byte(admitA + merged + admitB))
	f.Add([]byte(admitA + finish(idA, api.StateCancelled) + admitA))
	f.Add([]byte(finish(idB, api.StateDone) + admitB))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen := func(j *Journal) *Journal {
			if j != nil {
				if err := j.Close(); err != nil {
					t.Fatalf("closing: %v", err)
				}
			}
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			return j
		}

		j := reopen(nil)
		st := j.State()
		seen := map[string]bool{}
		for _, c := range st.Campaigns {
			if c.ID == "" {
				t.Fatal("replayed a campaign with an empty ID")
			}
			if err := c.Spec.Validate(); err != nil {
				t.Fatalf("replayed campaign %q with an invalid spec: %v", c.ID, err)
			}
			if seen[c.ID] {
				t.Fatalf("replayed campaign %q twice", c.ID)
			}
			seen[c.ID] = true
		}

		j = reopen(j)
		if got, want := journalStateText(t, j.State()), journalStateText(t, st); got != want {
			t.Fatalf("reopen changed the state:\n%s\nwant\n%s", got, want)
		}
		if len(st.Campaigns) == 0 {
			j.Close()
			return
		}
		j.Finished(st.Campaigns[0].ID, api.StateDone)
		j = reopen(j)
		defer j.Close()
		rest := JournalState{Campaigns: st.Campaigns[1:]}
		if got, want := journalStateText(t, j.State()), journalStateText(t, rest); got != want {
			t.Fatalf("finishing %q left:\n%s\nwant\n%s", st.Campaigns[0].ID, got, want)
		}
	})
}

// journalStateText renders a state one campaign per line, its spec in the
// journal's own encoding.
func journalStateText(t *testing.T, st JournalState) string {
	t.Helper()
	var b strings.Builder
	for _, c := range st.Campaigns {
		spec, err := json.Marshal(c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(c.ID + " " + string(spec) + "\n")
	}
	return b.String()
}
