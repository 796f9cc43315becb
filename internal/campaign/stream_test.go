package campaign

// Stream tests: the one path that turns a campaign into its result stream
// must write the bytes of references built without it, fire OnCellDone
// once per spec cell, and on a failure return the first failing cell's
// error only after every cell it started has been checkpointed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

const streamSeed = 13

// streamCells alternates the two converging classes of adaptiveFake.
func streamCells() []Cell {
	cells := make([]Cell, 5)
	for i := range cells {
		cells[i] = Cell{
			Key:    fmt.Sprintf("s/%d", i),
			Config: core.RunConfig{Workload: workload.Class(i % 2), Duration: time.Duration(i+1) * time.Second},
		}
	}
	return cells
}

// fixedReference is Run plus encode.
func fixedReference(t *testing.T, cells []Cell) []byte {
	t.Helper()
	results, err := Run(cells, Options{BaseSeed: streamSeed, Jobs: 1, ExecuteCell: asCell(adaptiveFake)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, res := range results {
		buf.Write(encodeOne(t, res))
	}
	return buf.Bytes()
}

// adaptiveReference is MergedAdaptive one cell at a time on a fresh runner.
func adaptiveReference(t *testing.T, cells []Cell, prec stats.Precision) []byte {
	t.Helper()
	r := New(Options{BaseSeed: streamSeed, Jobs: 1, ExecuteCell: asCell(adaptiveFake)})
	var buf bytes.Buffer
	for _, c := range cells {
		res, _, err := r.MergedAdaptive(c.Key, c.Config, prec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(encodeOne(t, res))
	}
	return buf.Bytes()
}

// TestStreamMatchesReference: in both modes, at Jobs 1 and 8, cold and
// through a warm store that executes nothing, Stream writes the
// reference bytes and fires OnCellDone exactly once per spec cell.
func TestStreamMatchesReference(t *testing.T) {
	cells := streamCells()
	prec := p99Policy()
	modes := []struct {
		name string
		prec *stats.Precision
		want []byte
	}{
		{"fixed", nil, fixedReference(t, cells)},
		{"adaptive", &prec, adaptiveReference(t, cells, prec)},
	}
	if bytes.Equal(modes[0].want, modes[1].want) {
		t.Fatal("adaptive reference equals the fixed one; the policy pooled nothing")
	}
	for _, mode := range modes {
		for _, jobs := range []int{1, 8} {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			for _, warmth := range []string{"cold", "warm"} {
				var mu sync.Mutex
				fired := map[string]int{}
				before := calls.Load()
				var buf bytes.Buffer
				err := Stream(&buf, cells, mode.prec, Options{
					BaseSeed: streamSeed, Jobs: jobs, Store: st,
					ExecuteCell: func(_ string, cfg core.RunConfig) (*core.Result, error) {
						calls.Add(1)
						return adaptiveFake(cfg), nil
					},
					OnCellDone: func(key string) {
						mu.Lock()
						fired[key]++
						mu.Unlock()
					},
				})
				name := fmt.Sprintf("%s jobs=%d %s", mode.name, jobs, warmth)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(buf.Bytes(), mode.want) {
					t.Errorf("%s: stream differs from the reference (%d vs %d bytes)", name, buf.Len(), len(mode.want))
				}
				if warmth == "warm" && calls.Load() != before {
					t.Errorf("%s: executed %d cells, want 0", name, calls.Load()-before)
				}
				if len(fired) != len(cells) {
					t.Errorf("%s: OnCellDone fired for %d keys, want the %d spec cells", name, len(fired), len(cells))
				}
				for _, c := range cells {
					if fired[c.Key] != 1 {
						t.Errorf("%s: OnCellDone fired %d times for %s, want 1", name, fired[c.Key], c.Key)
					}
				}
			}
		}
	}
}

// TestStreamFailureDrainsAndReturnsCellError: with one failing cell
// mid-list, Stream returns that cell's error — wrapping ErrCancelled when
// the campaign's context was cancelled — and every cell that started has
// been checkpointed by the time it returns.
func TestStreamFailureDrainsAndReturnsCellError(t *testing.T) {
	prec := p99Policy()
	boom := errors.New("injected cell failure")
	for _, tc := range []struct {
		name   string
		prec   *stats.Precision
		jobs   int
		cancel bool
	}{
		{"fixed", nil, 8, false},
		{"fixed cancelled", nil, 1, true},
		{"adaptive", &prec, 8, false},
		{"adaptive cancelled", &prec, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cells := streamCells()
			var mu sync.Mutex
			started := map[string]core.RunConfig{}
			var executed atomic.Int32
			err = Stream(&bytes.Buffer{}, cells, tc.prec, Options{
				BaseSeed: streamSeed, Jobs: tc.jobs, Context: ctx, Store: st,
				ExecuteCell: func(key string, cfg core.RunConfig) (*core.Result, error) {
					switch {
					case !tc.cancel && strings.HasPrefix(key+"/", cells[2].Key+"/"):
						return nil, boom // s/2, or in adaptive mode each of its replicas
					case tc.cancel && tc.prec == nil && key == cells[1].Key:
						cancel() // s/1 drains; s/2 is the first cell dropped
					case tc.cancel && tc.prec != nil && executed.Add(1) == 6:
						cancel()
					}
					mu.Lock()
					started[key] = cfg
					mu.Unlock()
					// Slow cells widen the window in which an undrained
					// Stream would return before their checkpoints land.
					time.Sleep(time.Millisecond)
					return adaptiveFake(cfg), nil
				},
			})
			switch {
			case tc.cancel && !errors.Is(err, ErrCancelled):
				t.Fatalf("Stream = %v, want ErrCancelled", err)
			case !tc.cancel && !errors.Is(err, boom):
				t.Fatalf("Stream = %v, want the failing cell's error", err)
			case (!tc.cancel || tc.prec == nil) && !strings.Contains(err.Error(), `"`+cells[2].Key):
				t.Fatalf("Stream = %v, want the error of cell %s", err, cells[2].Key)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(started) == 0 {
				t.Fatal("no cell ran before the failure")
			}
			for key, cfg := range started {
				if res, lerr := st.Load(store.Fingerprint(streamSeed, key, cfg)); lerr != nil || res == nil {
					t.Errorf("cell %s ran but is not checkpointed when Stream returns: (%v, %v)", key, res, lerr)
				}
			}
		})
	}
}
