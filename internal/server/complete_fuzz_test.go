package server

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
)

// FuzzCompleteRequest feeds worker completion bodies, decoded the way
// handleWorkerComplete decodes them, to Coordinator.Complete against one
// leased cell on a fresh coordinator. The invariants:
//   - Complete never panics;
//   - a merged result is exactly one byte sequence: the payload plus the
//     encoder's newline is core.EncodeResult of the result the waiter
//     receives, and that result's config re-derives the leased
//     fingerprint;
//   - a rejected completion for the leased cell leaves it back in the
//     queue exactly once; any completion for another fingerprint leaves
//     the lease alone.
//
// The seeds are a real payload and its usual corruptions. A newline after
// the payload does not survive the JSON decode (a raw value ends at its
// closing brace), so that seed arrives canonical and merges.
func FuzzCompleteRequest(f *testing.F) {
	const baseSeed, key = 17, "nt4/business/fuzz/0"
	// A normalized config makes the lease's fingerprint the one the
	// coordinator re-derives from the payload's embedded config.
	cfg := cellConfig(time.Millisecond).Normalized()
	fp := store.Fingerprint(baseSeed, key, cfg)
	payload, err := api.EncodeCellResult(fakeCellResult(api.Lease{Fingerprint: fp, BaseSeed: baseSeed, Key: key, Config: cfg}))
	if err != nil {
		f.Fatal(err)
	}
	body := func(fp string, result []byte, extra string) []byte {
		return []byte(`{"fingerprint":"` + fp + `","result":` + string(result) + extra + `}`)
	}
	flipped := bytes.Clone(payload)
	flipped[len(flipped)/2] ^= 1
	f.Add(body(fp, payload, ""))
	f.Add(body(fp, payload[:len(payload)/2], ""))
	f.Add(body(fp, flipped, ""))
	f.Add(body(fp, append(bytes.Clone(payload), '\n'), ""))
	f.Add(body(fp, append([]byte("{ "), payload[1:]...), ""))
	f.Add(body(strings.Repeat("0", len(fp)), payload, ""))
	f.Add(body(fp, payload, `,"error":"boom"`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req api.CompleteRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return // answered 400 before the coordinator sees it
		}
		co := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
		defer co.Close()
		out := startCell(context.Background(), co, baseSeed, key, cfg)
		waitFor(t, "cell enqueued", func() bool { return co.Status().Pending == 1 })
		w, _ := co.Register("fuzz")
		if resp, ok := co.Lease(w.WorkerID); !ok || len(resp.Leases) != 1 || resp.Leases[0].Fingerprint != fp {
			t.Fatalf("lease: ok=%v %+v", ok, resp)
		}

		disp, err := co.Complete(w.WorkerID, req)
		st := co.Status()
		switch disp {
		case CompleteMerged:
			var o cellOutcome
			select {
			case o = <-out:
			case <-time.After(5 * time.Second):
				t.Fatal("merged completion released no waiter")
			}
			if req.Error != "" {
				if o.res != nil || o.err == nil {
					t.Fatalf("reported failure reached the waiter as %+v", o)
				}
				return
			}
			if o.err != nil {
				t.Fatalf("merged result failed its waiter: %v", o.err)
			}
			var enc bytes.Buffer
			if err := core.EncodeResult(&enc, o.res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(bytes.Clone(req.Result), '\n'), enc.Bytes()) {
				t.Fatalf("merged payload %q is not the encoding of the result it delivered", req.Result)
			}
			if got := store.Fingerprint(baseSeed, key, o.res.Config); got != fp {
				t.Fatalf("merged result re-derives fingerprint %s, leased cell is %s", got, fp)
			}
		case CompleteRejected:
			if err == nil {
				t.Fatal("rejected completion without an error")
			}
			if req.Fingerprint == fp && (st.Pending != 1 || st.Leased != 0) {
				t.Fatalf("after rejection: pending=%d leased=%d, want the cell queued once", st.Pending, st.Leased)
			}
			if req.Fingerprint != fp && (st.Pending != 0 || st.Leased != 1) {
				t.Fatalf("rejection for %q moved the lease: pending=%d leased=%d", req.Fingerprint, st.Pending, st.Leased)
			}
		case CompleteUnknown:
			if req.Fingerprint == fp || st.Pending != 0 || st.Leased != 1 {
				t.Fatalf("unknown completion for %q: pending=%d leased=%d", req.Fingerprint, st.Pending, st.Leased)
			}
		default:
			t.Fatalf("disposition %d", disp)
		}
		if disp != CompleteMerged {
			select {
			case o := <-out:
				t.Fatalf("completion with disposition %d reached the waiter: %+v", disp, o)
			default:
			}
		}
	})
}
