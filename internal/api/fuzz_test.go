package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/campaign/store"
	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/server"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// decodeSpec decodes a submission body the way the submit handler does.
func decodeSpec(data []byte) (*api.CampaignSpec, error) {
	var spec api.CampaignSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, err
	}
	return &spec, nil
}

// FuzzCampaignSpec decodes each input as the submit handler does, unknown
// fields refused, and validates it. The invariants:
//   - nothing panics;
//   - an accepted spec's CampaignID and every cell's CellFingerprint
//     compute;
//   - marshalling an accepted spec and decoding it again, as latctl submit
//     sends a spec it built or read, gives the same campaign ID.
//
// The seeds are the default matrix spec latctl submit builds, an adaptive
// spec, and the bodies the server's bad-request test posts.
func FuzzCampaignSpec(f *testing.F) {
	oses := []ospersona.OS{ospersona.NT4, ospersona.Win98}
	base := core.RunConfig{Duration: 15 * time.Minute}
	matrix := &api.CampaignSpec{BaseSeed: 3}
	for _, c := range campaign.MatrixCells(oses, workload.Classes, "default", base, 1) {
		matrix.Cells = append(matrix.Cells, api.CellSpec{Key: c.Key, Config: c.Config})
	}
	adaptive := &api.CampaignSpec{BaseSeed: 3, Precision: &stats.Precision{RelWidth: 0.2, MaxRuns: 12}}
	for _, c := range campaign.MatrixLogicalCells(oses, workload.Classes, "default", base) {
		adaptive.Cells = append(adaptive.Cells, api.CellSpec{Key: c.Key, Config: c.Config})
	}
	for _, spec := range []*api.CampaignSpec{matrix, adaptive} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{`,
		`{"base_seed":1,"cells":[]}`,
		`{"cells":[{"key":"","config":{}}]}`,
		`{"cells":[{"key":"a","config":{}},{"key":"a","config":{}}]}`,
		`{"bogus":1,"cells":[{"key":"a","config":{}}]}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil || spec.Validate() != nil {
			return // answered 400
		}
		id := api.CampaignID(spec)
		for _, c := range spec.Cells {
			api.CellFingerprint(spec.Seed(), c)
		}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshalling an accepted spec: %v", err)
		}
		again, err := decodeSpec(body)
		if err != nil {
			t.Fatalf("decoding a marshalled accepted spec: %v", err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("a marshalled accepted spec no longer validates: %v", err)
		}
		if got := api.CampaignID(again); got != id {
			t.Fatalf("campaign ID %s after a round trip, %s before", got, id)
		}
	})
}

// grantedLease returns the lease response body a coordinator sends a
// worker for one cell of a campaign with base seed 7.
func grantedLease(f *testing.F) []byte {
	const baseSeed, key = 7, "nt4/business/default/0"
	cfg := core.RunConfig{OS: ospersona.NT4, Workload: workload.Business, Duration: time.Second}
	cfg.Seed = sim.DeriveSeed(baseSeed, key)
	co := server.NewCoordinator(server.CoordinatorOptions{LeaseTTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan struct{})
	go func() {
		defer close(waiting)
		_, _ = co.ExecuteRemote(ctx, baseSeed, key, cfg)
	}()
	defer func() {
		cancel()
		<-waiting
		co.Close()
	}()
	w, _ := co.Register("fuzz")
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, ok := co.Lease(w.WorkerID)
		if !ok {
			f.Fatal("lease: worker unknown")
		}
		if len(resp.Leases) == 1 {
			body, err := json.Marshal(resp)
			if err != nil {
				f.Fatal(err)
			}
			return body
		}
		if time.Now().After(deadline) {
			f.Fatal("the coordinator granted no lease")
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzLeaseVerify decodes each input as a worker decodes a lease response
// and verifies every lease in it. The invariants: nothing panics, and
// Verify accepts a lease exactly when its Fingerprint equals
// store.Fingerprint over its BaseSeed, Key and Config.
//
// The seeds are a lease a coordinator granted, that lease with one
// fingerprint byte or the key changed, and the granted body truncated.
func FuzzLeaseVerify(f *testing.F) {
	granted := grantedLease(f)
	var resp api.LeaseResponse
	if err := json.Unmarshal(granted, &resp); err != nil {
		f.Fatal(err)
	}
	mutate := func(change func(*api.Lease)) []byte {
		r := api.LeaseResponse{Leases: []api.Lease{resp.Leases[0]}}
		change(&r.Leases[0])
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	f.Add(granted)
	f.Add(mutate(func(l *api.Lease) {
		fp := []byte(l.Fingerprint)
		fp[0] ^= 1
		l.Fingerprint = string(fp)
	}))
	f.Add(mutate(func(l *api.Lease) { l.Key = "win98/business/default/0" }))
	f.Add(granted[:len(granted)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp api.LeaseResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return // the worker fails the lease call
		}
		for _, l := range resp.Leases {
			want := l.Fingerprint == store.Fingerprint(l.BaseSeed, l.Key, l.Config)
			if err := l.Verify(); (err == nil) != want {
				t.Fatalf("Verify(%+v) = %v, want accepted=%v", l, err, want)
			}
		}
	})
}
