// latctl is the command-line client of latserved.
//
//	latctl [-server URL] submit  [matrix flags | -f spec.json]  -> prints campaign id
//	latctl [-server URL] status  <id>
//	latctl [-server URL] result  [-o file] <id>   (waits for completion)
//	latctl [-server URL] watch   <id>             (streams progress events)
//	latctl [-server URL] cancel  <id>
//	latctl [-server URL] fleet                    (fleet-mode worker/lease status)
//	latctl local [matrix flags] [-jobs N] [-o file]
//
// submit and local build the same campaign from the same matrix flags
// (-os, -workload, -duration, -runs, -seed, -variant), so
//
//	latctl local -o local.json && latctl result -o server.json $(latctl submit)
//
// must produce byte-identical files — the service's core guarantee. All
// requests retry transient failures (429 with Retry-After, 5xx, dropped
// connections) with jittered exponential backoff, and watch resumes a
// dropped event stream from the last sequence number it saw.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"wdmlat/internal/api"
	"wdmlat/internal/campaign"
	"wdmlat/internal/cli"
	"wdmlat/internal/client"
	"wdmlat/internal/core"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8080", "latserved base URL")
	cli.AddVersionFlag("latctl", flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	c := client.New(*serverURL, client.Options{})
	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, c, args)
	case "status":
		err = cmdStatus(ctx, c, args)
	case "result":
		err = cmdResult(ctx, c, args)
	case "watch":
		err = cmdWatch(ctx, c, args)
	case "cancel":
		err = cmdCancel(ctx, c, args)
	case "fleet":
		err = cmdFleet(ctx, c, args)
	case "local":
		err = cmdLocal(args)
	default:
		fmt.Fprintf(os.Stderr, "latctl: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "latctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: latctl [-server URL] <subcommand> [flags] [args]

subcommands:
  submit   build a campaign from matrix flags (or -f spec.json) and submit it
  status   print a campaign's status
  result   wait for a campaign and write its result stream (exact codec bytes)
  watch    stream a campaign's progress events
  cancel   cancel a campaign
  fleet    print a fleet-mode server's workers and lease queue
  local    run the same campaign locally, writing the identical result stream
`)
	flag.PrintDefaults()
}

// matrixFlags registers the campaign-shape flags shared by submit and
// local, mirroring cmd/reproduce's defaults so the two build identical
// default-matrix campaigns.
type matrixFlags struct {
	osList   *string
	wlList   *string
	duration *time.Duration
	runs     *int
	seed     *uint64
	variant  *string
	prec     *cli.PrecisionFlags
}

func addMatrixFlags(fs *flag.FlagSet) matrixFlags {
	return matrixFlags{
		osList:   fs.String("os", "both", "OS list: nt4|win98|win2000|both|all"),
		wlList:   fs.String("workload", "all", "workload list: business|workstation|games|web|all"),
		duration: fs.Duration("duration", 15*time.Minute, "virtual collection per cell"),
		runs:     fs.Int("runs", 1, "replicas per cell"),
		seed:     fs.Uint64("seed", 3, "campaign base seed"),
		variant:  fs.String("variant", "default", "campaign variant tag in cell keys"),
		prec:     cli.AddPrecisionFlags(fs),
	}
}

func (m matrixFlags) spec() (*api.CampaignSpec, error) {
	oses, err := cli.ParseOSList(*m.osList)
	if err != nil {
		return nil, err
	}
	classes, err := cli.ParseWorkloadList(*m.wlList)
	if err != nil {
		return nil, err
	}
	pol, err := m.prec.Policy()
	if err != nil {
		return nil, err
	}
	base := core.RunConfig{Duration: *m.duration}
	cells := campaign.MatrixCells(oses, classes, *m.variant, base, *m.runs)
	if pol != nil {
		// Adaptive campaigns submit logical cells — the policy, not -runs,
		// decides how many "<key>/<i>" replicas each one expands to.
		if *m.runs != 1 {
			return nil, fmt.Errorf("-precision chooses replica counts adaptively; drop -runs")
		}
		cells = campaign.MatrixLogicalCells(oses, classes, *m.variant, base)
	}
	spec := &api.CampaignSpec{BaseSeed: *m.seed, Precision: pol, Cells: make([]api.CellSpec, len(cells))}
	for i, c := range cells {
		spec.Cells[i] = api.CellSpec{Key: c.Key, Config: c.Config}
	}
	return spec, nil
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	m := addMatrixFlags(fs)
	specFile := fs.String("f", "", "submit this JSON campaign spec instead of building one from flags")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec *api.CampaignSpec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		spec = &api.CampaignSpec{}
		if err := json.Unmarshal(data, spec); err != nil {
			return fmt.Errorf("parsing %s: %w", *specFile, err)
		}
	} else {
		var err error
		spec, err = m.spec()
		if err != nil {
			return err
		}
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "latctl: campaign %s: %s (%d cells)\n", st.ID, st.State, st.Total)
	fmt.Println(st.ID) // bare id on stdout, for shell capture
	return nil
}

func cmdStatus(ctx context.Context, c *client.Client, args []string) error {
	id, err := oneID("status", args)
	if err != nil {
		return err
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		return err
	}
	return printStatus(st)
}

func cmdResult(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	out := fs.String("o", "", "write result bytes here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := oneID("result", fs.Args())
	if err != nil {
		return err
	}
	st, err := c.Watch(ctx, id, nil)
	if err != nil {
		return err
	}
	if st.State != api.StateDone {
		return fmt.Errorf("campaign %s: %s: %s", id, st.State, st.Error)
	}
	data, err := c.Result(ctx, id)
	if err != nil {
		return err
	}
	return writeOut(*out, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func cmdWatch(ctx context.Context, c *client.Client, args []string) error {
	id, err := oneID("watch", args)
	if err != nil {
		return err
	}
	st, err := c.Watch(ctx, id, func(ev api.Event) {
		switch ev.Type {
		case api.EventState:
			fmt.Printf("state=%s %d/%d\n", ev.State, ev.Done, ev.Total)
		case api.EventCell:
			fmt.Printf("cell %s done %d/%d\n", ev.Key, ev.Done, ev.Total)
		}
	})
	if err != nil {
		return err
	}
	return printStatus(st)
}

func cmdCancel(ctx context.Context, c *client.Client, args []string) error {
	id, err := oneID("cancel", args)
	if err != nil {
		return err
	}
	st, err := c.Cancel(ctx, id)
	if err != nil {
		return err
	}
	return printStatus(st)
}

// cmdFleet prints a fleet-mode coordinator's status (workers, outstanding
// leases, queue depth) as JSON — what the horde smoke script polls to time
// its worker kill.
func cmdFleet(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("fleet: want no args, got %d", len(args))
	}
	st, err := c.Fleet(ctx)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cmdLocal executes the campaign in-process through campaign.Stream — the
// path latserved runs it on — and writes the result stream the server
// would serve. Used to demonstrate (and smoke-test) the byte-identity
// guarantee.
func cmdLocal(args []string) error {
	fs := flag.NewFlagSet("local", flag.ExitOnError)
	m := addMatrixFlags(fs)
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	out := fs.String("o", "", "write result bytes here (default stdout)")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory (share latserved's -cache to reuse its cells)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := m.spec()
	if err != nil {
		return err
	}
	st, err := cli.OpenStore(*checkpoint, nil)
	if err != nil {
		return err
	}
	cells := make([]campaign.Cell, len(spec.Cells))
	for i, c := range spec.Cells {
		cells[i] = campaign.Cell{Key: c.Key, Config: c.Config}
	}
	opts := campaign.Options{BaseSeed: spec.Seed(), Jobs: *jobs, Store: st}
	return writeOut(*out, func(w io.Writer) error {
		return campaign.Stream(w, cells, spec.Precision, opts)
	})
}

// writeOut runs write against the file at path, or stdout when path is
// empty. A file's Close error fails the command: a write that fails only
// at close would otherwise exit 0 and leave a truncated file.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printStatus(st api.Status) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func oneID(cmd string, args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("%s: want exactly one campaign id, got %d args", cmd, len(args))
	}
	return args[0], nil
}
