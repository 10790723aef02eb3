package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/identity"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// capacity is every domain's premium aggregate: far above any load a
// workload puts on it, so no op is denied for want of bandwidth.
const capacity = 20 * units.Gbps

// workload is one fixed-count closed-loop drive of the broker system.
// RATIONALE.md says why each exists and which layer it isolates.
type workload struct {
	name string
	// rate is the op count per second of -seconds. A run executes
	// rate*seconds ops whatever they take: the count, not the clock,
	// fixes what is measured, because the tables and replay caches
	// grow with every op. Rates are set so a run lasts about -seconds
	// on a 2-vCPU host.
	rate float64
	// clients is the number of closed-loop goroutines sharing one user.
	clients int
	// setups is how many times an end-to-end run builds its world;
	// setup_s is their median.
	setups  int
	domains int
	// replicas > 1 makes every domain a journaled replica group.
	replicas int
	// background is the number of bookings preloaded per domain.
	background int
	subflow    bool
}

var workloads = []*workload{
	{name: "reserve5", rate: 200, clients: 1, setups: 9, domains: 5},
	{name: "booked5", rate: 70, clients: 2, setups: 3, domains: 5, background: 1000},
	{name: "subflow64", rate: 2500, clients: 1, setups: 9, domains: 5, subflow: true},
	{name: "replicated3", rate: 350, clients: 1, setups: 9, domains: 2, replicas: 3},
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sendCounter counts inter-broker frames through the conn wrapper that
// WorldConfig.WrapDialer installs on every broker's outbound dialer.
type sendCounter struct {
	frames, bytes atomic.Int64
}

type countingDialer struct {
	transport.Dialer
	c *sendCounter
}

func (d countingDialer) Dial(addr string) (transport.Conn, error) {
	conn, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: d.c}, nil
}

type countingConn struct {
	transport.Conn
	c *sendCounter
}

func (c countingConn) Send(msg []byte) error {
	c.c.frames.Add(1)
	c.c.bytes.Add(int64(len(msg)))
	return c.Conn.Send(msg)
}

// env is one built world ready for timed ops.
type env struct {
	wl    *workload
	in    *inputs
	w     *experiment.World
	u     *experiment.User
	sends *sendCounter
	base  time.Time
	dir   string
	// tunnelRAR and tunnel are the established tunnel (subflow64).
	tunnelRAR string
	tunnel    booking
}

// horizonWindow is the window every generated booking lies in.
func (e *env) horizonWindow() units.Window { return units.NewWindow(e.base, horizon) }

// setup builds a world as bbd deploys brokers (metrics registries on,
// flight recorder off, 5 s call timeout), preloads background
// bookings, and warms every connection: one untimed reserve, or for
// subflow64 the tunnel's establishment and the sub-flow window fill.
func setup(wl *workload, in *inputs, base time.Time, workdir string, traced bool) (*env, error) {
	e := &env{wl: wl, in: in, sends: &sendCounter{}, base: base}
	cfg := experiment.WorldConfig{
		NumDomains:  wl.domains,
		Capacity:    capacity,
		EnableObs:   true,
		CallTimeout: 5 * time.Second,
		WrapDialer: func(_ string, d transport.Dialer) transport.Dialer {
			return countingDialer{Dialer: d, c: e.sends}
		},
	}
	if wl.replicas > 1 {
		dir, err := os.MkdirTemp(workdir, "state-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		cfg.StateDir = filepath.Join(dir, "journal")
		cfg.Replicas = wl.replicas
		cfg.FsyncPolicy = "batch"
	}
	w, err := experiment.BuildWorld(cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.w = w
	if e.u, err = w.NewUser("bench", "", nil, nil); err != nil {
		e.close()
		return nil, err
	}
	if err := e.preload(); err != nil {
		e.close()
		return nil, err
	}
	if wl.subflow {
		err = e.establishTunnel()
	} else {
		err = e.warm()
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.u.Trace = traced
	return e, nil
}

func (e *env) close() {
	if e.u != nil {
		e.u.Close()
	}
	if e.w != nil {
		e.w.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// preload admits each domain's background bookings straight into its
// broker's table.
func (e *env) preload() error {
	owner := identity.NewDN("Grid", "Background", "bookings")
	for d, bg := range e.in.Background {
		name := e.w.Domains[d]
		table := e.w.BBs[name].Table()
		for _, b := range bg {
			if _, err := table.Admit(resv.AdmitRequest{
				User:      owner,
				SrcHost:   "host." + name,
				DstHost:   "host." + e.w.DestDomain(),
				Bandwidth: b.BW,
				Window:    b.window(e.base),
			}); err != nil {
				return fmt.Errorf("preload %s: %w", name, err)
			}
		}
	}
	return nil
}

// warm dials every connection on the path with one reserve and cancel
// whose window lies outside the horizon, so it leaves no commitment
// the gate would see.
func (e *env) warm() error {
	spec := e.u.NewSpec(experiment.SpecOptions{
		DestDomain: e.w.DestDomain(),
		Bandwidth:  units.Mbps,
		Window:     units.NewWindow(e.base.Add(horizon+time.Hour), time.Hour),
	})
	res, err := e.u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		return fmt.Errorf("warm-up reserve: %v %s", err, reasonOf(res))
	}
	return e.u.Cancel(e.u.Domain, spec.RARID)
}

// establishTunnel reserves the tunnel end to end and fills the live
// window with liveBatches alloc batches at both ends.
func (e *env) establishTunnel() error {
	e.tunnel = booking{BW: e.in.TunnelBW, Dur: horizon}
	spec := e.u.NewSpec(experiment.SpecOptions{
		DestDomain: e.w.DestDomain(),
		Bandwidth:  e.tunnel.BW,
		Window:     e.tunnel.window(e.base),
		Tunnel:     true,
	})
	res, err := e.u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		return fmt.Errorf("tunnel establishment: %v %s", err, reasonOf(res))
	}
	if err := e.w.VerifyApprovals(res); err != nil {
		return fmt.Errorf("tunnel approvals: %w", err)
	}
	e.tunnelRAR = spec.RARID
	for k := 0; k < liveBatches; k++ {
		if err := e.tunnelBatch(fmt.Sprintf("a%d", k), e.allocOps(k)); err != nil {
			return fmt.Errorf("window fill: %w", err)
		}
	}
	return nil
}

func subFlowID(batch, j int) string { return fmt.Sprintf("f%d.%d", batch, j) }

func (e *env) allocOps(batch int) []signalling.TunnelOp {
	sizes := e.in.Batches[batch]
	ops := make([]signalling.TunnelOp, len(sizes))
	for j, bw := range sizes {
		ops[j] = signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: subFlowID(batch, j), Bandwidth: int64(bw)}
	}
	return ops
}

func (e *env) releaseOps(batch int) []signalling.TunnelOp {
	ops := make([]signalling.TunnelOp, len(e.in.Batches[batch]))
	for j := range ops {
		ops[j] = signalling.TunnelOp{Action: signalling.OpRelease, SubFlowID: subFlowID(batch, j)}
	}
	return ops
}

// tunnelBatch applies one batch at both end domains, as a tunnel user
// does: it contacts just the two ends.
func (e *env) tunnelBatch(batchID string, ops []signalling.TunnelOp) error {
	for _, d := range []string{e.w.SourceDomain(), e.w.DestDomain()} {
		res, err := e.u.TunnelBatch(d, &signalling.TunnelBatchPayload{
			TunnelRARID: e.tunnelRAR,
			BatchID:     batchID,
			User:        e.u.DN(),
			Ops:         ops,
		})
		if err != nil {
			return fmt.Errorf("batch %s at %s: %w", batchID, d, err)
		}
		if !res.Granted {
			return fmt.Errorf("batch %s at %s denied: %s", batchID, d, res.Reason)
		}
	}
	return nil
}

// opOutcome is what one timed op leaves behind for the checks and the
// per-layer accounting.
type opOutcome struct {
	lat   time.Duration
	cycle time.Duration // the whole op, untimed parts included
	ok    bool
	err   string
	res   *signalling.ResultPayload
}

// reserveOp runs reserve op i: a signed reserve timed to the grant,
// then an untimed cancel.
func (e *env) reserveOp(i int) opOutcome {
	b := e.in.Reserves[i]
	spec := e.u.NewSpec(experiment.SpecOptions{
		DestDomain: e.w.DestDomain(),
		Bandwidth:  b.BW,
		Window:     b.window(e.base),
	})
	t0 := time.Now()
	res, err := e.u.ReserveE2E(spec)
	out := opOutcome{lat: time.Since(t0), res: res}
	if err != nil || !res.Granted {
		out.err = fmt.Sprintf("reserve: %v %s", err, reasonOf(res))
		if err != nil {
			// Unknown outcome: withdraw whatever may have been admitted.
			_ = e.u.Cancel(e.u.Domain, spec.RARID)
		}
		return out
	}
	if err := e.u.Cancel(e.u.Domain, spec.RARID); err != nil {
		out.err = "cancel: " + err.Error()
		return out
	}
	out.ok = true
	return out
}

// subflowOp runs subflow op i: allocate batch liveBatches+i and release
// batch i at both ends, all timed.
func (e *env) subflowOp(i int) opOutcome {
	allocs, releases := e.allocOps(liveBatches+i), e.releaseOps(i)
	allocID, releaseID := fmt.Sprintf("a%d", liveBatches+i), fmt.Sprintf("r%d", i)
	t0 := time.Now()
	err := e.tunnelBatch(allocID, allocs)
	if err == nil {
		err = e.tunnelBatch(releaseID, releases)
	}
	out := opOutcome{lat: time.Since(t0), ok: err == nil}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

func (e *env) op(i int) opOutcome {
	if e.wl.subflow {
		return e.subflowOp(i)
	}
	return e.reserveOp(i)
}

func reasonOf(res *signalling.ResultPayload) string {
	if res == nil {
		return ""
	}
	return res.Reason
}
