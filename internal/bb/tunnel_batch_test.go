package bb_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/identity"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// buildTunnelWorld establishes a tunnel over a fresh world and returns
// the world, the user and the tunnel spec.
func buildTunnelWorld(t *testing.T, domains int, aggregate units.Bandwidth) (*experiment.World, *experiment.User, string) {
	t.Helper()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  domains,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	spec := u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(), Bandwidth: aggregate, Tunnel: true,
	})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: res=%+v err=%v", res, err)
	}
	return w, u, spec.RARID
}

// TestTunnelBatchPartialDenial: one over-capacity op inside a batch is
// denied at both ends while the others land, and the two endpoints
// agree on the allocated total afterwards.
func TestTunnelBatchPartialDenial(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	src, dest := w.SourceDomain(), w.DestDomain()
	results, err := w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "f1", Bandwidth: int64(40 * units.Mbps)},
		{Action: signalling.OpAlloc, SubFlowID: "f2", Bandwidth: int64(40 * units.Mbps)},
		{Action: signalling.OpAlloc, SubFlowID: "f3", Bandwidth: int64(40 * units.Mbps)},
	}, u.DN())
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Granted || !results[1].Granted {
		t.Fatalf("in-capacity ops denied: %+v", results)
	}
	if results[2].Granted {
		t.Fatalf("over-capacity op granted: %+v", results[2])
	}
	for _, d := range []string{src, dest} {
		ep, ok := w.BBs[d].Tunnel(rarID)
		if !ok {
			t.Fatalf("%s: tunnel missing", d)
		}
		if ep.Used() != 80*units.Mbps || ep.Len() != 2 {
			t.Errorf("%s: used=%v len=%d, want 80Mb/s over 2 sub-flows", d, ep.Used(), ep.Len())
		}
	}
}

// TestTunnelBatchRollsBackLocalHalves: when the destination refuses an
// op the source already applied, the source's local half is undone —
// a denied alloc is released, a denied release is re-admitted with its
// original bandwidth.
func TestTunnelBatchRollsBackLocalHalves(t *testing.T) {
	w, u, rarID := buildTunnelWorld(t, 2, 100*units.Mbps)
	src, dest := w.SourceDomain(), w.DestDomain()
	srcEP, _ := w.BBs[src].Tunnel(rarID)

	// Desynchronise the two ends on purpose with direct destination
	// batches: "ghost" exists only at the destination, and after the
	// second batch "lonely" exists only at the source.
	if res, err := u.TunnelBatch(dest, &signalling.TunnelBatchPayload{
		TunnelRARID: rarID, BatchID: signalling.NewBatchID(), User: u.DN(),
		Ops: []signalling.TunnelOp{{Action: signalling.OpAlloc, SubFlowID: "ghost", Bandwidth: int64(10 * units.Mbps)}},
	}); err != nil || !res.Granted {
		t.Fatalf("seeding ghost at destination: res=%+v err=%v", res, err)
	}
	if results, err := w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "lonely", Bandwidth: int64(20 * units.Mbps)},
	}, u.DN()); err != nil || !results[0].Granted {
		t.Fatalf("allocating lonely: results=%+v err=%v", results, err)
	}
	if res, err := u.TunnelBatch(dest, &signalling.TunnelBatchPayload{
		TunnelRARID: rarID, BatchID: signalling.NewBatchID(), User: u.DN(),
		Ops: []signalling.TunnelOp{{Action: signalling.OpRelease, SubFlowID: "lonely"}},
	}); err != nil || !res.Granted {
		t.Fatalf("dropping lonely at destination: res=%+v err=%v", res, err)
	}

	// Alloc of "ghost": the source admits it, the destination refuses
	// the duplicate, the source must roll back.
	results, err := w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "ghost", Bandwidth: int64(10 * units.Mbps)},
	}, u.DN())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Granted {
		t.Fatalf("alloc of destination-held sub-flow granted: %+v", results[0])
	}
	if _, ok := srcEP.Lookup("ghost"); ok {
		t.Error("source kept its half of a remotely-denied alloc")
	}

	// Release of "lonely": the source frees it, the destination does
	// not know it, the source must re-admit it at the original size.
	results, err = w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpRelease, SubFlowID: "lonely"},
	}, u.DN())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Granted {
		t.Fatalf("release unknown to the destination granted: %+v", results[0])
	}
	if bw, ok := srcEP.Lookup("lonely"); !ok || bw != 20*units.Mbps {
		t.Errorf("source half of remotely-denied release not restored: bw=%v ok=%t", bw, ok)
	}
}

// TestDuplicateTunnelRegistrationDenied is the regression for the
// destination-side registration bug: a tunnel reserve whose RAR id
// collides with a live endpoint used to silently shadow it (the
// Registry.Add error was discarded) — it must be a denial, with the
// admission rolled back everywhere and the original endpoint intact.
func TestDuplicateTunnelRegistrationDenied(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	spec := u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps, Tunnel: true,
	})
	// Pre-provision an endpoint under the same RAR id at the
	// destination, as an operator would for an out-of-band aggregate.
	ep, err := tunnel.NewEndpoint(spec.RARID, 5*units.Mbps, spec.Window,
		identity.NewDN("Grid", "Elsewhere", "bb"), identity.NewDN("Grid", "Elsewhere", "bob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BBs[w.DestDomain()].RegisterTunnelEndpoint(ep); err != nil {
		t.Fatal(err)
	}
	// Registering the same id again is itself refused.
	if err := w.BBs[w.DestDomain()].RegisterTunnelEndpoint(ep); err == nil {
		t.Fatal("second registration of the same RAR id accepted")
	}

	res, err := u.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("tunnel reserve colliding with a live endpoint was granted")
	}
	if !strings.Contains(res.Reason, "tunnel registration") {
		t.Errorf("denial reason %q does not surface the registration conflict", res.Reason)
	}
	// Nothing stranded: the optimistic admissions along the chain were
	// all rolled back.
	for _, d := range w.Domains {
		if n := grantedIn(w, d); n != 0 {
			t.Errorf("%s: %d granted reservations after denial, want 0", d, n)
		}
	}
	// The pre-provisioned endpoint survived, unshadowed.
	got, ok := w.BBs[w.DestDomain()].Tunnel(spec.RARID)
	if !ok || got.Aggregate != 5*units.Mbps {
		t.Errorf("original endpoint displaced: ok=%t ep=%+v", ok, got)
	}
}

// dropRecvDialer swallows the next N response frames on every
// connection it dials, so a call whose request arrived still times
// out at the caller.
type dropRecvDialer struct {
	inner transport.Dialer
	drops atomic.Int32
}

func (d *dropRecvDialer) Dial(addr string) (transport.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &dropRecvConn{Conn: conn, d: d}, nil
}

type dropRecvConn struct {
	transport.Conn
	d *dropRecvDialer
}

func (c *dropRecvConn) Recv() ([]byte, error) {
	for {
		frame, err := c.Conn.Recv()
		if err != nil || c.d.drops.Add(-1) < 0 {
			return frame, err
		}
	}
}

// TestTunnelFlowLostAllocReleasedBySaga: when the destination applied a
// sub-flow alloc whose response was lost, the source releases it there
// through a saga compensation — retried past a lost release response
// and counted as settled — and both ends end up without the sub-flow.
func TestTunnelFlowLostAllocReleasedBySaga(t *testing.T) {
	drop := &dropRecvDialer{}
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:   2,
		Capacity:     1000 * units.Mbps,
		CallTimeout:  100 * time.Millisecond,
		RetryBackoff: time.Millisecond,
		EnableObs:    true,
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			if domain != "Domain0" {
				return d
			}
			drop.inner = d
			return drop
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 100 * units.Mbps, Tunnel: true})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: res=%+v err=%v", res, err)
	}
	src, dest := w.SourceDomain(), w.DestDomain()

	// Lose the alloc's response and the first release's response.
	drop.drops.Store(2)
	if err := w.BBs[src].AllocateTunnelFlow(spec.RARID, "f1", 10*units.Mbps, u.DN()); err == nil {
		t.Fatal("alloc with a lost response reported success")
	}
	deadline := time.Now().Add(5 * time.Second)
	for metric(w, src, "bb_saga_compensations_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("remote sub-flow release never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, d := range []string{src, dest} {
		ep, _ := w.BBs[d].Tunnel(spec.RARID)
		if _, ok := ep.Lookup("f1"); ok {
			t.Errorf("%s still holds the sub-flow of a failed alloc", d)
		}
	}
	if n := metric(w, src, "bb_rollbacks_abandoned_total"); n != 0 {
		t.Errorf("bb_rollbacks_abandoned_total = %v, want 0", n)
	}
}
