package bb_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// metric reads one counter or gauge from a domain's registry.
func metric(w *experiment.World, domain, name string) float64 {
	return w.Metrics[domain].Snapshot()[name]
}

// waitSagasSettled polls until a domain holds no live saga: every
// compensation it owed has run (or been given up on).
func waitSagasSettled(t *testing.T, w *experiment.World, domain string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for metric(w, domain, "bb_sagas_live") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: sagas still live after the compensation window", domain)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSinglePathCrashRecoveryWithdrawsForward is the single-path
// analogue of TestSplitCrashRecoveryResumesCompensations: the ingress
// admits, and its first forward parks before the frame leaves. A crash
// there used to leave an admission no route entry, saga or cancel could
// reach; the hop's saga is journaled before the send, so the rebuilt
// broker presumes abort, cancels the child and releases the admission.
func TestSinglePathCrashRecoveryWithdrawsForward(t *testing.T) {
	gate := &splitGateDialer{
		target: "bb.Domain1",
		at:     1,
		hit:    make(chan struct{}),
		gate:   make(chan struct{}),
	}
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:   3,
		CallTimeout:  time.Second,
		RetryBackoff: 5 * time.Millisecond,
		EnableObs:    true,
		StateDir:     t.TempDir(),
		FsyncPolicy:  "always",
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			if domain != "Domain0" {
				return d
			}
			gate.inner = d
			return gate
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

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps}))
	}()
	select {
	case <-gate.hit:
	case <-time.After(10 * time.Second):
		t.Fatal("reserve never reached Domain0's first send")
	}
	if got := grantedIn(w, "Domain0"); got != 1 {
		t.Fatalf("Domain0: %d granted before crash, want 1 (the parked admission)", got)
	}
	if err := w.CrashDomain("Domain0"); err != nil {
		t.Fatal(err)
	}
	close(gate.gate)
	<-done

	if err := w.RestartDomainFromJournal("Domain0"); err != nil {
		t.Fatal(err)
	}
	waitForCleanTables(t, w)
	waitSagasSettled(t, w, "Domain0")
	if n := metric(w, "Domain0", "bb_rollbacks_abandoned_total"); n != 0 {
		t.Errorf("bb_rollbacks_abandoned_total = %v, want 0", n)
	}
}

// TestSplitChildLostCancelledOnce: a split child whose frame fails in
// transport owes exactly one cancel at its branch — the hop saga's —
// not a second one scheduled beside it.
func TestSplitChildLostCancelledOnce(t *testing.T) {
	gate := &splitGateDialer{
		target: "bb.Domain2",
		hit:    make(chan struct{}),
		gate:   make(chan struct{}),
	}
	close(gate.gate) // fail the split child's send at once
	w := multiWorld(t, 2, experiment.WorldConfig{
		Capacity: 10 * units.Mbps,
		Capacities: map[string]units.Bandwidth{
			"Domain1": 5 * units.Mbps,
			"Domain2": 5 * units.Mbps,
		},
		CallTimeout:  time.Second,
		RetryBackoff: time.Millisecond,
		MaxPaths:     2,
		SplitParts:   2,
		EnableObs:    true,
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			if domain != "Domain0" {
				return d
			}
			gate.inner = d
			return gate
		},
	})
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps}))
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if res.Granted {
		t.Fatalf("split granted with a lost child: %+v", res)
	}
	waitForCleanTables(t, w)
	waitSagasSettled(t, w, "Domain0")
	if n := metric(w, "Domain2", "bb_cancels_total"); n != 1 {
		t.Errorf("Domain2 received %v cancels for its lost child, want 1", n)
	}
	if n := metric(w, "Domain0", "bb_sagas_started_total"); n != 1 {
		t.Errorf("bb_sagas_started_total = %v, want 1 (the ingress hop's saga only)", n)
	}
}

// TestBreakerOpenSendsNoCancel: a reserve the open breaker refuses
// before any frame leaves is denied fast with the circuit named, and
// owes the peer nothing — no cancel is sent to the refused hop.
func TestBreakerOpenSendsNoCancel(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:   3,
		CallTimeout:  time.Second,
		RetryBackoff: time.Millisecond,
		EnableObs:    true,
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
	if err := w.BBs["Domain0"].TripBreaker("Domain1"); err != nil {
		t.Fatal(err)
	}

	res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps}))
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if res.Granted || !strings.Contains(res.Reason, "circuit") {
		t.Fatalf("want a denial naming the open circuit, got %+v", res)
	}
	waitForCleanTables(t, w)
	waitSagasSettled(t, w, "Domain0")
	if n := metric(w, "Domain1", "bb_cancels_total"); n != 0 {
		t.Errorf("Domain1 received %v cancels for a frame it never got, want 0", n)
	}
}

// reserveTapDialer hands every reserve frame a broker sends to tap,
// which may rewrite it. The multipath fields ride unsigned, so a
// rewritten copy stays broker-signed.
type reserveTapDialer struct {
	inner transport.Dialer
	tap   func(*signalling.ReservePayload)
}

func (d *reserveTapDialer) Dial(addr string) (transport.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &reserveTapConn{Conn: conn, tap: d.tap}, nil
}

type reserveTapConn struct {
	transport.Conn
	tap func(*signalling.ReservePayload)
}

func (c *reserveTapConn) Send(frame []byte) error {
	if msg, err := signalling.DecodeMessage(frame); err == nil && msg.Reserve != nil {
		c.tap(msg.Reserve)
		frame = msg.AppendBinary(nil)
	}
	return c.Conn.Send(frame)
}

// TestRerouteOffForwardsHopByHopFrames: with multipath off every hop
// walks a one-path set, and no forwarded frame carries a pin or an
// attempt — the frames are the plain hop-by-hop ones.
func TestRerouteOffForwardsHopByHopFrames(t *testing.T) {
	var mu sync.Mutex
	forwarded := 0
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  4,
		CallTimeout: time.Second,
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			return &reserveTapDialer{inner: d, tap: func(p *signalling.ReservePayload) {
				mu.Lock()
				defer mu.Unlock()
				forwarded++
				if len(p.PathPin) != 0 || p.Attempt != 0 {
					t.Errorf("%s forwarded pin=%v attempt=%d, want neither", domain, p.PathPin, p.Attempt)
				}
			}}
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
	res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps}))
	if err != nil || !res.Granted {
		t.Fatalf("reserve: res=%+v err=%v", res, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if forwarded != 3 {
		t.Errorf("%d reserve frames forwarded between brokers, want 3", forwarded)
	}
}

// TestReroutePinValidationAtTransitHop: a transit hop forwards a
// pinned copy only along its pin. A copy whose pin omits the hop, or
// names a successor that is not its neighbour, is refused there with
// the hop's signed refusal, and nothing stays admitted anywhere.
func TestReroutePinValidationAtTransitHop(t *testing.T) {
	for name, tc := range map[string]struct {
		pin    []string
		reason string
	}{
		"omits-domain":  {[]string{"Domain0", "Domain2", "Domain3"}, "Domain1: not on pinned path"},
		"not-neighbour": {[]string{"Domain0", "Domain1", "Domain2", "Domain3"}, "Domain1: pinned next hop Domain2 is not a neighbour"},
	} {
		t.Run(name, func(t *testing.T) {
			w := multiWorld(t, 2, experiment.WorldConfig{
				CallTimeout: time.Second,
				MaxPaths:    2,
				EnableObs:   true,
				WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
					if domain != "Domain0" {
						return d
					}
					return &reserveTapDialer{inner: d, tap: func(p *signalling.ReservePayload) { p.PathPin = tc.pin }}
				},
			})
			// Only the path through Domain1 is tried.
			if err := w.BBs["Domain0"].TripBreaker("Domain2"); err != nil {
				t.Fatal(err)
			}
			u, err := w.NewUser("alice", "", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(u.Close)

			res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps}))
			if err != nil {
				t.Fatalf("reserve: %v", err)
			}
			if res.Granted || res.Reason != tc.reason {
				t.Fatalf("want a denial %q, got %+v", tc.reason, res)
			}
			if err := w.VerifyApprovals(res); err != nil {
				t.Fatalf("approval signatures: %v", err)
			}
			refused := false
			for _, a := range res.Approvals {
				if a.Domain == "Domain1" && !a.Granted {
					refused = true
				}
			}
			if !refused {
				t.Errorf("denial carries no signed refusal from Domain1: %+v", res.Approvals)
			}
			waitForCleanTables(t, w)
		})
	}
}
