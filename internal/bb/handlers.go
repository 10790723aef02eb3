package bb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/policysrv"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/topology"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// tunnelRegistry wraps the tunnel package registry and keeps the batch
// replay cache: per-batch outcomes keyed (tunnel RAR, batch id), with
// the same in-flight dedup scheme the RAR cache uses — a concurrent
// retransmission finds the first copy's placeholder and waits for its
// done channel instead of re-applying ops.
type tunnelRegistry struct {
	reg *tunnel.Registry

	mu      sync.Mutex
	batches map[string]*batchState
}

// batchState is one batch's replay-cache entry.
type batchState struct {
	// done is closed once the batch has been applied and its outcome
	// journaled; duplicates arriving mid-flight wait on it.
	done chan struct{}
	// outcome is replayed verbatim on retransmission.
	outcome *signalling.Message
	// epoch pins the entry to a specific registration of the tunnel
	// RAR id, so snapshots and teardown can tell stale entries apart.
	epoch int64
	rarID string
	id    string
}

func batchKey(rarID, batchID string) string { return rarID + "\x00" + batchID }

func newTunnelRegistry() *tunnelRegistry {
	return &tunnelRegistry{reg: tunnel.NewRegistry(), batches: make(map[string]*batchState)}
}

// begin registers a batch placeholder, or returns the existing entry
// with dup=true.
func (t *tunnelRegistry) begin(rarID, batchID string, epoch int64) (st *batchState, dup bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.batches[batchKey(rarID, batchID)]; ok {
		return st, true
	}
	st = &batchState{done: make(chan struct{}), epoch: epoch, rarID: rarID, id: batchID}
	t.batches[batchKey(rarID, batchID)] = st
	return st, false
}

// record stores a batch outcome, making the entry part of every
// snapshot cut from now on. Duplicates keep waiting on done.
func (t *tunnelRegistry) record(st *batchState, outcome *signalling.Message) {
	t.mu.Lock()
	st.outcome = outcome
	t.mu.Unlock()
}

// outcomeOf reads a settled outcome (nil while in flight).
func (t *tunnelRegistry) outcomeOf(st *batchState) *signalling.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return st.outcome
}

// restoreBatch repopulates a replay-cache entry during journal
// recovery; done comes pre-closed because the batch settled in a
// previous life.
func (t *tunnelRegistry) restoreBatch(rarID string, epoch int64, batchID string, outcome *signalling.Message) {
	done := make(chan struct{})
	close(done)
	t.mu.Lock()
	t.batches[batchKey(rarID, batchID)] = &batchState{
		done: done, outcome: outcome, epoch: epoch, rarID: rarID, id: batchID,
	}
	t.mu.Unlock()
}

// dropBatches evicts replay-cache entries for a torn-down tunnel
// registration (matching epoch only — a re-established tunnel keeps
// its own batches).
func (t *tunnelRegistry) dropBatches(rarID string, epoch int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, st := range t.batches {
		if st.rarID == rarID && st.epoch == epoch {
			delete(t.batches, k)
		}
	}
}

// resetBatches replaces the whole replay cache with a snapshot's
// settled entries — a replication follower installing a leader
// snapshot. In-flight entries are discarded with it: a follower never
// has batches of its own in flight.
func (t *tunnelRegistry) resetBatches(snaps []tunnelBatchSnap) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batches = make(map[string]*batchState, len(snaps))
	for _, bs := range snaps {
		done := make(chan struct{})
		close(done)
		t.batches[batchKey(bs.RARID, bs.BatchID)] = &batchState{
			done: done, outcome: bs.Outcome, epoch: bs.Epoch, rarID: bs.RARID, id: bs.BatchID,
		}
	}
}

// settledBatches snapshots the replay cache for journal rotation,
// sorted for deterministic bytes. Entries without an outcome yet are
// skipped: their record is journaled after the outcome is recorded, so
// it lands after the rotation completes.
func (t *tunnelRegistry) settledBatches() []tunnelBatchSnap {
	t.mu.Lock()
	out := make([]tunnelBatchSnap, 0, len(t.batches))
	for _, st := range t.batches {
		if st.outcome == nil {
			continue
		}
		out = append(out, tunnelBatchSnap{RARID: st.rarID, Epoch: st.epoch, BatchID: st.id, Outcome: st.outcome})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].RARID != out[j].RARID {
			return out[i].RARID < out[j].RARID
		}
		return out[i].BatchID < out[j].BatchID
	})
	return out
}

// Route keys. The RAR id is user-signed, so the broker cannot mint
// fresh ids for re-route attempts or split children — instead the
// per-hop idempotency key salts the id with the unsigned attempt/split
// fields: a re-routed copy must not be mistaken for a retransmission
// at a domain two disjoint paths share. '~' is reserved as the
// separator (RAR ids come from NewRARID and never contain it).
//
//	RARID        ingress / primary attempt
//	RARID~a<n>   re-route attempt n
//	RARID~s<p>   split child p
//
// Cancels carry route keys in their (opaque) RARID field, so teardown
// follows the same identity the reserve created.
func routeKey(rarID string, p *signalling.ReservePayload) string {
	switch {
	case p.SplitPart > 0:
		return fmt.Sprintf("%s~s%d", rarID, p.SplitPart)
	case p.Attempt > 0:
		return fmt.Sprintf("%s~a%d", rarID, p.Attempt)
	default:
		return rarID
	}
}

// baseRARID strips the route-key salt: tunnel endpoints and edge flows
// are registered under the signed id, whatever key the hop holds.
func baseRARID(key string) string {
	if i := strings.IndexByte(key, '~'); i >= 0 {
		return key[:i]
	}
	return key
}

// maxPaths / splitParts resolve the multipath knobs (<=1 / <2 disable).
func (b *BB) maxPaths() int {
	if b.cfg.MaxPaths > 1 {
		return b.cfg.MaxPaths
	}
	return 1
}

func (b *BB) splitParts() int {
	if b.cfg.SplitParts >= 2 {
		return b.cfg.SplitParts
	}
	return 0
}

// Handle implements signalling.Handler: the broker's message dispatch.
// On a replica-group follower every mutating message redirects to the
// leader; status reads and replication traffic are served locally.
func (b *BB) Handle(peer signalling.Peer, msg *signalling.Message) *signalling.Message {
	if b.repl.isFollower() {
		switch msg.Type {
		case signalling.MsgReserve, signalling.MsgCancel, signalling.MsgTunnelAlloc,
			signalling.MsgTunnelRelease, signalling.MsgTunnelBatch:
			return b.redirect()
		}
	}
	switch msg.Type {
	case signalling.MsgReserve:
		if msg.Reserve == nil {
			return signalling.ErrorResult("reserve message without payload")
		}
		return b.handleReserve(peer, msg.Reserve)
	case signalling.MsgCancel:
		if msg.Cancel == nil {
			return signalling.ErrorResult("cancel message without payload")
		}
		return b.handleCancel(peer, msg.Cancel)
	case signalling.MsgTunnelAlloc:
		if msg.TunnelAlloc == nil {
			return signalling.ErrorResult("tunnel-alloc message without payload")
		}
		return b.handleTunnelAlloc(peer, msg.TunnelAlloc)
	case signalling.MsgTunnelRelease:
		if msg.TunnelRelease == nil {
			return signalling.ErrorResult("tunnel-release message without payload")
		}
		return b.handleTunnelRelease(peer, msg.TunnelRelease)
	case signalling.MsgTunnelBatch:
		if msg.TunnelBatch == nil {
			return signalling.ErrorResult("tunnel-batch message without payload")
		}
		return b.handleTunnelBatch(peer, msg.TunnelBatch)
	case signalling.MsgStatus:
		if msg.Status == nil {
			return signalling.ErrorResult("status message without payload")
		}
		return b.handleStatus(msg.Status)
	case signalling.MsgJournalStream:
		if msg.JournalStream == nil {
			return signalling.ErrorResult("journal-stream message without payload")
		}
		return b.handleJournalStream(peer, msg.JournalStream)
	default:
		return signalling.ErrorResult(fmt.Sprintf("unsupported message type %q", msg.Type))
	}
}

// deny builds a denied result carrying this domain's signed refusal,
// implementing "Whenever a request is denied by one domain, the event
// is propagated upstream to inform the user of the reason for the
// denial."
func (b *BB) deny(rarID, reason string) *signalling.Message {
	resp := signalling.ErrorResult(reason)
	if a, err := b.signApproval(rarID, "", false, reason); err == nil {
		resp.Result.Approvals = []signalling.DomainApproval{a}
	}
	return resp
}

// finishTrace stamps this hop's span onto the response of a traced
// reserve: total time, verdict (derived from the result unless the
// processing already pinned one), and the trace id echo. Spans from
// hops below are already in the result; this hop's span goes on top,
// mirroring how approvals stack on the return path.
func finishTrace(resp *signalling.Message, span *obs.Span, traceID string, t0 time.Time) {
	if span == nil || resp == nil || resp.Result == nil {
		return
	}
	span.TotalNS = time.Since(t0).Nanoseconds()
	if span.Verdict == "" {
		if resp.Result.Granted {
			span.Verdict = obs.VerdictGranted
		} else {
			span.Verdict = obs.VerdictDenied
			span.Reason = resp.Result.Reason
		}
	}
	resp.Result.TraceID = traceID
	resp.Result.Trace = append(resp.Result.Trace, *span)
}

func (b *BB) handleReserve(peer signalling.Peer, payload *signalling.ReservePayload) *signalling.Message {
	t0 := time.Now()
	b.m.received.Inc()
	// Tracing is requester-opt-in: without a trace id no span is
	// built and the traced branches below reduce to nil checks.
	var span *obs.Span
	if payload.TraceID != "" {
		span = &obs.Span{Domain: b.cfg.Domain, BB: string(b.cfg.Key.DN)}
	}
	env, err := payload.Envelope()
	if err != nil {
		b.m.denied.Inc()
		b.log.Warn("reserve: malformed envelope", obs.AttrPeer, string(peer.DN), "err", err)
		resp := signalling.ErrorResult(fmt.Sprintf("malformed envelope: %v", err))
		finishTrace(resp, span, payload.TraceID, t0)
		b.recordReserveEvent("", "", payload, resp, t0)
		return resp
	}
	now := b.cfg.Clock()
	tVerify := time.Now()
	verified, err := b.proto.Verify(env, peer.DN, peer.CertDER, now)
	verifyNS := time.Since(tVerify).Nanoseconds()
	if span != nil {
		span.VerifyNS = verifyNS
	}
	if err != nil {
		b.m.denied.Inc()
		b.log.Warn("reserve: verification failed", obs.AttrPeer, string(peer.DN),
			obs.AttrTrace, payload.TraceID, "err", err)
		resp := signalling.ErrorResult(fmt.Sprintf("verification failed: %v", err))
		finishTrace(resp, span, payload.TraceID, t0)
		b.recordReserveEvent("", "", payload, resp, t0)
		return resp
	}
	spec := verified.Spec

	// Flight-recorder sampling: only the ingress hop — the broker that
	// took the RAR from the user — rolls the dice, then the decision
	// rides the signalling payload so every hop below records the same
	// request (per-hop dice would compound the rate down the chain).
	// Sampled requests get a span even without requester opt-in tracing,
	// so the recorded event carries the full per-hop timeline; a request
	// the requester already traces keeps its trace id and just gains the
	// sampled bit.
	if !payload.Sampled && len(verified.Path) == 1 && b.sampler.Sample() {
		payload.Sampled = true
		if payload.TraceID == "" {
			payload.TraceID = obs.NewTraceID()
		}
	}
	if span == nil && payload.Sampled {
		span = &obs.Span{Domain: b.cfg.Domain, BB: string(b.cfg.Key.DN), VerifyNS: verifyNS}
	}

	// Duplicate route keys would corrupt cancellation state. The key is
	// the RAR id salted with the unsigned attempt/split fields, so a
	// re-routed or split copy crossing a shared domain is a fresh
	// registration while a retransmission from an upstream hop that
	// lost the response still collides. A duplicate waits out any
	// still-in-flight first copy, then replays its outcome verbatim, so
	// retries are idempotent (re-admitting would double-book, denying a
	// granted chain would strand it). The placeholder registered for
	// fresh keys is what lets a concurrent retransmission find the
	// first copy.
	key := routeKey(spec.RARID, payload)
	b.mu.Lock()
	st, dup := b.routes[key]
	if !dup {
		b.rarEpoch++
		st = &rarState{spec: spec, done: make(chan struct{}), epoch: b.rarEpoch}
		b.routes[key] = st
	}
	b.mu.Unlock()
	if dup {
		if st.done != nil {
			<-st.done
		}
		b.mu.Lock()
		outcome := st.outcome
		b.mu.Unlock()
		b.m.replays.Inc()
		b.log.Info("reserve: replaying recorded outcome for retransmitted RAR",
			obs.AttrRAR, spec.RARID, obs.AttrPeer, string(peer.DN), obs.AttrTrace, payload.TraceID)
		if outcome != nil {
			// The recorded outcome already carries this hop's span (and
			// everything below it), so a replay never duplicates spans.
			resp := *outcome // shallow copy: Serve stamps the per-call ID
			return &resp
		}
		return b.deny(spec.RARID, fmt.Sprintf("%s: duplicate RAR id %s", b.cfg.Domain, spec.RARID))
	}
	resp := b.processReserve(key, peer, payload, env, verified, now, span)
	if resp.Result != nil {
		if resp.Result.Granted {
			b.m.granted.Inc()
			if len(verified.Path) == 1 {
				// This hop is the source domain: its handle time IS the
				// end-to-end grant time the user observes.
				b.m.grantSeconds.ObserveSince(t0)
			}
		} else {
			b.m.denied.Inc()
		}
	}
	b.m.handleSeconds.ObserveSince(t0)
	// Stamp the span before recording the outcome, so replays return
	// the identical trace.
	finishTrace(resp, span, payload.TraceID, t0)
	b.logReserveVerdict(spec, payload.TraceID, resp, time.Since(t0))
	b.recordReserveEvent(spec.RARID, string(spec.User), payload, resp, t0)
	b.mu.Lock()
	st.outcome = resp
	b.mu.Unlock()
	// Journal the settled entry before releasing waiters, so a cancel
	// that was blocked on done always journals after this record.
	b.journalRAR(key, st)
	// Group commit: in a replica group the outcome is withheld until a
	// majority holds everything up to and including that record, so a
	// grant the caller ever saw survives this leader's death.
	b.replWaitCommit()
	close(st.done)
	b.maybeCheckpoint()
	return resp
}

// logReserveVerdict emits the one per-reserve log record: grants at
// info, denials (which were silent before the obs layer) at warn.
func (b *BB) logReserveVerdict(spec *core.Spec, traceID string, resp *signalling.Message, took time.Duration) {
	if resp.Result == nil {
		return
	}
	if resp.Result.Granted {
		b.log.Info("reserve granted",
			obs.AttrRAR, spec.RARID, obs.AttrTrace, traceID,
			"user", string(spec.User), "bw", spec.Bandwidth.String(),
			"dest", spec.DestDomain, "handle", resp.Result.Handle, "took", took)
		return
	}
	b.log.Warn("reserve denied",
		obs.AttrRAR, spec.RARID, obs.AttrTrace, traceID,
		"user", string(spec.User), "bw", spec.Bandwidth.String(),
		"dest", spec.DestDomain, "reason", resp.Result.Reason, "took", took)
}

// processReserve runs the admission pipeline for a first-seen RAR:
// upstream SLA check, policy decision, route resolution, local
// admission, and downstream forwarding. The caller records the
// returned message as the RAR's replayable outcome. span, non-nil only
// on traced reserves, collects where the hop's time went;
// processReserve pins span.Verdict only when the result alone cannot
// distinguish the failure mode (transport error vs. own denial vs.
// rolled-back admission).
func (b *BB) processReserve(key string, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, now time.Time, span *obs.Span) *signalling.Message {
	spec := verified.Spec

	// Identify the upstream entity. A single-layer chain came from the
	// user directly; otherwise the outermost signer is the upstream BB.
	fromUser := len(verified.Path) == 1
	// The multipath fields are broker-internal: the user signs the RAR
	// but never pins paths, claims re-route attempts or carries split
	// shares — those are minted hop-to-hop, under broker signatures.
	if fromUser && (len(payload.PathPin) > 0 || payload.Attempt != 0 ||
		payload.SplitPart != 0 || payload.SplitOf != 0 || payload.SplitBW != 0) {
		return b.deny(spec.RARID, fmt.Sprintf("%s: multipath fields are broker-internal", b.cfg.Domain))
	}
	// bw is what this hop admits: the signed total or, for a split
	// child, the unsigned share — which may only reduce the signed
	// bandwidth, never raise it (that is why it can ride unsigned).
	bw := spec.Bandwidth
	if payload.SplitPart != 0 || payload.SplitOf != 0 || payload.SplitBW != 0 {
		switch {
		case payload.SplitOf < 2 || payload.SplitPart < 1 || payload.SplitPart > payload.SplitOf:
			return b.deny(spec.RARID, fmt.Sprintf("%s: malformed split part %d of %d", b.cfg.Domain, payload.SplitPart, payload.SplitOf))
		case payload.SplitBW <= 0 || units.Bandwidth(payload.SplitBW) > spec.Bandwidth:
			return b.deny(spec.RARID, fmt.Sprintf("%s: split share outside the signed bandwidth", b.cfg.Domain))
		case spec.Tunnel:
			return b.deny(spec.RARID, fmt.Sprintf("%s: tunnel reservations cannot split", b.cfg.Domain))
		}
		bw = units.Bandwidth(payload.SplitBW)
	}
	// One sweep of the table serves the SLA check and the policy query.
	avail := b.table.Available(spec.Window)
	if !fromUser {
		upBB := verified.Path[len(verified.Path)-1]
		upDomain, ok := b.domainOfBB(upBB)
		if !ok {
			return b.deny(spec.RARID, fmt.Sprintf("%s: unknown upstream broker %s", b.cfg.Domain, upBB))
		}
		// SLA conformance: the premium aggregate entering from the
		// upstream peer must stay inside the contracted profile.
		contract := b.cfg.InboundSLAs[upDomain]
		if contract == nil {
			return b.deny(spec.RARID, fmt.Sprintf("%s: no SLA with upstream domain %s", b.cfg.Domain, upDomain))
		}
		if !contract.Valid(now) {
			return b.deny(spec.RARID, fmt.Sprintf("%s: SLA with %s not valid", b.cfg.Domain, upDomain))
		}
		if err := contract.Conforms(b.cfg.Capacity-avail, bw); err != nil {
			return b.deny(spec.RARID, fmt.Sprintf("%s: %v", b.cfg.Domain, err))
		}
	}

	// Consult the policy server (§5): validated assertions,
	// capability-chain verification and local policy.
	q := &policysrv.Query{
		User:               spec.User,
		Bandwidth:          bw,
		Window:             spec.Window,
		Available:          avail,
		SourceDomain:       spec.SourceDomain,
		DestDomain:         spec.DestDomain,
		Assertions:         spec.Assertions,
		CapabilityChain:    verified.Capabilities,
		RequireRestriction: spec.RestrictionFor(),
		LinkedReservations: b.validateLinkedHandles(spec),
	}
	tPolicy := time.Now()
	res, err := b.cfg.Policy.Decide(q)
	if span != nil {
		span.PolicyNS = time.Since(tPolicy).Nanoseconds()
	}
	if err != nil {
		return b.deny(spec.RARID, fmt.Sprintf("%s: policy server: %v", b.cfg.Domain, err))
	}
	if !res.Decision.Granted() {
		return b.deny(spec.RARID, fmt.Sprintf("%s: policy denied: %s", b.cfg.Domain, res.Decision.Reason))
	}

	// Resolve where a forwarded RAR goes before admitting it, so a
	// routing failure leaves nothing to undo.
	isDest := spec.DestDomain == b.cfg.Domain
	local := payload.Mode == signalling.ModeLocal
	var paths [][]string
	if !isDest && !local {
		if paths, err = b.pathsFor(spec, payload, fromUser); err != nil {
			return b.deny(spec.RARID, fmt.Sprintf("%s: %v", b.cfg.Domain, err))
		}
	}

	// Admission control against the local reservation table.
	tAdmit := time.Now()
	r, err := b.table.Admit(resv.AdmitRequest{
		User:      spec.User,
		SrcHost:   spec.SrcHost,
		DstHost:   spec.DstHost,
		Bandwidth: bw,
		Window:    spec.Window,
		Tunnel:    spec.Tunnel,
	})
	if span != nil {
		span.AdmitNS = time.Since(tAdmit).Nanoseconds()
	}
	if err != nil {
		return b.deny(spec.RARID, fmt.Sprintf("%s: admission: %v", b.cfg.Domain, err))
	}
	if paths == nil {
		if isDest && !local && spec.Tunnel {
			// Register before granting: a duplicate tunnel RAR id is a
			// denial, not a silent shadow of the live endpoint. The
			// admission is released through a saga like every other undo.
			if err := b.registerTunnelDest(verified, peer); err != nil {
				b.openHopSaga(key, r.Handle).fail()
				return b.deny(spec.RARID, fmt.Sprintf("%s: tunnel registration: %v", b.cfg.Domain, err))
			}
		}
		return b.grant(key, peer, verified, r.Handle, "", "", nil, nil)
	}
	return b.forward(key, peer, payload, env, verified, res, r, paths, span)
}

// pathsFor resolves the path set a forwarding hop walks: the ingress
// takes up to k cheapest disjoint paths (k = maxPaths(), 1 by default),
// a pinned copy the one path its pin gives from this domain on, and any
// other hop its shortest path. Hop-by-hop routing is the k=1 walk.
func (b *BB) pathsFor(spec *core.Spec, payload *signalling.ReservePayload, fromUser bool) ([][]string, error) {
	pin := payload.PathPin
	if len(pin) == 0 {
		k := 1
		if fromUser {
			k = b.maxPaths()
		}
		paths, err := b.cfg.Topo.Paths(b.cfg.Domain, spec.DestDomain, k)
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
		return paths, nil
	}
	i := slices.Index(pin, b.cfg.Domain)
	if i < 0 || i+1 == len(pin) {
		return nil, errors.New("not on pinned path")
	}
	if _, adjacent := b.cfg.Topo.LinkBetween(b.cfg.Domain, pin[i+1]); !adjacent {
		return nil, fmt.Errorf("pinned next hop %s is not a neighbour", pin[i+1])
	}
	return [][]string{pin[i:]}, nil
}

// forward is the forwarding walker. It tries the hop's path set in
// order, skipping paths whose first-hop breaker is open: a grant
// settles the hop, a refusal by the destination ends the walk (every
// disjoint path converges on it), and a mid-chain refusal or a
// transport failure moves on to the next path. When mid-chain refusals
// used up a multi-path set, a splitting ingress continues the walk in
// splitAcross. Only a multi-path ingress stamps the pin and attempt on
// its copies, salting the route key per attempt so a shared downstream
// domain cannot mistake a re-route for a retransmission; a k=1 walk
// sends exactly the hop-by-hop frame. Every undo goes through the one
// hopSaga opened before the first send.
func (b *BB) forward(key string, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, res *policysrv.Result, r *resv.Reservation, paths [][]string, span *obs.Span) *signalling.Message {
	spec := verified.Spec
	sg := b.openHopSaga(key, r.Handle)
	stamp := len(verified.Path) == 1 && b.maxPaths() > 1
	var denial *signalling.ResultPayload
	var lastErr error
	note := "upstream of denial"
	midDenials, attempted := 0, 0
	for i, path := range paths {
		// Paths only cross links, so every first hop is a known domain.
		nd, _ := b.cfg.Topo.Domain(path[1])
		if wait, open := b.breakerFor(nd.BBDN).open(b.cfg.Clock()); open {
			b.m.rerouteSkips.Inc()
			b.log.Info("reserve: skipping path, first-hop breaker open",
				obs.AttrRAR, spec.RARID, obs.AttrPeer, string(nd.BBDN),
				"path", strings.Join(path, ">"), "reopens_in", wait.Round(time.Millisecond))
			lastErr = fmt.Errorf("%w to %s for another %v", errCircuitOpen, nd.BBDN, wait.Round(time.Millisecond))
			continue
		}
		child, childKey := payload, key
		if stamp {
			c := *payload
			c.PathPin, c.Attempt = path, i
			child, childKey = &c, routeKey(spec.RARID, &c)
		}
		if attempted > 0 {
			b.m.reroutes.Inc()
			b.log.Info("reserve: re-routing onto disjoint path",
				obs.AttrRAR, spec.RARID, "attempt", i, "path", strings.Join(path, ">"))
		}
		attempted++
		downstream, err := b.forwardChild(sg, childKey, nd, peer, child, env, verified, res, span)
		if err != nil {
			lastErr = err
			continue
		}
		if downstream.Result.Granted {
			// A RAR id colliding with a live tunnel must surface as a
			// denial, not silently shadow the existing endpoint.
			if len(verified.Path) == 1 && spec.Tunnel {
				if err := b.registerTunnelSource(spec, downstream.Result); err != nil {
					sg.fail()
					return b.deny(spec.RARID, fmt.Sprintf("%s: tunnel registration: %v", b.cfg.Domain, err))
				}
			}
			sg.commit()
			return b.grant(key, peer, verified, r.Handle, nd.BBDN, childKey, nil, downstream.Result)
		}
		denial = downstream.Result
		if deniedAtDest(denial, spec.DestDomain) {
			break
		}
		midDenials++
	}
	if midDenials > 0 && b.splitParts() > 0 && len(paths) >= 2 && !spec.Tunnel {
		resp, failure, err := b.splitAcross(sg, key, peer, payload, env, verified, res, r, paths, span)
		if resp != nil {
			return resp
		}
		if failure != nil || err != nil {
			b.m.splitFails.Inc()
			denial, lastErr, note = failure, err, "split aborted"
		}
	}
	sg.fail()
	if denial == nil {
		if span != nil {
			span.Verdict = obs.VerdictError
			span.Reason = lastErr.Error()
		}
		return b.deny(spec.RARID, fmt.Sprintf("%s: downstream call: %v", b.cfg.Domain, lastErr))
	}
	// Propagate the refusal upstream with the approvals and spans from
	// below, plus this hop's signed note.
	resp := signalling.ErrorResult(denial.Reason)
	resp.Result.Approvals = denial.Approvals
	resp.Result.Trace = denial.Trace
	if a, err := b.signApproval(spec.RARID, "", false, note); err == nil {
		resp.Result.Approvals = append(resp.Result.Approvals, a)
	}
	if span != nil {
		// This hop did not refuse; the refusal is in a deeper span.
		span.Verdict = obs.VerdictRolledBack
	}
	return resp
}

// forwardChild performs one downstream forward of the (possibly
// pinned, possibly split) payload under the hop's saga. The child's
// cancel is owed before the frame leaves; it is settled again when the
// hop below refused (that hop rolled itself back) or the open breaker
// kept the frame from leaving, and stays owed — lost — on any other
// transport failure or a result-less response, since the hop below may
// have admitted before the response was lost. A grant or denial comes
// back as is; the walker owns the local admission either way.
func (b *BB) forwardChild(sg *hopSaga, childKey string, nd *topology.Domain, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, res *policysrv.Result, span *obs.Span) (*signalling.Message, error) {
	nextCert := b.cfg.PeerCerts[nd.BBDN]
	if nextCert == nil {
		return nil, fmt.Errorf("no certificate for next hop %s", nd.BBDN)
	}
	extended, err := b.proto.Extend(env, peer.CertDER, verified, nextCert, res.Additions)
	if err != nil {
		return nil, fmt.Errorf("extend: %w", err)
	}
	fwd, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, extended)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	// The trace id and sampling decision ride the whole chain so every
	// hop below records a span into the same trace; the pin and split
	// fields ride it so every hop below computes the same route key.
	fwd.Reserve.TraceID = payload.TraceID
	fwd.Reserve.Sampled = payload.Sampled
	fwd.Reserve.PathPin = payload.PathPin
	fwd.Reserve.Attempt = payload.Attempt
	fwd.Reserve.SplitPart = payload.SplitPart
	fwd.Reserve.SplitOf = payload.SplitOf
	fwd.Reserve.SplitBW = payload.SplitBW
	step := sg.owe(nd.BBDN, childKey)
	b.m.forwarded.Inc()
	tDown := time.Now()
	downstream, retries, err := b.callPeer(nd.BBDN, fwd)
	b.m.downstreamSeconds.ObserveSince(tDown)
	if span != nil {
		// Accumulate: a re-routing ingress forwards more than once.
		span.DownstreamNS += time.Since(tDown).Nanoseconds()
		span.Retries += retries
	}
	if err == nil && downstream.Result == nil {
		err = fmt.Errorf("downstream sent no result")
	}
	if err != nil {
		if errors.Is(err, errCircuitOpen) {
			sg.settle(step) // the frame never left
		} else {
			sg.lose(step)
		}
		b.log.Error("reserve: downstream call failed",
			obs.AttrRAR, childKey, obs.AttrPeer, string(nd.BBDN),
			obs.AttrTrace, payload.TraceID, "retries", retries, "err", err)
		return nil, err
	}
	if !downstream.Result.Granted {
		sg.settle(step)
	}
	return downstream, nil
}

// deniedAtDest reports whether a denial came from the destination
// domain itself — its signed refusal is on the approval stack — as
// opposed to a mid-chain hop a disjoint path can route around. Every
// disjoint path converges on the destination, so its refusal is
// terminal for re-routing and splitting alike.
func deniedAtDest(res *signalling.ResultPayload, dest string) bool {
	for _, a := range res.Approvals {
		if a.Domain == dest && !a.Granted {
			return true
		}
	}
	return false
}

// splitAcross continues a walk whose paths each refused the full
// bandwidth mid-chain: it places the reservation as per-path children,
// each carrying an unsigned share of the signed bandwidth (the shares
// sum to it exactly), under the hop's saga — each child's cancel is
// owed before its frame leaves, so a crash inside the call window still
// withdraws whatever that path admitted. All children granted commits
// the saga and returns the grant; the first refusal or transport
// failure stops the split and comes back for the walker to fail the
// hop with, which withdraws the granted siblings. Returns nothing at
// all when fewer than two paths are usable.
func (b *BB) splitAcross(sg *hopSaga, key string, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, res *policysrv.Result, r *resv.Reservation, paths [][]string, span *obs.Span) (*signalling.Message, *signalling.ResultPayload, error) {
	spec := verified.Spec
	parts := b.splitParts()
	usable := make([][]string, 0, parts)
	nds := make([]*topology.Domain, 0, parts)
	for _, path := range paths {
		nd, _ := b.cfg.Topo.Domain(path[1])
		if _, open := b.breakerFor(nd.BBDN).open(b.cfg.Clock()); open {
			continue
		}
		usable = append(usable, path)
		nds = append(nds, nd)
		if len(usable) == parts {
			break
		}
	}
	if len(usable) < 2 {
		return nil, nil, nil
	}
	parts = len(usable)
	total := int64(spec.Bandwidth)
	share := total / int64(parts)
	shares := make([]int64, parts)
	for p := range shares {
		shares[p] = share
	}
	shares[0] += total - share*int64(parts)
	b.log.Info("reserve: splitting across disjoint paths",
		obs.AttrRAR, spec.RARID, "parts", parts, "bw", spec.Bandwidth.String())

	children := make([]childRoute, 0, parts)
	var approvals []signalling.DomainApproval
	var trace []obs.Span
	policyInfo := map[string]string{}
	for p := 0; p < parts; p++ {
		child := *payload
		child.PathPin = usable[p]
		child.SplitPart = p + 1
		child.SplitOf = parts
		child.SplitBW = shares[p]
		childKey := routeKey(spec.RARID, &child)
		downstream, err := b.forwardChild(sg, childKey, nds[p], peer, &child, env, verified, res, span)
		if err != nil {
			return nil, nil, err
		}
		if !downstream.Result.Granted {
			return nil, downstream.Result, nil
		}
		children = append(children, childRoute{Next: nds[p].BBDN, Key: childKey, BW: shares[p]})
		approvals = append(approvals, downstream.Result.Approvals...)
		trace = append(trace, downstream.Result.Trace...)
		for k, v := range downstream.Result.PolicyInfo {
			policyInfo[k] = v
		}
	}
	sg.commit()
	b.m.splits.Inc()
	b.log.Info("reserve: split reservation granted",
		obs.AttrRAR, spec.RARID, "parts", parts)
	return b.grant(key, peer, verified, r.Handle, "", "", children,
		&signalling.ResultPayload{Approvals: approvals, PolicyInfo: policyInfo, Trace: trace}), nil, nil
}

// grant completes a granted hop. It fills in the route entry's
// in-flight placeholder for cancellation and tunnel use — next and
// downKey for a forwarded leg (downKey is the route key the leg runs
// under, which differs from the hop's own key when the ingress
// re-routed), children for a split — then programs the per-flow edge
// marker at the source domain, syncs the data plane, and answers with
// this domain's approval stacked on the approvals, policy info and
// spans from below (nil at the destination).
func (b *BB) grant(key string, peer signalling.Peer, verified *core.VerifiedRequest, handle string, next identity.DN, downKey string, children []childRoute, below *signalling.ResultPayload) *signalling.Message {
	spec := verified.Spec
	b.mu.Lock()
	if st, ok := b.routes[key]; ok {
		st.handle = handle
		st.next = next
		st.downKey = downKey
		st.children = children
		st.tunnel = spec.Tunnel
		st.sourceBB = peer.DN
		st.spec = spec
	}
	b.mu.Unlock()
	if len(verified.Path) == 1 {
		b.installEdgeFlow(spec)
	}
	b.syncDataPlane()
	resp := signalling.OKResult(handle)
	if below != nil {
		resp.Result.Approvals = below.Approvals
		resp.Result.PolicyInfo = below.PolicyInfo
		resp.Result.Trace = below.Trace
	}
	if a, err := b.signApproval(spec.RARID, handle, true, ""); err == nil {
		resp.Result.Approvals = append(resp.Result.Approvals, a)
	}
	return resp
}

// validateLinkedHandles checks the co-reservation references against
// the local resource managers (destination-domain semantics of
// Figure 6: HasValidCPUResv(RAR)).
func (b *BB) validateLinkedHandles(spec *core.Spec) map[string]bool {
	out := make(map[string]bool)
	for resource, handle := range spec.LinkedHandles {
		switch resource {
		case "cpu":
			if b.cfg.CPU != nil && b.cfg.CPU.ValidDuring(handle, spec.Window) {
				out["cpu"] = true
			}
		case "disk":
			if b.cfg.Disk != nil && b.cfg.Disk.Valid(handle, spec.Window.Start) {
				out["disk"] = true
			}
		}
	}
	return out
}

func (b *BB) handleCancel(peer signalling.Peer, payload *signalling.CancelPayload) *signalling.Message {
	b.m.cancels.Inc()
	b.mu.Lock()
	st, ok := b.routes[payload.RARID]
	b.mu.Unlock()
	if !ok {
		return signalling.ErrorResult(fmt.Sprintf("%s: unknown RAR %s", b.cfg.Domain, payload.RARID))
	}
	// If the reserve that created this entry is still in flight (an
	// upstream hop gave up on it and is now cancelling), wait for it to
	// settle so its admission — and its recorded downstream hop — are
	// visible to cancel.
	if st.done != nil {
		<-st.done
	}
	b.mu.Lock()
	if cur, still := b.routes[payload.RARID]; !still || cur != st {
		b.mu.Unlock()
		return signalling.ErrorResult(fmt.Sprintf("%s: unknown RAR %s", b.cfg.Domain, payload.RARID))
	}
	delete(b.routes, payload.RARID)
	b.mu.Unlock()
	// Journal the route removal even if the table cancel below fails:
	// the entry is gone from the live map either way, and a recovered
	// broker must agree.
	b.journalRARCancel(payload.RARID, st.epoch)
	// Tear the tunnel endpoint down before the table cancel can bail
	// out: the route entry is already gone, and a stale endpoint left
	// behind would collide with a re-establishment of the same RAR id.
	// Tunnels and edge flows live under the signed RAR id, whatever
	// route-key salt this hop holds.
	base := baseRARID(payload.RARID)
	if ep, live := b.tunnels.reg.Get(base); live {
		b.tunnels.reg.Remove(base)
		b.tunnels.dropBatches(base, ep.Epoch)
		b.journalTunnelRemove(base, ep.Epoch)
	}
	b.removeEdgeFlow(base)
	if err := b.table.Cancel(st.handle); err != nil {
		return signalling.ErrorResult(fmt.Sprintf("%s: %v", b.cfg.Domain, err))
	}
	b.syncDataPlane()
	// Propagate downstream along the recorded path (best effort, under
	// the call deadline: a dead hop must not wedge the cancel chain).
	// If the synchronous attempt fails, hand the cancel to the
	// persistent async path so hops below the failure don't stay booked.
	// A split ingress fans out to every child leg under that leg's own
	// route key; a re-routed ingress propagates the key the surviving
	// attempt ran under (downKey), not its own.
	legs := st.children
	if len(legs) == 0 && st.next != "" {
		downKey := st.downKey
		if downKey == "" {
			downKey = payload.RARID
		}
		legs = []childRoute{{Next: st.next, Key: downKey}}
	}
	for _, c := range legs {
		if _, _, err := b.callPeer(c.Next, &signalling.Message{
			Type:   signalling.MsgCancel,
			Cancel: &signalling.CancelPayload{RARID: c.Key},
		}); err != nil {
			b.cancelDownstream(cancelComp{Peer: c.Next, Key: c.Key})
		}
	}
	b.log.Info("cancel: released reservation",
		obs.AttrRAR, payload.RARID, obs.AttrPeer, string(peer.DN), "handle", st.handle)
	// The cancel's own records (route removal, table cancel, tunnel
	// teardown) join the group commit before the caller hears back.
	b.replWaitCommit()
	b.maybeCheckpoint()
	return signalling.OKResult(st.handle)
}

func (b *BB) handleStatus(payload *signalling.StatusPayload) *signalling.Message {
	b.mu.Lock()
	st, ok := b.routes[payload.RARID]
	b.mu.Unlock()
	if !ok {
		return signalling.ErrorResult(fmt.Sprintf("%s: unknown RAR %s", b.cfg.Domain, payload.RARID))
	}
	r, ok := b.table.Lookup(st.handle)
	if !ok {
		return signalling.ErrorResult(fmt.Sprintf("%s: handle %s vanished", b.cfg.Domain, st.handle))
	}
	resp := signalling.OKResult(st.handle)
	resp.Result.PolicyInfo = map[string]string{
		"status":    r.Status.String(),
		"bandwidth": r.Bandwidth.String(),
		"window":    r.Window.String(),
	}
	return resp
}

// registerTunnelDest records the tunnel endpoint at the destination
// domain; the authenticated source broker (the first BB on the path)
// is the only entity allowed to drive sub-flow allocations over the
// direct channel. A duplicate RAR id — the establishing reservation of
// a still-live tunnel — is an error the caller must surface as a
// denial, not swallow.
func (b *BB) registerTunnelDest(verified *core.VerifiedRequest, peer signalling.Peer) error {
	spec := verified.Spec
	sourceBB := peer.DN
	if len(verified.Path) > 1 {
		sourceBB = verified.Path[1] // [user, BB_src, ...]
	}
	ep, err := tunnel.NewEndpoint(spec.RARID, spec.Bandwidth, spec.Window, sourceBB, spec.User)
	if err != nil {
		return err
	}
	return b.registerTunnel(ep)
}

// registerTunnelSource records the tunnel endpoint at the source
// domain, remembering the destination broker from the signed
// approvals so sub-flow requests can go directly to it.
func (b *BB) registerTunnelSource(spec *core.Spec, result *signalling.ResultPayload) error {
	var destBB identity.DN
	for _, a := range result.Approvals {
		if a.Domain == spec.DestDomain && a.Granted {
			destBB = a.BBDN
			break
		}
	}
	ep, err := tunnel.NewEndpoint(spec.RARID, spec.Bandwidth, spec.Window, destBB, spec.User)
	if err != nil {
		return err
	}
	return b.registerTunnel(ep)
}

// registerTunnel stamps the endpoint with a fresh registration epoch,
// adds it to the registry (duplicate RAR ids are refused) and journals
// the establishment.
func (b *BB) registerTunnel(ep *tunnel.Endpoint) error {
	b.mu.Lock()
	b.rarEpoch++
	ep.Epoch = b.rarEpoch
	b.mu.Unlock()
	if err := b.tunnels.reg.Add(ep); err != nil {
		return err
	}
	b.journalTunnel(ep)
	return nil
}

// RegisterTunnelEndpoint registers a pre-provisioned tunnel endpoint at
// this broker (an out-of-band established aggregate); the registration
// is journaled like one created through the signalling path. Duplicate
// RAR ids are refused.
func (b *BB) RegisterTunnelEndpoint(ep *tunnel.Endpoint) error {
	return b.registerTunnel(ep)
}

// tunnelFor resolves a tunnel endpoint and checks that the peer is
// authorized on it: only the broker authenticated during establishment
// (or the tunnel owner, for the source side) may drive sub-flows.
func (b *BB) tunnelFor(peer signalling.Peer, rarID string) (*tunnel.Endpoint, string) {
	ep, ok := b.tunnels.reg.Get(rarID)
	if !ok {
		return nil, fmt.Sprintf("%s: no tunnel %s", b.cfg.Domain, rarID)
	}
	if peer.DN != ep.PeerBB && peer.DN != ep.Owner {
		return nil, fmt.Sprintf("%s: %s is not authorized on tunnel %s", b.cfg.Domain, peer.DN, rarID)
	}
	return ep, ""
}

func (b *BB) handleTunnelAlloc(peer signalling.Peer, payload *signalling.TunnelAllocPayload) *signalling.Message {
	ep, reason := b.tunnelFor(peer, payload.TunnelRARID)
	if ep == nil {
		return signalling.ErrorResult(reason)
	}
	gen, err := ep.Allocate(payload.SubFlowID, units.Bandwidth(payload.Bandwidth))
	if err != nil {
		b.m.tunnelDenied.Inc()
		return signalling.ErrorResult(err.Error())
	}
	b.m.tunnelAllocs.Inc()
	b.journalTunnelAlloc(ep, payload.SubFlowID, units.Bandwidth(payload.Bandwidth), gen)
	return signalling.OKResult(payload.SubFlowID)
}

func (b *BB) handleTunnelRelease(peer signalling.Peer, payload *signalling.TunnelReleasePayload) *signalling.Message {
	ep, reason := b.tunnelFor(peer, payload.TunnelRARID)
	if ep == nil {
		return signalling.ErrorResult(reason)
	}
	_, gen, err := ep.Release(payload.SubFlowID)
	if err != nil {
		b.m.tunnelDenied.Inc()
		return signalling.ErrorResult(err.Error())
	}
	b.m.tunnelReleases.Inc()
	b.journalTunnelRelease(ep, payload.SubFlowID, gen)
	return signalling.OKResult(payload.SubFlowID)
}

// handleTunnelBatch applies many sub-flow ops in one RPC. Batches are
// idempotent: the first copy applies the ops, journals one record
// (applied ops + outcome) and caches the outcome; a retransmission with
// the same batch id — including one racing the original mid-flight —
// gets the recorded outcome instead of a second application.
func (b *BB) handleTunnelBatch(peer signalling.Peer, payload *signalling.TunnelBatchPayload) *signalling.Message {
	t0 := time.Now()
	if err := payload.Validate(); err != nil {
		b.recordBatchEvent(payload, len(payload.Ops), obs.VerdictDenied, err.Error(), t0)
		return signalling.ErrorResult(err.Error())
	}
	ep, reason := b.tunnelFor(peer, payload.TunnelRARID)
	if ep == nil {
		b.recordBatchEvent(payload, len(payload.Ops), obs.VerdictDenied, reason, t0)
		return signalling.ErrorResult(reason)
	}
	st, dup := b.tunnels.begin(payload.TunnelRARID, payload.BatchID, ep.Epoch)
	if dup {
		<-st.done
		b.m.tunnelBatchReplays.Inc()
		b.log.Info("tunnel: replaying recorded batch outcome",
			obs.AttrRAR, payload.TunnelRARID, obs.AttrPeer, string(peer.DN), "batch", payload.BatchID)
		if outcome := b.tunnels.outcomeOf(st); outcome != nil {
			resp := *outcome // shallow copy: Serve stamps the per-call ID
			return &resp
		}
		return signalling.ErrorResult(fmt.Sprintf("%s: batch %s settled without outcome", b.cfg.Domain, payload.BatchID))
	}
	results := make([]signalling.TunnelOpResult, len(payload.Ops))
	applied := make([]tunnelOpRec, 0, len(payload.Ops))
	granted := true
	for i, op := range payload.Ops {
		results[i].SubFlowID = op.SubFlowID
		switch op.Action {
		case signalling.OpAlloc:
			gen, err := ep.Allocate(op.SubFlowID, units.Bandwidth(op.Bandwidth))
			if err != nil {
				results[i].Reason = err.Error()
				granted = false
				b.m.tunnelDenied.Inc()
				continue
			}
			results[i].Granted = true
			b.m.tunnelAllocs.Inc()
			applied = append(applied, tunnelOpRec{Action: "alloc", SubFlowID: op.SubFlowID, Bandwidth: op.Bandwidth, Gen: gen})
		case signalling.OpRelease:
			_, gen, err := ep.Release(op.SubFlowID)
			if err != nil {
				results[i].Reason = err.Error()
				granted = false
				b.m.tunnelDenied.Inc()
				continue
			}
			results[i].Granted = true
			b.m.tunnelReleases.Inc()
			applied = append(applied, tunnelOpRec{Action: "release", SubFlowID: op.SubFlowID, Gen: gen})
		}
	}
	// Dense success path: a fully-granted batch answers with the single
	// granted bit — the sender knows its own op list, so per-op results
	// only enumerate when some op was denied. On large batches the
	// results array would otherwise dominate the response frame.
	resp := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{Granted: granted}}
	if !granted {
		denied := 0
		for _, r := range results {
			if !r.Granted {
				denied++
			}
		}
		resp.Result.BatchResults = results
		resp.Result.Reason = fmt.Sprintf("%s: %d/%d ops denied", b.cfg.Domain, denied, len(results))
	}
	// Record the outcome before journaling it: a snapshot cut after the
	// append covers the record, so it must carry the replay-cache entry.
	// Duplicate waiters are released only after the journal append — a
	// retransmission never observes an unjournaled application — and,
	// in a replica group, after a majority holds the record.
	b.tunnels.record(st, resp)
	b.journalTunnelBatch(ep, payload.BatchID, applied, resp)
	b.replWaitCommit()
	close(st.done)
	b.m.tunnelBatches.Inc()
	b.m.tunnelBatchSeconds.ObserveSince(t0)
	verdict := obs.VerdictGranted
	if !granted {
		verdict = obs.VerdictDenied
	}
	b.recordBatchEvent(payload, len(payload.Ops), verdict, resp.Result.Reason, t0)
	b.maybeCheckpoint()
	return resp
}

// AllocateTunnelFlow is the source-side API: allocate a sub-flow
// locally and at the destination over the direct channel. Intermediate
// domains are not contacted.
func (b *BB) AllocateTunnelFlow(tunnelRARID, subFlowID string, bw units.Bandwidth, user identity.DN) error {
	ep, ok := b.tunnels.reg.Get(tunnelRARID)
	if !ok {
		return fmt.Errorf("bb %s: no tunnel %s", b.cfg.Domain, tunnelRARID)
	}
	if err := b.localAlloc(ep, subFlowID, bw); err != nil {
		b.m.tunnelDenied.Inc()
		return err
	}
	resp, _, err := b.callPeer(ep.PeerBB, &signalling.Message{
		Type: signalling.MsgTunnelAlloc,
		TunnelAlloc: &signalling.TunnelAllocPayload{
			TunnelRARID: tunnelRARID,
			SubFlowID:   subFlowID,
			User:        user,
			Bandwidth:   int64(bw),
		},
	})
	if err != nil {
		// Roll back the local half. Unless the frame never left, the
		// destination may have allocated: the saga layer releases it
		// there, retried and journaled like a reserve's cancel.
		b.localRelease(ep, subFlowID)
		if !errors.Is(err, errCircuitOpen) {
			b.cancelDownstream(cancelComp{Peer: ep.PeerBB, Key: tunnelRARID, SubFlow: subFlowID})
		}
		return fmt.Errorf("bb %s: tunnel alloc at destination: %w", b.cfg.Domain, err)
	}
	if resp.Result == nil || !resp.Result.Granted {
		b.localRelease(ep, subFlowID)
		reason := "no result"
		if resp.Result != nil {
			reason = resp.Result.Reason
		}
		return fmt.Errorf("bb %s: destination refused sub-flow: %s", b.cfg.Domain, reason)
	}
	b.m.tunnelAllocs.Inc()
	return nil
}

// ReleaseTunnelFlow frees a sub-flow at both ends.
func (b *BB) ReleaseTunnelFlow(tunnelRARID, subFlowID string) error {
	ep, ok := b.tunnels.reg.Get(tunnelRARID)
	if !ok {
		return fmt.Errorf("bb %s: no tunnel %s", b.cfg.Domain, tunnelRARID)
	}
	_, gen, err := ep.Release(subFlowID)
	if err != nil {
		return err
	}
	b.journalTunnelRelease(ep, subFlowID, gen)
	b.m.tunnelReleases.Inc()
	resp, _, err := b.callPeer(ep.PeerBB, &signalling.Message{
		Type:          signalling.MsgTunnelRelease,
		TunnelRelease: &signalling.TunnelReleasePayload{TunnelRARID: tunnelRARID, SubFlowID: subFlowID},
	})
	if err != nil {
		return err
	}
	if resp.Result == nil || !resp.Result.Granted {
		return fmt.Errorf("bb %s: destination refused release", b.cfg.Domain)
	}
	return nil
}

// localAlloc / localRelease mutate the local endpoint half of a
// two-ended sub-flow operation and journal the mutation; rollbacks go
// through them too, so a recovered broker always agrees with the live
// one.
func (b *BB) localAlloc(ep *tunnel.Endpoint, subID string, bw units.Bandwidth) error {
	gen, err := ep.Allocate(subID, bw)
	if err != nil {
		return err
	}
	b.journalTunnelAlloc(ep, subID, bw, gen)
	return nil
}

func (b *BB) localRelease(ep *tunnel.Endpoint, subID string) {
	if _, gen, err := ep.Release(subID); err == nil {
		b.journalTunnelRelease(ep, subID, gen)
	}
}

// TunnelBatch is the batched source-side API: apply many alloc/release
// ops locally, ship the locally-successful subset to the destination in
// one MsgTunnelBatch, and reconcile — an op succeeds only when both
// ends applied it; local halves of remotely-denied ops are rolled back
// (a denied alloc is released, a denied release is re-admitted with its
// original bandwidth). A transport failure rolls back every local op;
// the destination's replay cache makes the retransmitted batch id safe.
// The returned results are in op order.
func (b *BB) TunnelBatch(tunnelRARID string, ops []signalling.TunnelOp, user identity.DN) ([]signalling.TunnelOpResult, error) {
	t0 := time.Now()
	ep, ok := b.tunnels.reg.Get(tunnelRARID)
	if !ok {
		return nil, fmt.Errorf("bb %s: no tunnel %s", b.cfg.Domain, tunnelRARID)
	}
	payload := &signalling.TunnelBatchPayload{
		TunnelRARID: tunnelRARID,
		BatchID:     signalling.NewBatchID(),
		User:        user,
		Ops:         ops,
	}
	if err := payload.Validate(); err != nil {
		return nil, err
	}
	// Source-side batches enter the network here, so this is where the
	// flight-recorder dice roll happens; the decision and trace id ride
	// the payload to the far endpoint.
	if b.sampler.Sample() {
		payload.Sampled = true
		payload.TraceID = obs.NewTraceID()
	}
	results := make([]signalling.TunnelOpResult, len(ops))
	// Local halves first; only locally-admitted ops travel to the peer.
	remote := make([]signalling.TunnelOp, 0, len(ops))
	remoteIdx := make([]int, 0, len(ops))
	released := make(map[string]units.Bandwidth, len(ops)) // undo data for remote-denied releases
	for i, op := range ops {
		results[i].SubFlowID = op.SubFlowID
		switch op.Action {
		case signalling.OpAlloc:
			if err := b.localAlloc(ep, op.SubFlowID, units.Bandwidth(op.Bandwidth)); err != nil {
				results[i].Reason = err.Error()
				b.m.tunnelDenied.Inc()
				continue
			}
		case signalling.OpRelease:
			bw, gen, err := ep.Release(op.SubFlowID)
			if err != nil {
				results[i].Reason = err.Error()
				b.m.tunnelDenied.Inc()
				continue
			}
			b.journalTunnelRelease(ep, op.SubFlowID, gen)
			released[op.SubFlowID] = bw
		}
		remote = append(remote, op)
		remoteIdx = append(remoteIdx, i)
	}
	if len(remote) == 0 {
		// Every op failed locally: nothing travelled, the batch settles
		// here as a denial.
		b.recordBatchEvent(payload, len(ops), obs.VerdictDenied, firstReason(results), t0)
		return results, nil
	}
	payload.Ops = remote
	resp, _, err := b.callPeer(ep.PeerBB, &signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: payload})
	if err != nil || resp.Result == nil {
		// Unknown destination state: undo every local half. The batch id
		// in the destination's replay cache keeps any successful
		// application there answerable; a fresh batch must use a fresh id.
		for _, i := range remoteIdx {
			b.undoLocalOp(ep, ops[i], released)
		}
		if err == nil {
			err = fmt.Errorf("destination sent no result")
		}
		b.recordBatchEvent(payload, len(ops), obs.VerdictError, err.Error(), t0)
		return nil, fmt.Errorf("bb %s: tunnel batch at destination: %w", b.cfg.Domain, err)
	}
	for k, i := range remoteIdx {
		var rr *signalling.TunnelOpResult
		if k < len(resp.Result.BatchResults) {
			rr = &resp.Result.BatchResults[k]
		}
		if resp.Result.Granted || (rr != nil && rr.Granted) {
			results[i].Granted = true
			if ops[i].Action == signalling.OpAlloc {
				b.m.tunnelAllocs.Inc()
			} else {
				b.m.tunnelReleases.Inc()
			}
			continue
		}
		// Destination refused (or the whole batch was refused before any
		// op ran, leaving no per-op results): roll the local half back.
		results[i].Reason = resp.Result.Reason
		if rr != nil && rr.Reason != "" {
			results[i].Reason = rr.Reason
		}
		b.m.tunnelDenied.Inc()
		b.undoLocalOp(ep, ops[i], released)
	}
	b.m.tunnelBatches.Inc()
	if b.cfg.Recorder != nil {
		verdict := obs.VerdictGranted
		for _, r := range results {
			if !r.Granted {
				verdict = obs.VerdictDenied
				break
			}
		}
		b.recordBatchEvent(payload, len(ops), verdict, firstReason(results), t0)
	}
	return results, nil
}

// firstReason surfaces the first per-op denial reason of a batch.
func firstReason(results []signalling.TunnelOpResult) string {
	for _, r := range results {
		if !r.Granted && r.Reason != "" {
			return r.Reason
		}
	}
	return ""
}

// undoLocalOp reverses the local half of a batch op whose remote half
// failed.
func (b *BB) undoLocalOp(ep *tunnel.Endpoint, op signalling.TunnelOp, released map[string]units.Bandwidth) {
	switch op.Action {
	case signalling.OpAlloc:
		b.localRelease(ep, op.SubFlowID)
	case signalling.OpRelease:
		if bw, ok := released[op.SubFlowID]; ok {
			_ = b.localAlloc(ep, op.SubFlowID, bw)
		}
	}
}

// Tunnel exposes a tunnel endpoint for inspection.
func (b *BB) Tunnel(rarID string) (*tunnel.Endpoint, bool) { return b.tunnels.reg.Get(rarID) }
