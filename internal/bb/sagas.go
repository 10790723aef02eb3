package bb

import (
	"fmt"
	"slices"

	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/saga"
	"e2eqos/internal/signalling"
)

// Saga integration: the broker's two compensation kinds, wired into
// the reusable coordinator in internal/saga. "cancel" withdraws state
// this broker created at a peer — a forwarded route key, or a tunnel
// sub-flow; "release" undoes a local admission. Both are journal-backed
// through the broker's WAL, so a crashed broker resumes its rollback
// debt on recovery.

// cancelComp is the argument of a "cancel" compensation: withdraw the
// route key at the peer or, with SubFlow set, release that sub-flow of
// the tunnel Key names.
type cancelComp struct {
	Peer    identity.DN
	Key     string
	SubFlow string
}

// releaseComp is the argument of a "release" compensation: cancel the
// local admission held under Handle.
type releaseComp struct {
	Handle string
	Key    string
}

// cancelAttempts bounds each compensation incarnation's retries. It is
// deliberately independent of (and larger than) Config.MaxRetries: a
// stranded reservation costs real bandwidth until its window expires,
// whereas a redundant cancel is refused harmlessly — and an exhausted
// budget is re-armed on restart because the debt is journaled.
const cancelAttempts = 5

// newSagaCoordinator builds the broker's coordinator with both
// executors registered. The journal attaches later (after recovery).
func (b *BB) newSagaCoordinator() *saga.Coordinator {
	c := saga.New(saga.Options{
		Backoff:     b.cfg.RetryBackoff,
		MaxAttempts: cancelAttempts,
		OnAborted:   func(string) { b.m.sagasAborted.Inc() },
		OnCompensated: func(id string, step saga.Step) {
			b.m.sagaCompensations.Inc()
			b.log.Info("saga: compensation settled", "saga", id, "kind", step.Kind)
		},
		OnAbandoned: func(id string, step saga.Step) { b.compAbandoned(id, step) },
	})
	c.RegisterExec("cancel", b.execCancelComp)
	c.RegisterExec("release", b.execReleaseComp)
	return c
}

// execCancelComp sends one cancel (or sub-flow release) toward the
// peer. Transport failures schedule a retry; any protocol-level
// response — including a refusal for a key the peer never saw — counts
// as settled.
func (b *BB) execCancelComp(data []byte) error {
	var c cancelComp
	if err := c.DecodeBinary(data); err != nil {
		return nil // malformed debt is unpayable; don't retry forever
	}
	client, err := b.clientFor(c.Peer)
	if err != nil {
		return err
	}
	msg := &signalling.Message{Type: signalling.MsgCancel, Cancel: &signalling.CancelPayload{RARID: c.Key}}
	if c.SubFlow != "" {
		msg = &signalling.Message{
			Type:          signalling.MsgTunnelRelease,
			TunnelRelease: &signalling.TunnelReleasePayload{TunnelRARID: c.Key, SubFlowID: c.SubFlow},
		}
	}
	_, err = client.CallTimeout(msg, b.cfg.CallTimeout)
	if err != nil {
		b.dropClient(c.Peer, client)
		return err
	}
	b.log.Info("rollback cancel settled downstream",
		obs.AttrRAR, c.Key, obs.AttrPeer, string(c.Peer))
	return nil
}

// execReleaseComp cancels the local admission. An unknown handle means
// the admission is already gone (cancelled through another path, or
// never replayed) — settled either way.
func (b *BB) execReleaseComp(data []byte) error {
	var rc releaseComp
	if err := rc.DecodeBinary(data); err != nil {
		return nil
	}
	if err := b.table.Cancel(rc.Handle); err == nil {
		b.m.rollbacks.Inc()
		b.log.Info("saga: released local admission", obs.AttrRAR, rc.Key, "handle", rc.Handle)
	}
	b.syncDataPlane()
	return nil
}

// compAbandoned surfaces a compensation this incarnation gave up on:
// bandwidth below the failed hop may stay stranded until the window
// expires. Counted, logged at error, and force-recorded — the journal
// still owes the debt, so a restarted broker retries it.
func (b *BB) compAbandoned(id string, step saga.Step) {
	b.m.rollbacksAbandoned.Inc()
	var key, peer string
	switch step.Kind {
	case "cancel":
		var c cancelComp
		_ = c.DecodeBinary(step.Data)
		key, peer = c.Key, string(c.Peer)
	case "release":
		var rc releaseComp
		_ = rc.DecodeBinary(step.Data)
		key = rc.Key
	}
	b.log.Error("rollback cancel abandoned, downstream state unknown",
		obs.AttrRAR, key, obs.AttrPeer, peer, "saga", id, "attempts", cancelAttempts)
	if b.cfg.Recorder != nil {
		b.m.eventsForced.Inc()
		b.appendEvent(&obs.Event{
			Kind:    obs.EventRollbackAbandoned,
			RARID:   key,
			Verdict: obs.VerdictError,
			Reason:  fmt.Sprintf("compensation %s to %s abandoned after %d attempts", step.Kind, peer, cancelAttempts),
		})
	}
}

// mintSagaID builds a unique saga id from the broker's epoch counter
// (epochs survive recovery, so restarted brokers never collide with
// journaled sagas).
func (b *BB) mintSagaID(prefix string) string {
	b.mu.Lock()
	b.rarEpoch++
	e := b.rarEpoch
	b.mu.Unlock()
	return fmt.Sprintf("%s#%d", prefix, e)
}

// cancelDownstream hands a withdrawal at a peer to the saga layer: a
// one-step saga whose "cancel" compensation is retried with backoff
// and, being journaled, survives a crash.
func (b *BB) cancelDownstream(c cancelComp) {
	id := b.mintSagaID("cancel:" + c.Key)
	b.m.sagasStarted.Inc()
	if err := b.sagas.RunOne(id, "cancel", c.AppendBinary(nil)); err != nil {
		b.log.Error("saga: rollback cancel not scheduled", obs.AttrRAR, c.Key, "err", err)
	}
}

// hopSaga is one forwarding hop's rollback debt, opened right after the
// hop admits and before its first send: step 1 releases the admission,
// and every child frame adds a cancel before it leaves. The walker
// settles what the hop below already undid (a denial) or what never
// reached it (an open circuit), so Abort pays only what is still owed.
type hopSaga struct {
	b     *BB
	id    string
	rel   []byte // the release step's argument
	steps int    // steps registered; the coordinator numbers them from 1
	lost  []int  // children whose frame left but whose outcome is unknown
}

// openHopSaga journals the saga and its release step. The saga is
// named after the hop's route entry, whose epoch is already unique, so
// opening one consumes no epoch and replicas stay identical.
func (b *BB) openHopSaga(key, handle string) *hopSaga {
	var epoch int64
	b.mu.Lock()
	if st := b.routes[key]; st != nil {
		epoch = st.epoch
	}
	b.mu.Unlock()
	s := &hopSaga{
		b:     b,
		id:    fmt.Sprintf("fwd:%s#%d", key, epoch),
		rel:   releaseComp{Handle: handle, Key: key}.AppendBinary(nil),
		steps: 1,
	}
	for b.sagas.Begin(s.id) != nil {
		// Only a saga resumed from the journal can hold the id (its
		// route entry was in flight, so the epoch was never journaled).
		s.id = b.mintSagaID("fwd:" + key)
	}
	b.m.sagasStarted.Inc()
	_ = b.sagas.Did(s.id, "release", s.rel)
	return s
}

// owe registers the cancel for a child about to be sent to peer and
// returns its step number.
func (s *hopSaga) owe(peer identity.DN, childKey string) int {
	_ = s.b.sagas.Did(s.id, "cancel", cancelComp{Peer: peer, Key: childKey}.AppendBinary(nil))
	s.steps++
	return s.steps
}

// settle drops a step from the debt: the child was refused below (that
// hop rolled itself back) or never sent.
func (s *hopSaga) settle(step int) { s.b.sagas.Settle(s.id, step) }

// lose marks a child whose frame left but whose outcome is unknown: its
// cancel stays owed whatever the walk decides.
func (s *hopSaga) lose(step int) { s.lost = append(s.lost, step) }

// commit keeps the admission and every granted child. With no child
// lost that is a plain commit; otherwise every other step is settled
// and the abort pays the lost children's cancels.
func (s *hopSaga) commit() {
	if len(s.lost) == 0 {
		s.b.sagas.Commit(s.id)
		s.b.m.sagasCommitted.Inc()
		return
	}
	for step := 1; step <= s.steps; step++ {
		if !slices.Contains(s.lost, step) {
			s.settle(step)
		}
	}
	s.b.sagas.Abort(s.id)
}

// fail undoes the hop: the release runs inline — the admission must be
// gone before the hop answers upstream — and the abort pays the cancels
// still owed, for granted and lost children alike, in the background.
func (s *hopSaga) fail() {
	_ = s.b.execReleaseComp(s.rel)
	s.b.m.sagaCompensations.Inc()
	s.settle(1)
	s.b.sagas.Abort(s.id)
}
