package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"e2eqos/internal/units"
)

// peak is the highest total bandwidth the bookings commit at any
// instant of w, computed independently of the program: a sweep over
// half-open windows that applies releases before acquisitions at the
// same instant.
func peak(bookings []booking, base time.Time, w units.Window) units.Bandwidth {
	type edge struct {
		at    time.Time
		delta units.Bandwidth
	}
	var edges []edge
	for _, b := range bookings {
		iv, ok := b.window(base).Intersect(w)
		if !ok {
			continue
		}
		edges = append(edges, edge{iv.Start, b.BW}, edge{iv.End, -b.BW})
	}
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta
	})
	var cur, max units.Bandwidth
	for _, e := range edges {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

// verifyGrants checks every granted op's signed approvals: one per
// domain on the path, each valid under its broker's key.
func (e *env) verifyGrants(p *phase) []string {
	var bad []string
	for i, o := range p.outcomes {
		if !o.ok || o.res == nil {
			continue
		}
		if len(o.res.Approvals) != len(e.w.Domains) {
			bad = append(bad, fmt.Sprintf("op %d: %d approvals on a %d-domain path", i, len(o.res.Approvals), len(e.w.Domains)))
			continue
		}
		if err := e.w.VerifyApprovals(o.res); err != nil {
			bad = append(bad, fmt.Sprintf("op %d: %v", i, err))
		}
	}
	return bad
}

// checkState is the end-of-run gate: no stranded bandwidth, tunnel
// endpoints matching the benchmark's own live-set ledger, replicas
// converged and every journal healthy.
func (e *env) checkState(ops int) []string {
	var bad []string
	hw := e.horizonWindow()
	for d, name := range e.w.Domains {
		var committed []booking
		if d < len(e.in.Background) {
			committed = append(committed, e.in.Background[d]...)
		}
		if e.wl.subflow {
			committed = append(committed, e.tunnel)
		}
		want := capacity - peak(committed, e.base, hw)
		if got := e.w.BBs[name].Table().Available(hw); got != want {
			bad = append(bad, fmt.Sprintf("%s: available %v over the workload window, want %v", name, got, want))
		}
	}
	if e.wl.subflow {
		// Live set: batches ops .. ops+liveBatches-1.
		var used units.Bandwidth
		for _, sizes := range e.in.Batches[ops : ops+liveBatches] {
			for _, bw := range sizes {
				used += bw
			}
		}
		for _, name := range []string{e.w.SourceDomain(), e.w.DestDomain()} {
			ep, ok := e.w.BBs[name].Tunnel(e.tunnelRAR)
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: tunnel endpoint missing", name))
				continue
			}
			if ep.Len() != liveBatches*batchSize || ep.Used() != used {
				bad = append(bad, fmt.Sprintf("%s: tunnel holds %d sub-flows using %v, ledger has %d using %v",
					name, ep.Len(), ep.Used(), liveBatches*batchSize, used))
			}
		}
	}
	if e.wl.replicas > 1 {
		bad = append(bad, e.checkReplicas()...)
	}
	for _, b := range e.brokers() {
		if err := b.Journal().Err(); err != nil {
			bad = append(bad, fmt.Sprintf("%s: journal: %v", b.Domain(), err))
		}
	}
	return bad
}

// checkReplicas waits up to five seconds for every follower to reach
// its leader's state digest: the commit gate only waits for a majority.
func (e *env) checkReplicas() []string {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var bad []string
		for _, name := range e.w.Domains {
			leader := e.w.LeaderOf(name)
			want, err := e.w.ReplicaBB(name, leader).StateDigest()
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: leader digest: %v", name, err))
				continue
			}
			for i := 0; i < e.wl.replicas; i++ {
				if i == leader {
					continue
				}
				got, err := e.w.ReplicaBB(name, i).StateDigest()
				if err != nil || !bytes.Equal(got, want) {
					bad = append(bad, fmt.Sprintf("%s: replica %d digest differs from leader %d (%v)", name, i, leader, err))
				}
			}
		}
		if len(bad) == 0 || time.Now().After(deadline) {
			return bad
		}
		time.Sleep(50 * time.Millisecond)
	}
}
