package main

import (
	"time"

	"e2eqos/internal/obs"
)

// runTraced makes the per-layer run: an untraced pass supplies the
// counter deltas, table and tunnel state and the baseline p50; a traced
// pass over a fresh world supplies the per-hop spans. Both passes run
// every op of the run and both are checked.
func runTraced(cfg config, in *inputs, base time.Time, res *result) error {
	v := make(map[string]float64, len(perLayer))

	plain, err := setup(cfg.wl, in, base, cfg.workdir, false)
	if err != nil {
		return err
	}
	pp := runPhase(plain, cfg.ops)
	res.account(plain, pp)
	res.violations = append(res.violations, plain.checkState(cfg.ops)...)
	counterMetrics(plain, pp, v)
	plain.close()

	traced, err := setup(cfg.wl, in, base, cfg.workdir, true)
	if err != nil {
		return err
	}
	defer traced.close()
	tp := runPhase(traced, cfg.ops)
	spanMetrics(traced, tp, v)
	res.account(traced, tp)
	res.violations = append(res.violations, traced.checkState(cfg.ops)...)

	plainP50 := percentile(pp.latencies(), 0.5)
	v["obs.trace_overhead_pct"] = 100 * (float64(percentile(tp.latencies(), 0.5))/float64(plainP50) - 1)
	res.Correct = len(res.violations) == 0
	res.set(perLayer, v)
	return nil
}

// counterMetrics reads the layer counters of an untraced pass: every
// value is a mean per op except the table, tunnel, Available and
// commit-timeout readings, which are end-of-run states or totals.
func counterMetrics(e *env, p *phase, v map[string]float64) {
	n := float64(len(p.outcomes))
	b, a := &p.before, &p.after
	v["fail_frac"] = float64(p.failed()) / n
	v["bb.retries"] = (a.retries - b.retries) / n
	v["bb.repl_commit_timeouts"] = a.commitTimeouts - b.commitTimeouts
	v["transport.frames"] = float64(a.sendFrames-b.sendFrames) / n
	v["transport.kb"] = float64(a.sendBytes-b.sendBytes) / 1024 / n
	v["transport.net_frames"] = float64(a.netFrames-b.netFrames) / n
	v["transport.net_kb"] = float64(a.netBytes-b.netBytes) / 1024 / n
	v["runtime.allocs"] = float64(a.mem.Mallocs-b.mem.Mallocs) / n
	v["runtime.alloc_kb"] = float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / 1024 / n
	v["journal.appends"] = float64(a.journalAppends-b.journalAppends) / n
	v["journal.fsyncs"] = float64(a.journalFsyncs-b.journalFsyncs) / n

	hw := e.horizonWindow()
	var avail []float64
	var tableLen float64
	for _, name := range e.w.Domains {
		table := e.w.BBs[name].Table()
		tableLen += float64(table.Len())
		var calls []float64
		for i := 0; i < 11; i++ {
			t0 := time.Now()
			table.Available(hw)
			calls = append(calls, float64(time.Since(t0))/float64(time.Microsecond))
		}
		avail = append(avail, median(calls))
	}
	v["resv.available_us"] = median(avail)
	v["resv.table_len"] = tableLen / float64(len(e.w.Domains))
	if e.wl.subflow {
		if ep, ok := e.w.BBs[e.w.SourceDomain()].Tunnel(e.tunnelRAR); ok {
			v["tunnel.live_subflows"] = float64(ep.Len())
		}
	}
}

// spanMetrics splits a traced pass's hop time by the spans the brokers
// return: per op, each layer's time summed over hops. A tunnel batch
// carries no spans, so for subflow64 the brokers' own batch-time
// histogram gives their self time and the layers inside it read 0.
func spanMetrics(e *env, p *phase, v map[string]float64) {
	var verify, policy, admit, self, client, ops float64
	if e.wl.subflow {
		ops = float64(len(p.outcomes))
		self = (p.after.tunnelBatchSecSum - p.before.tunnelBatchSecSum) * 1e9
		for _, o := range p.outcomes {
			client += float64(o.lat)
		}
		client -= self
	}
	for _, o := range p.outcomes {
		if !o.ok || o.res == nil || len(o.res.Trace) == 0 {
			continue
		}
		ops++
		var ingress obs.Span
		for _, s := range o.res.Trace {
			verify += float64(s.VerifyNS)
			policy += float64(s.PolicyNS)
			admit += float64(s.AdmitNS)
			self += float64(s.TotalNS - s.DownstreamNS)
			if s.Domain == e.w.SourceDomain() {
				ingress = s
			}
		}
		client += float64(o.lat) - float64(ingress.TotalNS)
	}
	if ops == 0 {
		return
	}
	perOpMS := func(ns float64) float64 { return ns / ops / 1e6 }
	v["core.verify_ms"] = perOpMS(verify)
	v["policysrv.decide_ms"] = perOpMS(policy)
	v["resv.admit_ms"] = perOpMS(admit)
	v["bb.self_ms"] = perOpMS(self)
	v["bb.other_ms"] = perOpMS(self - verify - policy - admit)
	v["signalling.client_ms"] = perOpMS(client)
}
