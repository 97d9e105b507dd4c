package main

// layerMetrics turns the traced rounds' spans into the per-layer metrics
// and reconciles them against the plain rounds' medians: one closed-loop
// client means nothing queues, so the layers' self times must add up to
// the end-to-end time.
func (w *world) layerMetrics(m *meter, tracedRounds int, out map[string]metric) {
	spans := w.rec.spans
	self := selfTimes(spans)
	var (
		build, process, lastHop, drop, deliver, install hist
		reqB, respB                                     hist
		// Control-plane hops by role and by journey (0 setup, 1 renewal).
		srcSelf, transitSelf, dstSelf [2]hist
		calls                         int64
		tickNs, expireNs              int64
		batchSelfNs, batchTopNs       int64
	)
	last := uint8(len(w.path) - 1)
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		switch s.name {
		case spBuild:
			build.record(d)
		case spProcess:
			process.record(d)
			if s.last {
				lastHop.record(d)
			}
		case spDrop:
			drop.record(d)
		case spDeliver:
			deliver.record(d)
		case spInstall:
			install.record(d)
		case spRequest:
			if spans[s.parent].name == spSetup {
				srcSelf[0].record(self[i])
			} else {
				srcSelf[1].record(self[i])
			}
		case spCall:
			calls++
			switch s.tag {
			case tagEESetup, tagEERenew:
				j := int(s.tag - tagEESetup)
				if s.hop == last {
					dstSelf[j].record(self[i])
				} else {
					transitSelf[j].record(self[i])
				}
				if s.tag == tagEESetup {
					reqB.record(int64(s.reqB))
					respB.record(int64(s.respB))
				}
			case tagEEBatchRenew:
				batchSelfNs += self[i]
				if spans[s.parent].name == spWave {
					batchTopNs += d
				}
			}
		case spCServTick:
			tickNs += d
		case spGwExpire:
			expireNs += d
		}
	}

	us := func(h *hist) float64 { return h.quantile(0.5) / 1e3 }
	out["gateway.build_us"] = metric{us(&build), "us"}
	out["gateway.build_calls"] = metric{float64(build.n), "count"}
	out["gateway.build_rejects"] = metric{float64(w.buildRejects), "count"}
	out["router.process_us"] = metric{us(&process), "us"}
	out["router.process_calls"] = metric{float64(process.n), "count"}
	out["router.last_hop_us"] = metric{us(&lastHop), "us"}
	out["router.drop_us"] = metric{us(&drop), "us"}
	out["packet.deliver_us"] = metric{us(&deliver), "us"}
	out["gateway.install_us"] = metric{us(&install), "us"}
	for j, journey := range []string{"", "renew_"} {
		out["cserv."+journey+"src_self_us"] = metric{us(&srcSelf[j]), "us"}
		out["cserv."+journey+"transit_self_us"] = metric{us(&transitSelf[j]), "us"}
		out["cserv."+journey+"dst_self_us"] = metric{us(&dstSelf[j]), "us"}
	}
	out["cserv.hop_calls"] = metric{float64(calls), "count"}
	out["cserv.req_bytes"] = metric{reqB.quantile(0.5), "B"}
	out["cserv.resp_bytes"] = metric{respB.quantile(0.5), "B"}
	out["cserv.tick_ms"] = metric{float64(tickNs) / float64(tracedRounds) / 1e6, "ms"}
	out["gateway.expire_ms"] = metric{float64(expireNs) / float64(tracedRounds) / 1e6, "ms"}

	// Batched waves: what a hop costs per item, and what the fleet spends
	// per item outside the transport and the gateway.
	var waveNs, installNs, items int64
	var waveMs []float64
	for _, wv := range m.tracedWaves {
		waveNs += wv.ns
		installNs += wv.installNs
		items += wv.items
		waveMs = append(waveMs, float64(wv.ns)/1e6)
	}
	perItem := func(ns int64, per int64) float64 {
		if items == 0 {
			return 0
		}
		return float64(ns) / float64(items*per) / 1e3
	}
	out["cserv.fleet_tick_ms"] = metric{median(waveMs), "ms"}
	out["cserv.batch_hop_us_per_item"] = metric{perItem(batchSelfNs, int64(last)), "us"}
	out["cserv.fleet_glue_us_per_item"] = metric{perItem(waveNs-batchTopNs-installNs, 1), "us"}

	// Reconciliation, against the pooled medians of this run's plain rounds
	// (published as harness.pkt_p50_us and harness.setup_p50_us). Packet
	// journey: build + one validation per AS (the last one delivers) +
	// decode and copy; what is left of the plain median is core's glue
	// (buffer allocation, interface lookup, inbox).
	pktPlain := m.pkt.all.quantile(0.5) / 1e3
	pktLayers := us(&build) + float64(last)*us(&process) + us(&lastHop) + us(&deliver)
	out["core.send_glue_us"] = metric{pktPlain - pktLayers, "us"}
	out["harness.unattributed_pct"] = metric{100 * (pktPlain - pktLayers) / pktPlain, "%"}
	out["harness.trace_overhead_pct"] = metric{100 * (us(&m.tracedPkt) - pktPlain) / pktPlain, "%"}
	// Request journey: source + every transit hop + destination + install.
	reqPlain := m.setup.all.quantile(0.5) / 1e3
	reqLayers := us(&srcSelf[0]) + float64(last-1)*us(&transitSelf[0]) + us(&dstSelf[0]) + us(&install)
	out["harness.unattributed_req_pct"] = metric{100 * (reqPlain - reqLayers) / reqPlain, "%"}
	out["harness.trace_overhead_req_pct"] = metric{100 * (us(&m.tracedSetup) - reqPlain) / reqPlain, "%"}
}

// counterMetrics reads the program's own counters after the run. They must
// repeat exactly for a fixed seed and round count.
func (w *world) counterMetrics(out map[string]metric) {
	var dedup, rejects, throttled, stale uint64
	for _, ia := range w.net.Topo.SortedIAs() {
		svc := w.net.Node(ia).CServ
		snap := svc.Metrics().Snapshot()
		dedup += snap.DedupHits
		rejects += snap.AdmReject
		throttled += snap.RenewThrottle
		stale += svc.CPlane().Counts().Stale
	}
	out["cserv.dedup_hits"] = metric{float64(dedup), "count"}
	out["cserv.rejects"] = metric{float64(rejects), "count"}
	out["cserv.throttled"] = metric{float64(throttled), "count"}
	out["cserv.stale"] = metric{float64(stale), "count"}
	out["cserv.refused_expected"] = metric{float64(w.counts.RefusedWanted), "count"}
	drops := w.routerDrops()
	for kind, reason := range hostileReasons {
		out["router.drops_"+hostileNames[kind]] = metric{float64(drops[reason.Error()]), "count"}
	}
}
