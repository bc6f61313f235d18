package main

import "time"

// deriveLayers turns the traced run's spans and counts into the per-layer
// metrics. Self times subtract, per request id, the child span from its
// parent: the client's round trip minus the handler (net), the handler
// minus the store or sharded call it makes (cluster), the in-memory store
// minus the GK update (store), the persistent store minus the in-memory one
// (WAL). Counts of keys and promotions come from the untraced run's
// /v1/store/stats.
func deriveLayers(tr *tracer, samples []sample, lr *layerReplay, er *encodingReplay, res *runResult) map[string]metric {
	handler := tr.byID("handler")
	for id, d := range tr.byID("agg.handler") {
		handler[id] = d
	}
	direct := tr.byID("direct.read")
	memUpd := tr.byID("store.update")
	persistUpd := tr.byID("store.update.persistent")
	shUpd := tr.byID("sharded.update")
	gkUpd := tr.byID("gk.update")

	var netSelf, updSelf, readSelf []float64
	var updSelfSum, memSum, memSelfSum, walSum, shSum, gkSum time.Duration
	var items, bodyBytes, writes int
	for _, s := range samples {
		h, ok := handler[s.id]
		if !ok || !s.ok {
			continue
		}
		netSelf = append(netSelf, us(s.end-s.start-h))
		switch s.rq.kind {
		case kindWrite:
			n := len(s.rq.body.values)
			child := persistUpd[s.id]
			if s.rq.key == "" {
				child = shUpd[s.id]
			}
			updSelf = append(updSelf, us(h-child))
			updSelfSum += h - child
			items += n
			bodyBytes += len(s.rq.body.json)
			writes++
			memSum += memUpd[s.id]
			memSelfSum += memUpd[s.id] - gkUpd[s.id]
			walSum += persistUpd[s.id] - memUpd[s.id]
			shSum += shUpd[s.id]
			gkSum += gkUpd[s.id]
		case kindRead:
			readSelf = append(readSelf, us(h-direct[s.id]))
		}
	}
	perItem := func(d time.Duration) float64 { return float64(d) / float64(max(items, 1)) }

	var pullIDs []int
	for _, s := range samples {
		if s.rq.kind == kindPull {
			pullIDs = append(pullIDs, s.id)
		}
	}
	var rebuild []float64
	fetchByRound := map[int]time.Duration{}
	for _, sp := range tr.spans {
		if sp.Name == "agg.fetch" {
			fetchByRound[sp.ID] = max(fetchByRound[sp.ID], sp.dur())
		}
	}
	for _, id := range pullIDs {
		if h, ok := handler[id]; ok {
			rebuild = append(rebuild, ms(h-fetchByRound[id]))
		}
	}

	ckpt := tr.durationsMS("store.checkpoint")
	var ckptBytes int64
	for _, b := range lr.ckptBytes {
		ckptBytes += b
	}
	var openMS float64
	for _, d := range tr.durationsMS("store.open") {
		openMS += d
	}
	keys := res.storeStat["keys"]
	vals := map[string]float64{
		"net.self_p50_us":                 percentile(netSelf, 50),
		"net.self_p99_us":                 percentile(netSelf, 99),
		"cluster.update.self_ns_per_item": perItem(updSelfSum),
		"cluster.update.self_p50_us":      percentile(updSelf, 50),
		"cluster.read.self_p50_us":        percentile(readSelf, 50),
		"cluster.body_bytes_per_item":     float64(bodyBytes) / float64(max(items, 1)),
		"cluster.snapshot.p50_ms":         median(tr.durationsMS("leaf.snapshot")),
		"store.update.ns_per_item":        perItem(memSum),
		"store.update.self_ns_per_item":   perItem(memSelfSum),
		"store.update.p50_us":             1000 * median(tr.durationsMS("store.update")),
		"store.read.p50_us":               1000 * median(tr.durationsMS("store.read")),
		"store.keys":                      keys,
		"store.buffered_keys":             res.storeStat["buffered_keys"],
		"store.promotions":                res.storeStat["promotions"],
		"store.bytes_per_key":             res.storeStat["retained_bytes"] / max(keys, 1),
		"store.wal.us_per_record":         us(walSum) / float64(max(writes, 1)),
		"store.wal.bytes_per_item":        float64(lr.walBytes) / float64(max(lr.items, 1)),
		"store.checkpoint.p50_ms":         median(ckpt),
		"store.checkpoint.max_ms":         percentile(ckpt, 100),
		"store.checkpoint.bytes":          float64(ckptBytes) / float64(max(len(lr.ckptBytes), 1)),
		"store.open.ms":                   openMS / float64(max(len(lr.ckptBytes), 1)),
		"store.open.us_per_key":           1000 * openMS / float64(max(lr.openKeys, 1)),
		"sharded.update.ns_per_item":      perItem(shSum),
		"sharded.refresh.p50_ms":          median(tr.durationsMS("sharded.refresh")),
		"sharded.refreshes":               float64(lr.refreshes),
		"gk.update.ns_per_item":           perItem(gkSum),
		"gk.query.p50_ns":                 1e6 * median(tr.durationsMS("gk.query")),
		"encoding.encode_store.ms":        median(tr.durationsMS("encoding.encode_store")),
		"encoding.encode_delta.ms":        median(tr.durationsMS("encoding.encode_delta")),
		"encoding.apply_delta.ms":         median(tr.durationsMS("encoding.apply_delta")),
		"encoding.decode.us_per_key":      1000 * sum(tr.durationsMS("encoding.decode")) / float64(max(er.decodeKeys, 1)),
		"encoding.merge.us_per_key":       1000 * sum(tr.durationsMS("encoding.merge")) / float64(max(er.mergeKeys, 1)),
		"encoding.delta_ratio":            float64(er.deltaMoved) / float64(max(er.deltaFull, 1)),
		"cluster.pull.fetch_p50_ms":       median(er.fetchMS),
		"cluster.pull.rebuild_p50_ms":     median(rebuild),
		"cluster.pull.delta_hit_ratio":    float64(er.deltaFetches) / float64(max(er.fetches, 1)),
		"cluster.pull.changed_key_ratio":  float64(er.changedKeys) / float64(max(er.decodedKeys, 1)),
		"loadgen.late_p99_ms":             res.loadgen["late_p99_ms"],
		"loadgen.cpu_s":                   res.loadgen["cpu_s"],
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
