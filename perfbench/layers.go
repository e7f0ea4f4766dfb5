package main

import (
	"fmt"
	"syscall"

	"dmv/internal/obs"
)

// layerMetric is one per-layer metric with the end-to-end metric it should
// move and the workloads it should move it on; in parentheses, a workload
// where the prediction is no move.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

var layerMetrics = []layerMetric{
	{"scheduler.begin_us", "us", "lower", "read_p50_us", "kv-point-tcp (tpcw-ordering-wal updates)"},
	{"scheduler.attempts_per_txn", "ratio", "lower", "success_frac, read_p99_us", "tpcw-ordering-wal (kv-point-tcp)"},
	{"scheduler.version_aborts_per_ktxn", "1/ktxn", "lower", "read_p99_us", "tpcw-ordering-wal (tpcw-browsing)"},
	{"scheduler.version_wait_us", "us", "lower", "read_p99_us", "all; 0 expected with 2 clients on 2 slaves"},
	{"replica.point_select_us", "us", "lower", "read_p50_us", "kv-point-tcp, tpcw-browsing"},
	{"replica.scan_select_us", "us", "lower", "read_p99_us, throughput_tps", "tpcw-browsing (kv-point-tcp)"},
	{"replica.write_stmt_us", "us", "lower", "update_p50_us", "tpcw-ordering-wal (tpcw-browsing)"},
	{"replica.stmts_per_txn", "count", "lower", "context", "all"},
	{"replica.commit_us", "us", "lower", "update_p50_us", "tpcw-ordering-wal, kv-point-tcp"},
	{"replica.broadcast_us", "us", "lower", "update_p50_us", "tpcw-ordering-wal"},
	{"replica.writeset_bytes_per_update", "bytes", "lower", "update_p50_us", "kv-point-tcp, tpcw-ordering-wal"},
	{"exec.point_select_us", "us", "lower", "read_p50_us", "kv-point-tcp"},
	{"exec.scan_select_us", "us", "lower", "read_p99_us", "tpcw-browsing"},
	{"heap.lookup_eq_us", "us", "lower", "read_p50_us, cpu_us_per_txn", "kv-point-tcp (tpcw-ordering-wal update_p50_us)"},
	{"heap.lock_waits_per_update", "ratio", "lower", "update_p99_us", "tpcw-ordering-wal"},
	{"heap.lock_wait_us_p99", "us", "lower", "update_p99_us", "tpcw-ordering-wal"},
	{"heap.live_bytes_per_row", "bytes", "lower", "live_heap_mb, update_p99_us via GC", "kv-point-tcp"},
	{"page.lazy_mods_per_read", "ratio", "lower", "read_p50_us, read_p99_us", "tpcw-ordering-wal (tpcw-browsing)"},
	{"page.mod_chain_len_p99", "count", "lower", "read_p50_us, read_p99_us", "tpcw-ordering-wal (tpcw-browsing)"},
	{"persist.on_commit_us_p50", "us", "lower", "update_p50_us", "tpcw-ordering-wal only"},
	{"persist.on_commit_us_p99", "us", "lower", "update_p99_us", "tpcw-ordering-wal only"},
	{"wal.fsyncs_per_commit", "ratio", "lower", "update_p50_us", "tpcw-ordering-wal only"},
	{"wal.bytes_per_commit", "bytes", "lower", "update_p50_us", "tpcw-ordering-wal only"},
	{"persist.drain_s", "s", "lower", "cpu_us_per_txn", "tpcw-ordering-wal"},
	{"transport.begin_us", "us", "lower", "read_p50_us, update_p50_us", "kv-point-tcp only"},
	{"transport.exec_us", "us", "lower", "read_p50_us, update_p50_us", "kv-point-tcp only"},
	{"transport.commit_us", "us", "lower", "read_p50_us, update_p50_us", "kv-point-tcp only"},
	{"transport.writeset_us", "us", "lower", "update_p50_us", "kv-point-tcp only"},
	{"transport.bytes_per_txn", "bytes", "lower", "cpu_us_per_txn", "kv-point-tcp only"},
	{"runtime.allocs_per_txn", "count", "lower", "cpu_us_per_txn", "all"},
	{"runtime.alloc_bytes_per_txn", "bytes", "lower", "cpu_us_per_txn", "all"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "cpu_us_per_txn, update_p99_us", "kv-point-tcp"},
	{"runtime.gc_cycles", "count", "lower", "cpu_us_per_txn, update_p99_us", "kv-point-tcp"},
	{"bench.trace_overhead_frac", "ratio", "lower", "none", "all"},
}

// layerValues computes the per-layer metrics. Counts from the registry and
// the runtime come from the untraced run base; span timings and the replay
// measurements from the traced run.
func layerValues(base, traced runResult) map[string]float64 {
	d := base.d
	m := base.measured
	txns := float64(m.committed())
	reads, updates := float64(len(m.reads)), float64(len(m.updates))
	spans := traced.spans.byKind
	v := map[string]float64{}

	var runs, callbacks float64
	for _, b := range traced.measured.bufs {
		runs += float64(b.runs)
		callbacks += float64(b.callbacks)
	}
	v["scheduler.begin_us"] = spans[spanBegin].meanUS()
	v["scheduler.attempts_per_txn"] = per(callbacks, runs)
	v["scheduler.version_aborts_per_ktxn"] = per(1000*d.counter(obs.SchedAbortVersion), txns)
	v["scheduler.version_wait_us"] = float64(d.hist(obs.SchedVersionWaitUS).Sum)

	v["replica.point_select_us"] = spans[spanStmt+"/point"].meanUS()
	v["replica.scan_select_us"] = spans[spanStmt+"/scan"].meanUS()
	v["replica.write_stmt_us"] = spans[spanStmt+"/write"].meanUS()
	if st := spans[spanStmt]; st != nil {
		v["replica.stmts_per_txn"] = per(float64(st.count), float64(traced.spans.txns))
	}
	v["replica.commit_us"] = spans[spanCommit+"/update"].meanUS()
	v["replica.broadcast_us"] = float64(d.hist(obs.NodeBroadcastUS).Quantile(0.5))
	v["replica.writeset_bytes_per_update"] = per(d.counter(obs.NodeWriteSetBytes), updates)

	for k, x := range traced.extra {
		v[k] = x
	}
	lockWaits := d.hist(obs.HeapLockWaitUS)
	v["heap.lock_waits_per_update"] = per(float64(lockWaits.Count), updates)
	v["heap.lock_wait_us_p99"] = float64(lockWaits.Quantile(0.99))
	v["heap.live_bytes_per_row"] = per(float64(base.liveHeap), float64(base.rows))
	v["page.lazy_mods_per_read"] = per(d.counter(obs.HeapModsLazy), reads)
	v["page.mod_chain_len_p99"] = float64(d.hist(obs.HeapModChainLen).Quantile(0.99))

	v["persist.on_commit_us_p50"] = spans[spanOnCommit].quantileUS(0.50)
	v["persist.on_commit_us_p99"] = spans[spanOnCommit].quantileUS(0.99)
	v["wal.fsyncs_per_commit"] = per(float64(d.hist(obs.WalFsyncUS).Count), updates)
	v["wal.bytes_per_commit"] = per(d.counter(obs.WalBytes), updates)
	v["persist.drain_s"] = base.drain

	v["transport.begin_us"] = spans[spanPeer+"/begin"].meanUS()
	v["transport.exec_us"] = spans[spanPeer+"/exec"].meanUS()
	v["transport.commit_us"] = spans[spanPeer+"/commit"].meanUS()
	v["transport.writeset_us"] = spans[spanPeer+"/writeset"].meanUS()
	v["transport.bytes_per_txn"] = per(d.counter(obs.TransportBytesIn)+d.counter(obs.TransportBytesOut), txns)

	v["runtime.allocs_per_txn"] = per(d.rt["/gc/heap/allocs:objects"], txns)
	v["runtime.alloc_bytes_per_txn"] = per(d.rt["/gc/heap/allocs:bytes"], txns)
	v["runtime.gc_cpu_frac"] = per(d.rt["/cpu/classes/gc/total:cpu-seconds"], d.cpu.Seconds())
	v["runtime.gc_cycles"] = d.rt["/gc/cycles/total:gc-cycles"]

	untracedTPS := per(txns, d.wall.Seconds())
	tracedTPS := per(float64(traced.measured.committed()), traced.d.wall.Seconds())
	v["bench.trace_overhead_frac"] = 1 - per(tracedTPS, untracedTPS)
	return v
}

// fsName names the filesystem holding dir, for the WAL's configuration line.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem 0x%x", st.Type)
}
