package main

import (
	"reflect"
	"testing"
)

// small returns a copy of a workload sized for tests.
func small(t *testing.T, name string, opsPerSecond int) *workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			c := *w
			c.opsPerSecond = opsPerSecond
			return &c
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := newPlan(w, 42, 2), newPlan(w, 42, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans of seed 42 differ", w.name)
		}
		if reflect.DeepEqual(a.measured, newPlan(w, 43, 2).measured) {
			t.Errorf("%s: seeds 42 and 43 give the same plan", w.name)
		}
		if got, want := len(a.measured[0])*clients, w.opsPerSecond*2; got != want {
			t.Errorf("%s: %d measured operations, want %d", w.name, got, want)
		}
	}
}

func TestKVPlanShape(t *testing.T) {
	p := newPlan(small(t, "kv-point-tcp", 20000), 7, 1)
	updates, n := 0, 0
	for _, seq := range p.measured {
		for _, o := range seq {
			n++
			if o.key < 1 || o.key > kvRows {
				t.Fatalf("key %d outside 1..%d", o.key, kvRows)
			}
			if o.update {
				updates++
				if len(o.val) == 0 || len(o.val) > 64 {
					t.Fatalf("update value of %d bytes", len(o.val))
				}
			}
		}
	}
	if share := float64(updates) / float64(n); share < 0.08 || share > 0.12 {
		t.Errorf("update share %.3f, want about %.2f", share, kvUpdateShare)
	}
}

// TestInsertedRowsDoNotDependOnSpeed runs one seed's plan twice: once with
// both clients at once, and once with the clients one after the other,
// which changes every transaction's timing and the interleaving. Both must
// insert exactly the rows the plan implies, leave the replicas equal, and
// recover every acknowledged update from the WAL.
func TestInsertedRowsDoNotDependOnSpeed(t *testing.T) {
	w := small(t, "tpcw-ordering-wal", 200)
	p := newPlan(w, 5, 1)
	want := p.insertedRows()
	if want["orders"] == 0 || want["customer"] == 0 {
		t.Fatalf("plan inserts nothing: %v", want)
	}
	for _, sequential := range []bool{false, true} {
		r, err := setupTPCW(w, 5, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range p.sessions {
			r.sessions = append(r.sessions, r.tw.NewSession(s))
		}
		before, err := countRows(r.master)
		if err != nil {
			t.Fatal(err)
		}
		var ph []phase
		for _, seqs := range [][][]op{p.warmup, p.measured} {
			if !sequential {
				ph = append(ph, r.drive(seqs, false))
				continue
			}
			for ci := range seqs {
				one := make([][]op, len(seqs))
				one[ci] = seqs[ci]
				ph = append(ph, r.drive(one, false))
			}
		}
		acked := 0
		for _, x := range ph {
			if x.failed > 0 {
				t.Fatalf("sequential=%v: %d operations failed: %v", sequential, x.failed, x.causes)
			}
			acked += len(x.updates)
		}
		after, err := countRows(r.master)
		if err != nil {
			t.Fatal(err)
		}
		for table, n := range want {
			if got := after[table] - before[table]; got != n {
				t.Errorf("sequential=%v: %s grew by %d rows, plan implies %d", sequential, table, got, n)
			}
		}
		if bad := r.checkDigests(); len(bad) > 0 {
			t.Errorf("sequential=%v: %v", sequential, bad)
		}
		if bad := r.checkDurable(acked); len(bad) > 0 {
			t.Errorf("sequential=%v: %v", sequential, bad)
		}
		r.close()
	}
}

func TestStatementKinds(t *testing.T) {
	var b spanBuf
	for stmt, want := range map[string]string{
		`SELECT v FROM kv WHERE k = ?`:                                      "point",
		`SELECT i_cost, i_stock FROM item WHERE i_id = ?`:                   "point",
		"SELECT i.i_id FROM item i\n\t\tJOIN author a ON i.i_a_id = a.a_id": "scan",
		`SELECT co_id, co_name FROM country ORDER BY co_name LIMIT 20`:      "scan",
		`UPDATE kv SET v = ? WHERE k = ?`:                                   "write",
		`INSERT INTO orders (o_id) VALUES (?)`:                              "write",
	} {
		if got := b.kindOf(stmt); got != want {
			t.Errorf("kindOf(%q) = %s, want %s", stmt, got, want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	spans := []span{{start: 10, end: 20}, {start: 0, end: 5}, {start: 12, end: 30}, {start: 14, end: 16}}
	if got := unionLen(spans); got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := quantile([]int64{10, 20}, 0.5); got != 15 {
		t.Errorf("interpolated median = %v, want 15", got)
	}
}

// TestTracedRunsMeasureEveryLayer runs each workload traced on a small plan
// and checks that the end-of-run checks pass and that the layers each
// workload exercises show up in the per-layer metrics.
func TestTracedRunsMeasureEveryLayer(t *testing.T) {
	want := map[string][]string{
		"tpcw-browsing":     {"replica.scan_select_us", "replica.point_select_us", "exec.scan_select_us", "heap.lookup_eq_us"},
		"tpcw-ordering-wal": {"replica.write_stmt_us", "replica.commit_us", "persist.on_commit_us_p50", "wal.fsyncs_per_commit", "wal.bytes_per_commit"},
		"kv-point-tcp":      {"transport.begin_us", "transport.exec_us", "transport.commit_us", "transport.writeset_us", "transport.bytes_per_txn", "exec.point_select_us"},
	}
	for _, name := range []string{"tpcw-browsing", "tpcw-ordering-wal", "kv-point-tcp"} {
		w := small(t, name, 300)
		dir := t.TempDir()
		base, err := runOnce(w, 3, 1, 1, nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runOnce(w, 3, 1, 1, newTracer(), dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []runResult{base, traced} {
			if !res.correct() || res.warmup.failed+res.measured.failed > 0 {
				t.Errorf("%s: checks %v, failures %v %v", name, res.checks, res.warmup.causes, res.measured.causes)
			}
		}
		v := layerValues(base, traced)
		for _, l := range layerMetrics {
			if _, ok := v[l.name]; !ok {
				t.Errorf("%s: no value for %s", name, l.name)
			}
		}
		for _, m := range want[name] {
			if v[m] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, v[m])
			}
		}
		if got := v["scheduler.attempts_per_txn"]; got < 1 {
			t.Errorf("%s: attempts per transaction %v, want >= 1", name, got)
		}
	}
}
