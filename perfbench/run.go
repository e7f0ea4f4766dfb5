package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/page"
	"dmv/internal/persist"
	"dmv/internal/scheduler"
	"dmv/internal/tpcw"
	"dmv/internal/value"
	"dmv/internal/wal"
)

// tpcwStore runs the TPC-W workload's transactions through the rig.
type tpcwStore struct{ r *rig }

func (s tpcwStore) Run(readOnly bool, tables []string, fn func(tpcw.Querier) error) error {
	var b *spanBuf
	if s.r.tr != nil {
		b = s.r.tr.local()
	}
	return s.r.runTxn(b, scheduler.TxnSpec{ReadOnly: readOnly, Tables: tables}, fn)
}

// runTxn runs one transaction through Scheduler.Run. Traced, it records the
// txn span and, inside it, begin (Run entry, or the end of a failed
// attempt, to callback entry), one stmt span per Txn.Exec, and commit
// (callback return to Run return).
func (r *rig) runTxn(b *spanBuf, spec scheduler.TxnSpec, fn func(tpcw.Querier) error) error {
	if b == nil {
		return r.sched.Run(spec, func(tx *scheduler.Txn) error { return fn(tx) })
	}
	class := "update"
	if spec.ReadOnly {
		class = "read"
	}
	t := r.tr
	t.startTxn(b)
	b.runs++
	root := b.open(t, spanTxn, class)
	gap := b.open(t, spanBegin, class)
	err := r.sched.Run(spec, func(tx *scheduler.Txn) error {
		b.close(t, gap)
		b.callbacks++
		err := fn(tracedQuerier{tx: tx, b: b, t: t})
		if err == nil {
			gap = b.open(t, spanCommit, class)
		} else {
			gap = b.open(t, spanBegin, class)
		}
		return err
	})
	b.close(t, root)
	return err
}

// tracedQuerier records each statement as a stmt span tagged by its kind
// (point, scan or write) and keeps a sample of the SELECTs for the executor
// replay.
type tracedQuerier struct {
	tx *scheduler.Txn
	b  *spanBuf
	t  *tracer
}

func (q tracedQuerier) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	kind := q.b.kindOf(stmt)
	i := q.b.open(q.t, spanStmt, kind)
	res, err := q.tx.Exec(stmt, params...)
	q.b.close(q.t, i)
	if kind != "write" && len(q.b.selects[kind]) < replayCap {
		if q.b.selects == nil {
			q.b.selects = map[string][]recorded{}
		}
		q.b.selects[kind] = append(q.b.selects[kind], recorded{stmt, params})
	}
	return res, err
}

// replayCap bounds the SELECTs of each kind kept per client and slice, and
// replayed after the run.
const replayCap = 500

type recorded struct {
	stmt   string
	params []value.Value
}

// kindOf classifies a statement: "write" for INSERT/UPDATE, "scan" for a
// SELECT that joins, matches LIKE, groups or sorts, "point" for the rest
// (single-table lookups on a key).
func (b *spanBuf) kindOf(stmt string) string {
	if k, ok := b.kinds[stmt]; ok {
		return k
	}
	fields := strings.Fields(stmt)
	kind := "point"
	if len(fields) == 0 || !strings.EqualFold(fields[0], "SELECT") {
		kind = "write"
	} else {
		for _, f := range fields {
			switch strings.ToUpper(f) {
			case "JOIN", "LIKE", "GROUP", "ORDER":
				kind = "scan"
			}
		}
	}
	if b.kinds == nil {
		b.kinds = map[string]string{}
	}
	b.kinds[stmt] = kind
	return kind
}

// do executes one operation for client ci.
func (r *rig) do(ci int, o op, b *spanBuf) error {
	if b != nil {
		b.ia = o.tag()
	}
	if r.tw != nil {
		return r.tw.Do(r.sessions[ci], o.ia)
	}
	if o.update {
		return r.runTxn(b, scheduler.TxnSpec{Tables: []string{"kv"}}, func(q tpcw.Querier) error {
			res, err := q.Exec(kvUpdate, value.NewString(o.val), value.NewInt(o.key))
			if err != nil {
				return err
			}
			if res.Affected != 1 {
				return fmt.Errorf("kv update of key %d changed %d rows", o.key, res.Affected)
			}
			return nil
		})
	}
	return r.runTxn(b, scheduler.TxnSpec{ReadOnly: true, Tables: []string{"kv"}}, func(q tpcw.Querier) error {
		res, err := q.Exec(kvSelect, value.NewInt(o.key))
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("%w: key %d returned %d rows", errWrongRows, o.key, len(res.Rows))
		}
		return nil
	})
}

// phase is what the clients observed while executing one set of sequences.
type phase struct {
	attempted int
	failed    int
	wrongRows int // kv reads that did not return exactly one row
	causes    map[string]int
	reads     []int64 // ns, committed read-only transactions
	updates   []int64 // ns, committed update transactions
	byTag     map[string][]int64
	bufs      []*spanBuf
}

func (p phase) committed() int { return len(p.reads) + len(p.updates) }

func (p *phase) merge(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.wrongRows += q.wrongRows
	for k, v := range q.causes {
		p.causes[k] += v
	}
	p.reads = append(p.reads, q.reads...)
	p.updates = append(p.updates, q.updates...)
	for k, v := range q.byTag {
		p.byTag[k] = append(p.byTag[k], v...)
	}
	p.bufs = append(p.bufs, q.bufs...)
}

// chunks is the number of equal slices the measured sequences are cut
// into. The clients meet at the end of each slice; the throughput of each
// slice is printed, which shows how a run's speed moves as its data grows
// and as collections come and go.
const chunks = 10

// chunk is one slice of the measured phase.
type chunk struct {
	d  delta
	ph phase
}

// drive runs one sequence per client, each client closed loop: it sends
// its next operation only once the previous one has returned.
func (r *rig) drive(seqs [][]op, traced bool) phase {
	type clientOut struct {
		phase
		b *spanBuf
	}
	outs := make([]clientOut, len(seqs))
	var wg sync.WaitGroup
	for ci := range seqs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out := &outs[ci]
			out.causes = map[string]int{}
			out.byTag = map[string][]int64{}
			if traced {
				out.b = r.tr.register()
			}
			for _, o := range seqs[ci] {
				out.attempted++
				start := time.Now()
				err := r.do(ci, o, out.b)
				lat := time.Since(start).Nanoseconds()
				if err != nil {
					out.failed++
					if errors.Is(err, errWrongRows) {
						out.wrongRows++
					}
					out.causes[fmt.Sprintf("%s: %v", o.tag(), err)]++
					continue
				}
				if o.update {
					out.updates = append(out.updates, lat)
				} else {
					out.reads = append(out.reads, lat)
				}
				out.byTag[o.tag()] = append(out.byTag[o.tag()], lat)
			}
		}(ci)
	}
	wg.Wait()
	p := phase{causes: map[string]int{}, byTag: map[string][]int64{}}
	for _, out := range outs {
		if out.b != nil {
			out.bufs = []*spanBuf{out.b}
		}
		p.merge(out.phase)
	}
	return p
}

// runResult is everything one run measured and checked.
type runResult struct {
	setups   []float64 // seconds per set-up
	warmup   phase
	measured phase
	chunks   []chunk
	d        delta
	liveHeap uint64
	rows     int // rows held by the three cluster nodes
	drain    float64
	checks   []string // failed end-of-run checks
	spans    traceSummary
	extra    map[string]float64 // per-layer values measured after the run
}

// correct reports whether every end-of-run check passed. A failed
// operation is not by itself a failed check: it is counted and reported
// with its cause.
func (res runResult) correct() bool { return len(res.checks) == 0 }

// runOnce sets the workload up `setups` times (keeping the last), runs the
// seeded plan, and checks the outcome. tr != nil makes it a traced run.
func runOnce(w *workload, seed int64, seconds, setups int, tr *tracer, outDir string) (runResult, error) {
	var res runResult
	var r *rig
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if w.kv {
			r, err = setupKV(seed, tr)
		} else {
			r, err = setupTPCW(w, seed, tr, outDir)
		}
		if err != nil {
			return res, fmt.Errorf("set up %s: %w", w.name, err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	defer r.close()

	p := newPlan(w, seed, seconds)
	if r.tw != nil {
		for _, s := range p.sessions {
			r.sessions = append(r.sessions, r.tw.NewSession(s))
		}
	}
	before, err := countRows(r.master)
	if err != nil {
		return res, err
	}

	res.warmup = r.drive(p.warmup, false)
	tr.reset()
	runtime.GC()
	a := takeProbe(r.reg)
	res.measured = phase{causes: map[string]int{}, byTag: map[string][]int64{}}
	for k := 0; k < chunks; k++ {
		sub := make([][]op, len(p.measured))
		for ci, seq := range p.measured {
			sub[ci] = seq[len(seq)*k/chunks : len(seq)*(k+1)/chunks]
		}
		ca := takeProbe(nil)
		ph := r.drive(sub, tr != nil)
		res.chunks = append(res.chunks, chunk{d: diff(ca, takeProbe(nil)), ph: ph})
		res.measured.merge(ph)
	}
	res.d = diff(a, takeProbe(r.reg))
	if n := res.warmup.wrongRows + res.measured.wrongRows; n > 0 {
		res.checks = append(res.checks, fmt.Sprintf("%d kv reads did not return exactly one row", n))
	}

	// Everything below is outside the measured phase.
	if r.tier != nil {
		start := time.Now()
		r.tier.Flush()
		res.drain = time.Since(start).Seconds()
	}
	res.liveHeap = liveHeapBytes()
	res.checks = append(res.checks, r.checkDigests()...)
	after, err := countRows(r.master)
	if err != nil {
		return res, err
	}
	for _, n := range after {
		res.rows += n * (1 + len(r.slaves))
	}
	if r.tw != nil {
		for table, n := range p.insertedRows() {
			if got := after[table] - before[table]; got != n {
				res.checks = append(res.checks, fmt.Sprintf("table %s grew by %d rows, the plan inserts %d", table, got, n))
			}
		}
	}
	if tr != nil {
		var bad []string
		res.extra, bad = r.replay(res.measured.bufs, seed)
		res.checks = append(res.checks, bad...)
	}
	if r.tier != nil {
		res.checks = append(res.checks, r.checkDurable(len(res.warmup.updates)+len(res.measured.updates))...)
	}
	if tr != nil {
		r.close()
		res.spans, err = tr.summarise(outDir + "/spans-" + w.name + ".tsv")
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// countRows counts every table's rows on an engine at its latest state.
func countRows(e *heap.Engine) (map[string]int, error) {
	out := map[string]int{}
	tx := e.BeginRead(nil)
	for _, name := range e.TableNames() {
		id, _ := e.TableID(name)
		n := 0
		if err := tx.Scan(id, func(page.RowID, value.Row) bool { n++; return true }); err != nil {
			return nil, fmt.Errorf("count %s: %w", name, err)
		}
		out[name] = n
	}
	return out, nil
}

// checkDigests compares every table's digest on the master and both slaves
// at the master's latest version. The clients have all returned, and a
// master acknowledges a commit only once every slave holds its write-set,
// so the replicas must agree.
func (r *rig) checkDigests() []string {
	var bad []string
	v := r.master.MaxVersions()
	for t := 0; t < r.master.NumTables(); t++ {
		want, err := r.master.TableDigestAt(t, v[t], false)
		if err != nil {
			bad = append(bad, fmt.Sprintf("digest of table %d on the master: %v", t, err))
			continue
		}
		for i, s := range r.slaves {
			got, err := s.TableDigestAt(t, v[t], false)
			switch {
			case err != nil:
				bad = append(bad, fmt.Sprintf("digest of table %d on slave %d: %v", t, i, err))
			case got.Root != want.Root:
				bad = append(bad, fmt.Sprintf("table %d differs between the master and slave %d at version %d", t, i, v[t]))
			}
		}
	}
	return bad
}

// checkDurable closes the persistence tier, reopens its directory the way a
// restart would, and requires every acknowledged update in the recovered
// log.
func (r *rig) checkDurable(acked int) []string {
	r.tier.Close()
	r.mu.Lock()
	logged := append([]string(nil), r.logged...)
	errs := append([]error(nil), r.tierErrs...)
	r.mu.Unlock()
	var bad []string
	for _, err := range errs {
		bad = append(bad, fmt.Sprintf("persistence tier: %v", err))
	}
	if len(logged) != acked {
		bad = append(bad, fmt.Sprintf("%d updates acknowledged but %d handed to the tier", acked, len(logged)))
	}
	rlog, err := persist.OpenLog(persist.DurableConfig{Dir: r.walDir, Policy: wal.SyncAlways})
	if err != nil {
		return append(bad, fmt.Sprintf("reopen the WAL: %v", err))
	}
	defer rlog.WAL.Close()
	recovered := make(map[string]bool, len(rlog.Records))
	for _, rec := range rlog.Records {
		recovered[rec.Version.String()] = true
	}
	missing := 0
	for _, v := range logged {
		if !recovered[v] {
			missing++
		}
	}
	if missing > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d acknowledged updates missing from the recovered WAL", missing, len(logged)))
	}
	return bad
}

// replay measures the executor and the heap without the scheduler or the
// replica session in front: the SELECTs the traced run recorded, prepared
// and executed on a slave engine at its latest state, and the primary-key
// index lookups of a seeded key stream.
func (r *rig) replay(bufs []*spanBuf, seed int64) (map[string]float64, []string) {
	out := map[string]float64{}
	eng := r.slaves[0]
	for _, kind := range []string{"point", "scan"} {
		var n int
		var total time.Duration
		cache := map[string]*exec.Prepared{}
		for _, b := range bufs {
			for _, rec := range b.selects[kind] {
				if n == replayCap {
					break
				}
				start := time.Now()
				p := cache[rec.stmt]
				if p == nil {
					var err error
					if p, err = exec.Prepare(rec.stmt); err != nil {
						continue
					}
					cache[rec.stmt] = p
				}
				if _, err := p.Exec(eng.BeginRead(nil), rec.params); err != nil {
					continue
				}
				total += time.Since(start)
				n++
			}
		}
		out["exec."+kind+"_select_us"] = per(float64(total.Microseconds()), float64(n))
	}

	// Primary-key lookups: kv on kv-point-tcp, item on the TPC-W workloads.
	table, keys := "kv", int64(kvRows)
	if r.tw != nil {
		table, keys = "item", int64(tpcw.FailoverScale().Items)
	}
	tid, _ := eng.TableID(table)
	idx, _ := eng.IndexID(tid, "pk_"+table)
	rng := rand.New(rand.NewSource(seed))
	const lookups = 20000
	var total time.Duration
	lookupErrs := 0
	for i := 0; i < lookups; i++ {
		key := value.Row{value.NewInt(rng.Int63n(keys) + 1)}
		tx := eng.BeginRead(nil)
		start := time.Now()
		rids, err := tx.LookupEq(tid, idx, key)
		total += time.Since(start)
		if err != nil || len(rids) != 1 {
			lookupErrs++
		}
	}
	out["heap.lookup_eq_us"] = float64(total.Nanoseconds()) / lookups / 1e3
	var bad []string
	if lookupErrs > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d primary-key lookups on %s did not find exactly one row", lookupErrs, lookups, table))
	}
	return out, bad
}

// failureLines lists each failed operation's cause, most frequent first.
func failureLines(causes map[string]int) []string {
	keys := make([]string, 0, len(causes))
	for k := range causes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if causes[keys[i]] != causes[keys[j]] {
			return causes[keys[i]] > causes[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("failed x%d: %s", causes[k], k)
	}
	return out
}
