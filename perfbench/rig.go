package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/persist"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/tpcw"
	"dmv/internal/transport"
	"dmv/internal/value"
	"dmv/internal/vclock"
	"dmv/internal/wal"
)

const (
	kvDDL         = `CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(64))`
	kvRows        = 200000
	kvUpdateShare = 0.10
	kvSelect      = `SELECT v FROM kv WHERE k = ?`
	kvUpdate      = `UPDATE kv SET v = ? WHERE k = ?`

	// maxRetries matches the dmv-scheduler deployment.
	maxRetries = 30
)

// errWrongRows reports a point read that did not return exactly one row.
var errWrongRows = errors.New("kv read did not return exactly one row")

// rig is one built cluster, ready for transactions: 1 master and 2 slaves
// behind one scheduler, with the metrics registry and flight recorder wired
// in the way -metrics-addr deployments run them.
type rig struct {
	tr     *tracer
	reg    *obs.Registry
	rec    *flight.Recorder
	sched  *scheduler.Scheduler
	master *heap.Engine
	slaves []*heap.Engine
	schema []string
	closes []func() // run in reverse order by close

	// TPC-W only.
	tw       *tpcw.Workload
	sessions []*tpcw.Session

	// tpcw-ordering-wal only.
	tier   *persist.Tier
	walDir string

	mu       sync.Mutex
	logged   []string // guarded by mu; version of every commit handed to the tier
	tierErrs []error  // guarded by mu
}

func (r *rig) close() {
	for i := len(r.closes) - 1; i >= 0; i-- {
		r.closes[i]()
	}
	r.closes = nil
}

func newObs() (*obs.Registry, *flight.Recorder) {
	reg := obs.New()
	rec := flight.New(flight.Options{Node: "bench", Reg: reg})
	rec.StartSampler(time.Second)
	return reg, rec
}

// setupTPCW builds the in-process cluster of the TPC-W workloads; with
// w.wal it adds the crash-durable persistence tier as dmv.Open builds it for
// a WAL directory: one backend and the "always" fsync policy.
func setupTPCW(w *workload, seed int64, tr *tracer, outDir string) (*rig, error) {
	reg, rec := newObs()
	r := &rig{tr: tr, reg: reg, rec: rec, schema: tpcw.SchemaDDL()}
	r.closes = append(r.closes, rec.Close)
	scale := tpcw.FailoverScale()

	var onCommit func(scheduler.CommitRecord)
	if w.wal {
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			r.close()
			return nil, err
		}
		r.walDir = dir
		r.closes = append(r.closes, func() { os.RemoveAll(dir) })
		rlog, err := persist.OpenLog(persist.DurableConfig{Dir: dir, Policy: wal.SyncAlways, Obs: reg, Flight: rec})
		if err != nil {
			r.close()
			return nil, err
		}
		back, err := persist.NewBackend("disk0",
			simdisk.OnDisk(200*time.Microsecond, 200*time.Microsecond, 100*time.Microsecond),
			0, r.schema, scale.Load)
		if err != nil {
			rlog.WAL.Close()
			r.close()
			return nil, err
		}
		r.tier = persist.NewTier(persist.Options{
			Backends: []*persist.Backend{back},
			Log:      rlog,
			Obs:      reg,
			Flight:   rec,
			OnError: func(err error) {
				r.mu.Lock()
				r.tierErrs = append(r.tierErrs, err)
				r.mu.Unlock()
			},
		})
		r.closes = append(r.closes, r.tier.Close)
		onCommit = r.onCommit
	}

	c, err := cluster.New(cluster.Config{
		Slaves:     2,
		SchemaDDL:  r.schema,
		Load:       scale.Load,
		MaxRetries: maxRetries,
		Seed:       seed,
		Obs:        reg,
		Flight:     rec,
		OnCommit:   onCommit,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.closes = append(r.closes, c.Close)
	r.sched = c.Scheduler()
	for _, id := range c.NodeIDs() {
		n, _ := c.Node(id)
		if strings.HasPrefix(id, "master") {
			r.master = n.Engine()
		} else {
			r.slaves = append(r.slaves, n.Engine())
		}
	}
	r.tw = tpcw.NewWorkload(tpcwStore{r}, scale)
	return r, nil
}

// onCommit is the hook handed to the cluster: the tier's OnCommit (encode,
// WAL append, group-commit fsync) timed as one span, plus the record of
// which versions were handed over for the durability check.
func (r *rig) onCommit(rec scheduler.CommitRecord) {
	if r.tr != nil {
		r.tr.hook(spanOnCommit, "", func() { r.tier.OnCommit(rec) })
	} else {
		r.tier.OnCommit(rec)
	}
	r.mu.Lock()
	r.logged = append(r.logged, rec.Version.String())
	r.mu.Unlock()
}

// setupKV builds the kv-point-tcp tier: three replica.Nodes served over
// loopback TCP, a scheduler over transport clients, and a master whose
// write-set subscribers are transport clients too — the dmv-node and
// dmv-scheduler deployment, in one process.
func setupKV(seed int64, tr *tracer) (*rig, error) {
	reg, rec := newObs()
	r := &rig{tr: tr, reg: reg, rec: rec, schema: []string{kvDDL}}
	r.closes = append(r.closes, rec.Close)

	ids := []string{"master0", "slave0", "slave1"}
	nodes := make([]*replica.Node, len(ids))
	addrs := make([]string, len(ids))
	for i, id := range ids {
		eng := heap.NewEngine(heap.Options{Obs: reg, NodeID: id})
		if err := exec.ExecDDL(eng, kvDDL); err != nil {
			r.close()
			return nil, err
		}
		rows := make([]value.Row, kvRows)
		for k := range rows {
			rows[k] = value.Row{value.NewInt(int64(k + 1)), value.NewString(fmt.Sprintf("init-%08d", k+1))}
		}
		if err := eng.Load(0, rows); err != nil {
			r.close()
			return nil, err
		}
		nodes[i] = replica.NewNode(replica.Options{ID: id, Engine: eng, Obs: reg, Flight: rec})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		srv, err := transport.ServeNodeListener(nodes[i], lis, reg)
		if err != nil {
			r.close()
			return nil, err
		}
		r.closes = append(r.closes, srv.Close)
		addrs[i] = srv.Addr()
		if i == 0 {
			r.master = eng
		} else {
			r.slaves = append(r.slaves, eng)
		}
	}
	dial := func(i int) (*transport.RemoteNode, replica.Peer, error) {
		rn, err := transport.DialNodeOpts(ids[i], addrs[i], transport.ClientOptions{Obs: reg, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		if tr == nil {
			return rn, rn, nil
		}
		return rn, &timedPeer{Peer: rn, tr: tr}, nil
	}

	masterRN, masterPeer, err := dial(0)
	if err != nil {
		r.close()
		return nil, err
	}
	if err := masterRN.Promote([]int{0}); err != nil {
		r.close()
		return nil, fmt.Errorf("promote master: %w", err)
	}
	subs := make([]replica.Peer, 0, 2)
	for i := 1; i < len(ids); i++ {
		_, p, err := dial(i)
		if err != nil {
			r.close()
			return nil, err
		}
		subs = append(subs, p)
	}
	nodes[0].SetSubscribers(subs)

	sched, err := scheduler.New(scheduler.Options{
		VersionAffinity: true,
		MaxRetries:      maxRetries,
		Seed:            seed,
		Obs:             reg,
		Flight:          rec,
	}, 1, func(name string) (int, bool) { return 0, name == "kv" })
	if err != nil {
		r.close()
		return nil, err
	}
	sched.SetMaster(0, masterPeer)
	peers := []flight.Peer{masterRN}
	for i := 1; i < len(ids); i++ {
		rn, p, err := dial(i)
		if err != nil {
			r.close()
			return nil, err
		}
		sched.AddSlave(p)
		peers = append(peers, rn)
	}
	rec.SetPeers(peers)
	r.sched = sched
	return r, nil
}

// timedPeer is a replica.Peer decorator that records every transaction and
// replication call over the wire as a peer-call span.
type timedPeer struct {
	replica.Peer
	tr *tracer
}

func (p *timedPeer) TxBegin(readOnly bool, v vclock.Vector, d time.Duration, tc obs.TraceContext) (id uint64, err error) {
	p.tr.hook(spanPeer, "begin", func() { id, err = p.Peer.TxBegin(readOnly, v, d, tc) })
	return id, err
}

func (p *timedPeer) TxExec(id uint64, stmt string, params []value.Value) (res *exec.Result, err error) {
	p.tr.hook(spanPeer, "exec", func() { res, err = p.Peer.TxExec(id, stmt, params) })
	return res, err
}

func (p *timedPeer) TxCommit(id uint64) (v vclock.Vector, err error) {
	p.tr.hook(spanPeer, "commit", func() { v, err = p.Peer.TxCommit(id) })
	return v, err
}

func (p *timedPeer) TxRollback(id uint64) (err error) {
	p.tr.hook(spanPeer, "rollback", func() { err = p.Peer.TxRollback(id) })
	return err
}

func (p *timedPeer) ReceiveWriteSet(ws *heap.WriteSet) (err error) {
	p.tr.hook(spanPeer, "writeset", func() { err = p.Peer.ReceiveWriteSet(ws) })
	return err
}
