package main

import (
	"fmt"
	"math/rand"

	"dmv/internal/tpcw"
)

// op is one generated client operation. TPC-W operations name the
// interaction; internal/tpcw draws the interaction's parameters from the
// client's session generator, which is seeded from the same seed.
// Key-value operations carry their key and, for updates, the new value.
type op struct {
	ia     tpcw.Interaction // 0 for key-value operations
	update bool
	key    int64
	val    string
}

// tag names the operation for per-interaction reporting.
func (o op) tag() string {
	if o.ia != 0 {
		return o.ia.String()
	}
	if o.update {
		return "KVUpdate"
	}
	return "KVRead"
}

// plan is every operation a run executes: a warm-up sequence and a measured
// sequence per client, plus the seed of each client's TPC-W session. It is
// a function of the workload, the seed and the run length only, so the
// data a run leaves behind does not depend on how fast the code is.
type plan struct {
	warmup   [][]op
	measured [][]op
	sessions []int64
}

// newPlan generates the operation sequences of one run.
func newPlan(w *workload, seed int64, seconds int) plan {
	perClient := w.opsPerSecond * seconds / clients
	warm := perClient / 10
	p := plan{
		warmup:   make([][]op, clients),
		measured: make([][]op, clients),
		sessions: make([]int64, clients),
	}
	for ci := 0; ci < clients; ci++ {
		r := rand.New(rand.NewSource(seed*7919 + int64(ci)))
		p.sessions[ci] = r.Int63()
		p.warmup[ci] = genOps(w, r, warm)
		p.measured[ci] = genOps(w, r, perClient)
	}
	return p
}

func genOps(w *workload, r *rand.Rand, n int) []op {
	out := make([]op, n)
	for i := range out {
		if w.kv {
			o := op{key: r.Int63n(kvRows) + 1}
			if r.Float64() < kvUpdateShare {
				o.update = true
				o.val = fmt.Sprintf("%016x%016x", r.Uint64(), r.Uint64())
			}
			out[i] = o
			continue
		}
		ia := w.mix.Pick(r)
		out[i] = op{ia: ia, update: ia.IsUpdate()}
	}
	return out
}

// insertedRows returns how many rows per table a plan inserts when every
// operation commits: each BuyConfirm adds one order and one credit-card
// transaction, and each CustomerRegistration one customer and one address.
// Order lines are left out because their number depends on the session's
// cart, which the TPC-W workload fills from its own draws.
func (p plan) insertedRows() map[string]int {
	n := map[string]int{}
	for _, seqs := range [][][]op{p.warmup, p.measured} {
		for _, seq := range seqs {
			for _, o := range seq {
				switch o.ia {
				case tpcw.BuyConfirm:
					n["orders"]++
					n["cc_xacts"]++
				case tpcw.CustomerRegistration:
					n["customer"]++
					n["address"]++
				}
			}
		}
	}
	return n
}
