package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span kinds recorded by the benchmark's wrappers around the calls it makes
// into the program's layers.
const (
	spanTxn      = "txn"       // Scheduler.Run, entry to return
	spanBegin    = "begin"     // Run entry (or the previous attempt's end) to callback entry
	spanStmt     = "stmt"      // Txn.Exec, tagged by statement kind and interaction
	spanCommit   = "commit"    // callback return to Run return
	spanOnCommit = "on-commit" // the persistence tier's OnCommit hook
	spanPeer     = "peer-call" // one replica.Peer call over the wire, tagged by method
)

// span is one recorded interval. Spans of one transaction share txn; parent
// indexes the enclosing span in the same buffer (-1 for none).
type span struct {
	txn    uint64
	kind   string
	tag    string
	ia     string // the operation's interaction (TPC-W) or KVRead/KVUpdate
	start  int64  // ns since the tracer started
	end    int64
	parent int32
}

// spanBuf holds the spans of one client goroutine. Only that goroutine
// touches it while the run is in progress, so spans nest by a plain stack.
type spanBuf struct {
	spans []span
	stack []int32
	txn   uint64 // current transaction id
	ia    string // current operation's interaction

	runs, callbacks int                   // Scheduler.Run calls and callback entries
	kinds           map[string]string     // statement kind by text
	selects         map[string][]recorded // SELECTs kept for replay, by kind
}

// tracer records spans in memory. A nil *tracer records nothing, which is
// how untraced runs pass through the same wrappers.
//
// Hooks the program calls back into (the OnCommit hook, the peer
// decorators) cannot be handed the calling client, so the tracer finds the
// client's buffer by goroutine id. Calls from the program's own goroutines,
// such as the master's write-set broadcast, go to a shared buffer and are
// attached to their transaction by time when the trace is summarised.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	clients map[uint64]*spanBuf // guarded by mu; by goroutine id
	bufs    []*spanBuf          // guarded by mu; every client buffer, in registration order
	other   []span              // guarded by mu; spans from non-client goroutines
	nextTxn uint64              // guarded by mu
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), clients: make(map[uint64]*spanBuf, clients)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// reset drops every span recorded so far (the warm-up's hook calls).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.other = nil
	t.mu.Unlock()
}

// register binds the calling goroutine to a fresh span buffer.
func (t *tracer) register() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{}
	t.mu.Lock()
	t.clients[goid()] = b
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// local returns the calling goroutine's buffer, or nil for a goroutine that
// is not a client.
func (t *tracer) local() *spanBuf {
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clients[id]
}

// startTxn assigns the buffer's next transaction id.
func (t *tracer) startTxn(b *spanBuf) {
	t.mu.Lock()
	t.nextTxn++
	b.txn = t.nextTxn
	t.mu.Unlock()
}

// open starts a span nested in the buffer's innermost open span.
func (b *spanBuf) open(t *tracer, kind, tag string) int32 {
	parent := int32(-1)
	if n := len(b.stack); n > 0 {
		parent = b.stack[n-1]
	}
	i := int32(len(b.spans))
	b.spans = append(b.spans, span{txn: b.txn, kind: kind, tag: tag, ia: b.ia, start: t.now(), end: -1, parent: parent})
	b.stack = append(b.stack, i)
	return i
}

// close ends span i and every span opened inside it that is still open.
func (b *spanBuf) close(t *tracer, i int32) {
	now := t.now()
	for len(b.stack) > 0 {
		top := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		b.spans[top].end = now
		if top == i {
			return
		}
	}
}

// add records an already finished span nested in the innermost open span.
func (b *spanBuf) add(kind, tag string, start, end int64) {
	parent := int32(-1)
	if n := len(b.stack); n > 0 {
		parent = b.stack[n-1]
	}
	b.spans = append(b.spans, span{txn: b.txn, kind: kind, tag: tag, ia: b.ia, start: start, end: end, parent: parent})
}

// hook times one call the program makes into a wrapper: it lands in the
// calling client's buffer, or in the shared buffer when no client is on the
// stack.
func (t *tracer) hook(kind, tag string, fn func()) {
	start := t.now()
	fn()
	end := t.now()
	if b := t.local(); b != nil {
		b.add(kind, tag, start, end)
		return
	}
	t.mu.Lock()
	t.other = append(t.other, span{kind: kind, tag: tag, start: start, end: end, parent: -1})
	t.mu.Unlock()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond, which only
// traced runs pay.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// kindStats aggregates the spans of one kind and tag.
type kindStats struct {
	count     int
	total     int64 // ns
	self      int64 // ns, span minus the time its children cover
	durations []int64
}

func (k *kindStats) meanUS() float64 {
	if k == nil || k.count == 0 {
		return 0
	}
	return float64(k.total) / float64(k.count) / 1e3
}

func (k *kindStats) quantileUS(q float64) float64 {
	if k == nil || len(k.durations) == 0 {
		return 0
	}
	return quantile(k.durations, q) / 1e3
}

// traceSummary is the per-kind aggregate of a finished trace.
type traceSummary struct {
	byKind map[string]*kindStats // key "kind" and "kind/tag"
	txns   int
}

// summarise attaches the non-client spans to the peer call that contains
// them, computes self times, aggregates by kind, and writes every span to
// path (one tab-separated line per span).
func (t *tracer) summarise(path string) (traceSummary, error) {
	t.mu.Lock()
	bufs := t.bufs
	other := t.other
	t.mu.Unlock()

	// A write-set shipped by the master runs inside the master's commit
	// RPC, so it belongs to the client peer call that contains it; the
	// innermost such call wins.
	type ref struct {
		b *spanBuf
		i int32
	}
	var commits []ref
	for _, b := range bufs {
		for i, sp := range b.spans {
			if sp.kind == spanPeer && sp.tag == "commit" {
				commits = append(commits, ref{b, int32(i)})
			}
		}
	}
	sort.Slice(commits, func(i, j int) bool {
		return commits[i].b.spans[commits[i].i].start < commits[j].b.spans[commits[j].i].start
	})
	var orphans []span
	for _, sp := range other {
		k := sort.Search(len(commits), func(i int) bool {
			return commits[i].b.spans[commits[i].i].start > sp.start
		})
		var best *ref
		for j := k - 1; j >= 0 && j >= k-2*clients; j-- {
			c := commits[j].b.spans[commits[j].i]
			if c.end >= sp.end && (best == nil || c.start > best.b.spans[best.i].start) {
				r := commits[j]
				best = &r
			}
		}
		if best == nil {
			orphans = append(orphans, sp)
			continue
		}
		parent := best.b.spans[best.i]
		sp.txn, sp.ia, sp.parent = parent.txn, parent.ia, best.i
		best.b.spans = append(best.b.spans, sp)
	}

	sum := traceSummary{byKind: map[string]*kindStats{}}
	f, err := os.Create(path)
	if err != nil {
		return sum, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "txn\tkind\ttag\tinteraction\tstart_ns\tdur_ns\tself_ns")
	emit := func(spans []span) {
		children := map[int32][]span{}
		for _, sp := range spans {
			if sp.parent >= 0 {
				children[sp.parent] = append(children[sp.parent], sp)
			}
		}
		covered := make([]int64, len(spans))
		for i, cs := range children {
			covered[i] = unionLen(cs)
		}
		for i, sp := range spans {
			if sp.end < 0 {
				continue
			}
			dur := sp.end - sp.start
			self := dur - covered[i]
			if sp.kind == spanTxn {
				sum.txns++
			}
			for _, key := range []string{sp.kind, sp.kind + "/" + sp.tag} {
				k := sum.byKind[key]
				if k == nil {
					k = &kindStats{}
					sum.byKind[key] = k
				}
				k.count++
				k.total += dur
				k.self += self
				k.durations = append(k.durations, dur)
			}
			fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%d\t%d\t%d\n", sp.txn, sp.kind, sp.tag, sp.ia, sp.start, dur, self)
		}
	}
	for _, b := range bufs {
		emit(b.spans)
	}
	emit(orphans)
	if err := w.Flush(); err != nil {
		f.Close()
		return sum, err
	}
	return sum, f.Close()
}

// unionLen is the length of the union of the spans' intervals: concurrent
// children, such as the write-set shipped to two slaves at once, cover
// their parent's time once.
func unionLen(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total int64
	end := int64(-1)
	for _, sp := range spans {
		start := sp.start
		if start < end {
			start = end
		}
		if sp.end > start {
			total += sp.end - start
			end = sp.end
		}
	}
	return total
}
