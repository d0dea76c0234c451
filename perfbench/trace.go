package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ipv6"
	"repro/internal/xmap"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanPass    spanKind = iota // one measured pass over every window of a rep
	spanBlock                   // one scanner Run, ScanParallel call or window sweep
	spanSend                    // Driver.SendBatch, or PacketDriver.Send for the loop detector
	spanRecv                    // Driver.RecvBatch, or PacketDriver.Recv
	spanRelease                 // Releaser.Release
	spanHandler                 // the output handler (CSVOutput.Write)
	spanExport                  // telemetry exports at the end of an observed pass
	spanTarget                  // one loop target, from its first Send to its last Recv
	spanSample                  // a heap sample of the benchmark, left out of the attribution
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"pass", "block", "send", "recv", "release", "handler", "export", "target", "heap-sample"}

// span is one recorded interval. Times are nanoseconds since the
// tracer's origin. n is the work inside the span: packets sent, replies
// drained, probes of a loop target. net is, for loop targets, the time
// spent inside PacketDriver calls, whose per-probe spans are folded into
// their target instead of being kept.
type span struct {
	start, end int64
	net        int64
	id, parent uint32
	n          uint32
	kind       spanKind
}

// kindTotal aggregates every span of one kind.
type kindTotal struct {
	calls, ns, n int64
}

// tracer keeps the spans of one traced pass in memory. A nil *tracer is
// the untraced mode: every method is a no-op and the wrappers are not
// installed. Methods are safe for concurrent use, since the sharded
// workload records from its scanner and ring-pump goroutines at once.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	totals  [numSpanKinds]kindTotal
	sendLat []int64 // per-call send latency, for percentiles
	nextID  uint32
	parent  uint32 // the open block span, parent of driver and handler spans
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a pass or block span and makes a block the parent of the
// leaf spans recorded until it ends.
func (t *tracer) begin(kind spanKind, parent uint32) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if kind == spanBlock {
		t.parent = t.nextID
	}
	return &span{id: t.nextID, parent: parent, kind: kind, start: t.now()}
}

// end closes a span opened by begin, with n units of work inside it.
func (t *tracer) end(s *span, n int) {
	if t == nil {
		return
	}
	s.end, s.n = t.now(), uint32(n)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.kind == spanBlock {
		t.parent = s.parent
	}
	t.addLocked(*s)
}

// leaf records a driver, handler or export span under the open block.
func (t *tracer) leaf(kind spanKind, start, end int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.addLocked(span{id: t.nextID, parent: t.parent, kind: kind, start: start, end: end, n: uint32(n)})
}

func (t *tracer) addLocked(s span) {
	t.spans = append(t.spans, s)
	t.countLocked(s.kind, s.end-s.start, int64(s.n))
}

// count adds one call of a kind that took d ns and did n units of work
// to the totals, without keeping a span.
func (t *tracer) count(kind spanKind, d, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.countLocked(kind, d, n)
}

func (t *tracer) countLocked(kind spanKind, d, n int64) {
	tot := &t.totals[kind]
	tot.calls++
	tot.ns += d
	tot.n += n
	if kind == spanSend {
		t.sendLat = append(t.sendLat, d)
	}
}

// total returns the aggregate of one span kind.
func (t *tracer) total(k spanKind) kindTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[k]
}

// wall is the time inside pass spans, less the benchmark's own heap
// samples.
func (t *tracer) wall() int64 { return t.total(spanPass).ns - t.total(spanSample).ns }

// handler wraps an output handler in handler spans.
func (t *tracer) handler(h xmap.Handler) xmap.Handler {
	if t == nil {
		return h
	}
	return func(r xmap.Response) {
		s := t.now()
		h(r)
		t.leaf(spanHandler, s, t.now(), 1)
	}
}

// export times one telemetry export as an export span.
func (t *tracer) export(f func() error) error {
	if t == nil {
		return f()
	}
	s := t.now()
	err := f()
	t.leaf(spanExport, s, t.now(), 1)
	return err
}

// writeTSV writes every span, one per line: id, parent, name, start_ns,
// end_ns, n, net_ns.
func (t *tracer) writeTSV(w io.Writer, label string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\tid\tparent\tname\tstart_ns\tend_ns\tn\tnet_ns\n", label)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end, s.n, s.net)
	}
	return bw.Flush()
}

// timedDriver times every call into the packet layer under a scanner.
// With capture set it also copies each received packet, for the
// isolated parse and dedup replays. Use wrapDriver, which keeps the
// wrapped driver's optional capabilities.
type timedDriver struct {
	d       xmap.Driver
	tr      *tracer
	capture *[][]byte
}

func (w *timedDriver) SendBatch(pkts [][]byte) (int, error) {
	s := w.tr.now()
	n, err := w.d.SendBatch(pkts)
	w.tr.leaf(spanSend, s, w.tr.now(), n)
	return n, err
}

func (w *timedDriver) RecvBatch(buf [][]byte) [][]byte {
	s := w.tr.now()
	out := w.d.RecvBatch(buf)
	w.tr.leaf(spanRecv, s, w.tr.now(), len(out)-len(buf))
	if w.capture != nil {
		for _, p := range out[len(buf):] {
			*w.capture = append(*w.capture, bytes.Clone(p))
		}
	}
	return out
}

func (w *timedDriver) SourceAddr() ipv6.Addr { return w.d.SourceAddr() }

// timedReleaser is a timedDriver over a Releaser (the simulator
// drivers).
type timedReleaser struct{ *timedDriver }

func (w timedReleaser) Release(pkts [][]byte) {
	s := w.tr.now()
	w.d.(xmap.Releaser).Release(pkts)
	w.tr.leaf(spanRelease, s, w.tr.now(), len(pkts))
}

// timedPipeline is a timedDriver over a pipelined driver (RingDriver):
// Releaser, Flusher and Pending.
type timedPipeline struct{ timedReleaser }

func (w timedPipeline) Flush()       { w.d.(xmap.Flusher).Flush() }
func (w timedPipeline) Pending() int { return w.d.(pender).Pending() }

type pender interface{ Pending() int }

// capabilities lists the optional driver interfaces the scanner probes
// for; a wrapper must present exactly the set of the driver it wraps,
// or the scanner would take other code paths when traced.
func capabilities(d xmap.Driver) (rel, flush, pend bool) {
	_, rel = d.(xmap.Releaser)
	_, flush = d.(xmap.Flusher)
	_, pend = d.(pender)
	return rel, flush, pend
}

// wrapDriver returns d timed by tr, presenting d's capabilities.
func wrapDriver(d xmap.Driver, tr *tracer, capture *[][]byte) (xmap.Driver, error) {
	base := &timedDriver{d: d, tr: tr, capture: capture}
	var w xmap.Driver
	switch rel, flush, pend := capabilities(d); {
	case !rel && !flush && !pend:
		w = base
	case rel && !flush && !pend:
		w = timedReleaser{base}
	case rel && flush && pend:
		w = timedPipeline{timedReleaser{base}}
	default:
		return nil, fmt.Errorf("perfbench: no timing wrapper for driver %T", d)
	}
	return w, nil
}

// timedPacketDriver times the loop detector's per-packet calls. Probes
// to the same destination belong to one target; each target becomes one
// span from its first Send to its last Recv, carrying the time spent in
// driver calls as net.
type timedPacketDriver struct {
	d   xmap.PacketDriver
	tr  *tracer
	cur span
	dst [16]byte
	on  bool
}

func (w *timedPacketDriver) Send(pkt []byte) error {
	s := w.tr.now()
	if len(pkt) >= 40 && (!w.on || !bytes.Equal(pkt[24:40], w.dst[:])) {
		w.flush()
		copy(w.dst[:], pkt[24:40])
		w.cur = span{kind: spanTarget, start: s}
		w.on = true
	}
	err := w.d.Send(pkt)
	e := w.tr.now()
	w.cur.net += e - s
	w.cur.n++
	w.cur.end = e
	w.tr.count(spanSend, e-s, 1)
	return err
}

func (w *timedPacketDriver) Recv() [][]byte {
	s := w.tr.now()
	out := w.d.Recv()
	e := w.tr.now()
	w.cur.net += e - s
	w.cur.end = e
	w.tr.count(spanRecv, e-s, int64(len(out)))
	return out
}

func (w *timedPacketDriver) SourceAddr() ipv6.Addr { return w.d.SourceAddr() }

// flush records the open target span; call it after the last probe.
func (w *timedPacketDriver) flush() {
	if w == nil || !w.on {
		return
	}
	w.tr.mu.Lock()
	w.tr.nextID++
	w.cur.id, w.cur.parent = w.tr.nextID, w.tr.parent
	w.tr.addLocked(w.cur)
	w.tr.mu.Unlock()
	w.on = false
}
