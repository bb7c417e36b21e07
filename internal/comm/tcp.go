package comm

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

// TCP is a fabric whose traffic really crosses loopback TCP sockets: each
// worker owns a listener, requests are dispatched to the registered
// handler on the serving side, and responses travel back on the same
// connection. A frame is a small gob envelope (kind, sequence number,
// epoch, addressing, the pull baseline's id lists) followed by the raw
// message payload — a push packet or a pull response — as the run
// AppendMsgs encodes: a count and MsgWireSize bytes per message. gob never
// sees a message. Byte accounting uses the same semantic wire sizes as the
// Local fabric (message ids and values, not framing overhead or retry
// duplicates), so the cost model is transport-independent; what the
// sockets really carried is counted apart as "comm.tcp.frame_bytes".
//
// The fabric is resilient: transport errors (broken pipes, resets, and a
// peer silent past the request deadline) trigger bounded retries with
// exponential backoff and jitter over a fresh connection, and the serving
// side deduplicates by sequence number so a retried Send or Signal whose
// original was processed — only its response lost — is not applied twice.
// Injected transport faults from a faultplan exercise exactly these paths:
// on a TCP stream a lost request or response shows up as a broken
// connection, so an injected drop closes it and the client retries at once.
type TCP struct {
	mu        sync.RWMutex // guards handlers, addrs elements, counters below
	handlers  map[int]Handler
	listeners []net.Listener
	addrs     []string
	peers     []*tcpPeer
	dedups    []*dedup
	cfg       TCPConfig
	ctx       ctxHolder
	roller    *faultplan.Roller
	seq       atomic.Uint64
	epoch     atomic.Int64
	in        []atomic.Int64
	out       []atomic.Int64
	total     atomic.Int64
	frames    atomic.Int64 // bytes written to sockets, both directions
	closed    atomic.Bool

	jmu  sync.Mutex // guards jrng (retry jitter)
	jrng *rand.Rand

	mRequests *obs.Counter // "comm.tcp.requests"
	mRetries  *obs.Counter // "comm.tcp.retries"
	mRedials  *obs.Counter // "comm.tcp.redials"
	mStale    *obs.Counter // "comm.stale_epoch"
}

// TCPConfig tunes the fabric. Zero values select defaults.
type TCPConfig struct {
	// Timeout is the per-request deadline covering one send+receive round
	// trip (default 5s). Only a peer that truly goes silent reaches it:
	// an injected drop breaks the connection instead.
	Timeout time.Duration
	// Faults, when non-nil, injects seeded transport faults on the serving
	// side: dropped requests, dropped responses, duplicated deliveries and
	// delays.
	Faults *faultplan.TransportFaults
}

// maxRetries bounds the retransmissions after a request's first attempt;
// retryBackoff is the base of their exponential backoff (doubled per
// attempt, capped at 100ms, plus up to 100% jitter).
const (
	maxRetries   = 8
	retryBackoff = time.Millisecond
)

func (c TCPConfig) withDefaults() TCPConfig {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	return c
}

// errFabricClosed reports a roundTrip raced with Close.
var errFabricClosed = errors.New("comm: tcp fabric closed")

// tcpPeer is the client side's state for one destination worker. The
// per-peer lock means dialing one slow peer never blocks traffic to the
// others (and never blocks handler registration, which has its own lock).
type tcpPeer struct {
	mu   sync.Mutex
	conn *tcpConn
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
	s  *tcpStream
}

// tcpStream is one end of a connection's framing, the same on both
// sides: a gob envelope, followed — when the envelope's PayloadLen says so
// — by that many raw bytes holding one AppendMsgs run. gob therefore only
// ever sees the few dozen bytes of an envelope; the messages bypass it
// through buf, the stream's one payload buffer, reused for every frame in
// either direction.
type tcpStream struct {
	r   *bufio.Reader // shared by dec and the payload reads
	w   io.Writer     // the socket, tallied into the fabric's frame_bytes
	enc *gob.Encoder
	dec *gob.Decoder
	buf []byte
}

func newTCPStream(c net.Conn, frames *atomic.Int64) *tcpStream {
	s := &tcpStream{r: bufio.NewReader(c), w: countingWriter{c, frames}}
	s.enc = gob.NewEncoder(s.w)
	// A reader that can ReadByte is used as is, so gob consumes exactly one
	// envelope and leaves the payload for recvPayload.
	s.dec = gob.NewDecoder(s.r)
	return s
}

// maxPayload bounds the payload length a frame may announce.
const maxPayload = 1 << 30

// send writes one frame; env's PayloadLen must equal len(payload).
func (s *tcpStream) send(env any, payload []byte) error {
	if err := s.enc.Encode(env); err != nil || len(payload) == 0 {
		return err
	}
	_, err := s.w.Write(payload)
	return err
}

// recvPayload reads the n payload bytes that follow the envelope just
// decoded. The result is buf: valid until the stream's next frame.
func (s *tcpStream) recvPayload(n int) ([]byte, error) {
	if n < 0 || n > maxPayload {
		return nil, &PayloadError{Len: n, Count: -1}
	}
	s.buf = slices.Grow(s.buf[:0], n)[:n]
	_, err := io.ReadFull(s.r, s.buf)
	return s.buf, err
}

// countingWriter tallies the bytes a connection actually writes.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// do performs one framed round trip under the request deadline: msgs (a
// push packet's, nil otherwise) are encoded into the stream's payload
// buffer, and a response payload is decoded into a slice the caller owns
// before the lock is released. The connection lock serialises concurrent
// requests onto the shared stream.
func (c *tcpConn) do(req *tcpRequest, msgs []Msg, timeout time.Duration) (tcpResponse, []Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if timeout > 0 {
		c.c.SetDeadline(time.Now().Add(timeout))
		defer c.c.SetDeadline(time.Time{})
	}
	var payload []byte
	if len(msgs) > 0 {
		c.s.buf = AppendMsgs(c.s.buf[:0], msgs)
		payload = c.s.buf
	}
	req.PayloadLen = len(payload)
	if err := c.s.send(req, payload); err != nil {
		return tcpResponse{}, nil, err
	}
	var resp tcpResponse
	if err := c.s.dec.Decode(&resp); err != nil {
		return tcpResponse{}, nil, err
	}
	raw, err := c.s.recvPayload(resp.PayloadLen)
	if err != nil {
		return tcpResponse{}, nil, err
	}
	var out []Msg
	if len(raw) > 0 {
		if out, err = DecodeMsgs(nil, raw); err != nil {
			return tcpResponse{}, nil, err
		}
	}
	return resp, out, nil
}

const (
	tcpSend = iota
	tcpPull
	tcpGather
	tcpSignal
)

type tcpRequest struct {
	Kind  int
	Seq   uint64 // fabric-wide id: constant across retries, the dedup key
	Epoch int64  // sender's block-ownership epoch (0 = epoch-unaware)
	From  int
	To    int
	Step  int
	Block int
	// PayloadLen is the size of the raw payload following the envelope: a
	// push packet's messages as AppendMsgs encodes them.
	PayloadLen int
	Wire       int64
	IDs        []graph.VertexID
}

type tcpResponse struct {
	// PayloadLen is the size of the raw payload following the envelope: a
	// pull response's messages as AppendMsgs encodes them.
	PayloadLen int
	Wire       int64
	Results    []GatherResult
	Err        string
	// Stale rejects a request stamped with a pre-reassignment epoch: the
	// client must re-stamp against the current ownership table and re-route
	// (redial — the endpoint may have been rehomed). Never cached by the
	// dedup layer, so the re-routed retry under the same Seq is processed.
	Stale bool

	// payload is what PayloadLen counts. Unexported, so gob never sees it;
	// the serving side encodes it into bytes of its own per response,
	// because the dedup record keeps it for retries.
	payload []byte
}

// dedup is one serving worker's exactly-once filter: the first delivery of
// a sequence number runs the handler, every later delivery (a client retry
// or a duplicated packet) waits for and returns the recorded response.
type dedup struct {
	mu      sync.Mutex
	entries map[dedupKey]*dedupEntry
	order   []dedupKey
	bytes   int64        // response bytes the completed entries retain
	mHits   *obs.Counter // "comm.tcp.dedup_hits"; guarded by mu — serve
	// goroutines predate SetMetrics, so a bare field would race.
}

type dedupKey struct {
	from int
	seq  uint64
}

type dedupEntry struct {
	done  chan struct{}
	resp  tcpResponse
	bytes int64 // credited to dedup.bytes at completion, under dedup.mu
}

// dedupWindow and dedupMaxBytes bound remembered responses per worker, by
// count and by the bytes they pin (a completed pull entry holds its whole
// response). Retries arrive within milliseconds of the original, so a few
// thousand entries — or, for block-sized pull responses, the last few
// dozen — is far more history than any in-flight retry needs.
const (
	dedupWindow   = 4096
	dedupMaxBytes = 64 << 20
)

func newDedup() *dedup {
	return &dedup{entries: make(map[dedupKey]*dedupEntry)}
}

func (d *dedup) do(from int, seq uint64, process func() tcpResponse) tcpResponse {
	key := dedupKey{from, seq}
	d.mu.Lock()
	if e, ok := d.entries[key]; ok {
		d.mHits.Inc()
		d.mu.Unlock()
		<-e.done
		return e.resp
	}
	e := &dedupEntry{done: make(chan struct{})}
	d.entries[key] = e
	d.order = append(d.order, key)
	d.mu.Unlock()
	resp := process()
	d.mu.Lock()
	e.resp = resp
	e.bytes = int64(len(resp.payload)) + GatherResultsSize(resp.Results)
	d.bytes += e.bytes
	close(e.done)
	d.evict(key)
	d.mu.Unlock()
	return resp
}

// evict drops the oldest completed entries while a bound is exceeded.
// In-flight entries are re-queued, never dropped. So is keep, the entry
// that just completed — the retry most likely to arrive next is answered
// from the record whatever its size — and, under byte pressure alone, so
// are entries that pin nothing: dropping a Send's record would free no
// memory and let a late retry deliver its packet twice. Callers hold
// d.mu.
func (d *dedup) evict(keep dedupKey) {
	for scan := len(d.order); scan > 0; scan-- {
		overCount := len(d.order) > dedupWindow
		if !overCount && d.bytes <= dedupMaxBytes {
			return
		}
		old := d.order[0]
		d.order = d.order[1:]
		e := d.entries[old]
		if e == nil {
			continue
		}
		completed := false
		select {
		case <-e.done:
			completed = true
		default:
		}
		if completed && old != keep && (overCount || e.bytes > 0) {
			delete(d.entries, old)
			d.bytes -= e.bytes
			continue
		}
		d.order = append(d.order, old)
	}
}

// NewTCP starts listeners for n workers on loopback with default
// resilience settings. Callers must Close it.
func NewTCP(n int) (*TCP, error) { return NewTCPConfig(n, TCPConfig{}) }

// NewTCPConfig starts a TCP fabric with explicit resilience settings and
// optional injected transport faults.
func NewTCPConfig(n int, cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	f := &TCP{
		handlers: make(map[int]Handler, n),
		cfg:      cfg,
		in:       make([]atomic.Int64, n),
		out:      make([]atomic.Int64, n),
		jrng:     rand.New(rand.NewSource(1)),
	}
	f.epoch.Store(1)
	if cfg.Faults != nil {
		f.roller = cfg.Faults.NewRoller()
	}
	for w := 0; w < n; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		f.listeners = append(f.listeners, ln)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.peers = append(f.peers, &tcpPeer{})
		f.dedups = append(f.dedups, newDedup())
		go f.serve(w, ln)
	}
	return f, nil
}

// Close shuts the listeners and cached connections down. Safe to call
// while round trips are in flight: they fail fast instead of retrying
// against closed sockets.
func (f *TCP) Close() error {
	f.closed.Store(true)
	for _, ln := range f.listeners {
		ln.Close()
	}
	for _, p := range f.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.c.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	return nil
}

// SetMetrics wires the fabric's resilience counters into reg
// (obs.MetricsSetter). Call before the first superstep; a nil registry
// leaves metrics off.
func (f *TCP) SetMetrics(reg *obs.Registry) {
	f.mu.Lock()
	f.mRequests = reg.Counter("comm.tcp.requests")
	f.mRetries = reg.Counter("comm.tcp.retries")
	f.mRedials = reg.Counter("comm.tcp.redials")
	f.mStale = reg.Counter("comm.stale_epoch")
	f.mu.Unlock()
	for _, d := range f.dedups {
		d.mu.Lock()
		d.mHits = reg.Counter("comm.tcp.dedup_hits")
		d.mu.Unlock()
	}
	reg.RegisterFunc("comm.net_bytes", f.total.Load)
	// The physical twin of net_bytes: what the sockets carried, envelopes,
	// responses and retransmissions included.
	reg.RegisterFunc("comm.tcp.frame_bytes", f.frames.Load)
}

// SetContext implements ContextSetter: once ctx is cancelled, round trips
// in flight stop retrying, backoff sleeps abort, and new operations fail
// fast with the context's error.
func (f *TCP) SetContext(ctx context.Context) { f.ctx.SetContext(ctx) }

// Register implements Fabric.
func (f *TCP) Register(worker int, h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handlers[worker] = h
}

func (f *TCP) serve(worker int, ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go f.serveConn(worker, c)
	}
}

func (f *TCP) serveConn(worker int, c net.Conn) {
	defer c.Close()
	s := newTCPStream(c, &f.frames)
	// The decoded packet lives in msgs for the duration of one request:
	// handlers copy what they keep, so it is reused by the next.
	var msgs []Msg
	for {
		var req tcpRequest
		if err := s.dec.Decode(&req); err != nil {
			return
		}
		// Read before any early continue: the payload must leave the stream.
		raw, err := s.recvPayload(req.PayloadLen)
		if err != nil {
			return
		}
		// Epoch gate, BEFORE the dedup layer: a stale rejection must never
		// be recorded under the request's Seq, or the client's re-stamped
		// retry (same Seq) would be answered with the cached rejection
		// forever instead of being processed.
		if req.Epoch != 0 {
			if cur := f.epoch.Load(); req.Epoch < cur {
				f.mu.RLock()
				stale := f.mStale
				f.mu.RUnlock()
				stale.Inc()
				if err := s.send(&tcpResponse{Stale: true}, nil); err != nil {
					return
				}
				continue
			}
		}
		var d faultplan.Decision
		if f.roller != nil {
			d = f.roller.Roll()
		}
		if d.DropRequest {
			// The request is lost before the server processes it. On a
			// stream that is a broken connection: the client redials and
			// retries at once.
			return
		}
		process := func() tcpResponse {
			msgs = msgs[:0]
			if len(raw) > 0 {
				var err error
				if msgs, err = DecodeMsgs(msgs, raw); err != nil {
					return tcpResponse{Err: err.Error()}
				}
			}
			return f.process(&req, msgs)
		}
		resp := f.dedups[worker].do(req.From, req.Seq, process)
		if d.Duplicate {
			// The network delivered the request twice; the dedup layer must
			// absorb the copy without re-invoking the handler.
			f.dedups[worker].do(req.From, req.Seq, process)
		}
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.DropResponse {
			// Processed, but the response is lost to a broken connection:
			// the client's retry must be answered from the dedup record,
			// not re-applied.
			return
		}
		if err := s.send(&resp, resp.payload); err != nil {
			return
		}
	}
}

// process dispatches one deduplicated request to its destination worker's
// handler; msgs is the decoded payload of a push packet. Dispatch is by
// req.To, not by which listener the request arrived on: after a Rehome, a
// dead worker's traffic lands on the adopting host's listener but must
// still reach the adopted unit's handler.
func (f *TCP) process(req *tcpRequest, msgs []Msg) tcpResponse {
	var resp tcpResponse
	f.mu.RLock()
	h := f.handlers[req.To]
	f.mu.RUnlock()
	if h == nil {
		resp.Err = fmt.Sprintf("comm: no handler registered for worker %d", req.To)
		return resp
	}
	switch req.Kind {
	case tcpSend:
		p := &Packet{From: req.From, To: req.To, Step: req.Step, Msgs: msgs, WireBytes: req.Wire}
		if err := h.DeliverMessages(p); err != nil {
			resp.Err = err.Error()
		}
	case tcpPull:
		out, wire, err := h.RespondPull(req.Block, req.Step)
		if len(out) > 0 {
			// Encoded into bytes of its own: the dedup record outlives this
			// request, and out belongs to the handler.
			resp.payload = AppendMsgs(nil, out)
			resp.PayloadLen = len(resp.payload)
		}
		resp.Wire = wire
		if err != nil {
			resp.Err = err.Error()
		}
	case tcpGather:
		res, err := h.GatherValues(req.IDs, req.Step)
		resp.Results = res
		if err != nil {
			resp.Err = err.Error()
		}
	case tcpSignal:
		if err := h.DeliverSignals(req.IDs, req.Step); err != nil {
			resp.Err = err.Error()
		}
	default:
		resp.Err = fmt.Sprintf("comm: unknown request kind %d", req.Kind)
	}
	return resp
}

// Epoch implements Rehomer.
func (f *TCP) Epoch() int64 { return f.epoch.Load() }

// AdvanceEpoch implements Rehomer.
func (f *TCP) AdvanceEpoch() int64 { return f.epoch.Add(1) }

// Rehome implements Rehomer: traffic addressed to origin now dials the
// adopting host's endpoint. The dead endpoint's listener is closed, its
// cached client connection dropped so the next round trip redials, and
// its dedup history merged into the host's so a retry of a request the
// dead endpoint already applied — only its response lost — is still
// absorbed after the redial.
func (f *TCP) Rehome(origin, host int) {
	f.mu.Lock()
	f.addrs[origin] = f.addrs[host]
	f.mu.Unlock()
	if a, b := f.dedups[origin], f.dedups[host]; a != b {
		first, second := a, b
		if host < origin {
			first, second = b, a
		}
		first.mu.Lock()
		second.mu.Lock()
		for k, e := range a.entries {
			if _, ok := b.entries[k]; !ok {
				b.entries[k] = e
				b.order = append(b.order, k)
				b.bytes += e.bytes // zero while the entry is still in flight
			}
		}
		second.mu.Unlock()
		first.mu.Unlock()
	}
	f.listeners[origin].Close()
	p := f.peers[origin]
	p.mu.Lock()
	if p.conn != nil {
		p.conn.c.Close()
		p.conn = nil
	}
	p.mu.Unlock()
}

// dial returns a cached connection to worker w, dialing on demand. Only
// the destination's per-peer lock is held across the dial, so a slow or
// dead peer stalls nobody else.
func (f *TCP) dial(w int) (*tcpConn, error) {
	p := f.peers[w]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return p.conn, nil
	}
	if f.closed.Load() {
		return nil, errFabricClosed
	}
	f.mu.RLock()
	addr := f.addrs[w]
	f.mu.RUnlock()
	nc, err := net.DialTimeout("tcp", addr, f.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	f.mRedials.Inc()
	c := &tcpConn{c: nc, s: newTCPStream(nc, &f.frames)}
	p.conn = c
	return c, nil
}

// invalidate drops a broken connection so the next attempt redials.
func (f *TCP) invalidate(w int, c *tcpConn) {
	p := f.peers[w]
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.mu.Unlock()
	c.c.Close()
}

// roundTrip performs one at-most-once-applied, at-least-once-delivered
// request: transport failures retry with backoff over a fresh connection
// under the same sequence number; application-level errors surface
// immediately without retrying.
func (f *TCP) roundTrip(w int, req *tcpRequest, msgs []Msg) (*tcpResponse, []Msg, error) {
	if w < 0 || w >= len(f.addrs) {
		return nil, nil, fmt.Errorf("comm: no such worker %d", w)
	}
	req.Seq = f.seq.Add(1)
	f.mRequests.Inc()
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			f.mRetries.Inc()
			if err := f.sleepBackoff(attempt); err != nil {
				return nil, nil, err
			}
		}
		if err := f.ctx.err(); err != nil {
			return nil, nil, err
		}
		if f.closed.Load() {
			return nil, nil, errFabricClosed
		}
		c, err := f.dial(w)
		if err != nil {
			lastErr = err
			continue
		}
		resp, out, err := c.do(req, msgs, f.cfg.Timeout)
		if err != nil {
			lastErr = err
			f.invalidate(w, c)
			continue
		}
		if resp.Stale {
			// The receiver is ahead of us on block ownership: re-stamp with
			// the current epoch and re-route over a fresh dial (the endpoint
			// may have been rehomed under us).
			cur := f.epoch.Load()
			lastErr = &StaleEpochError{Sent: req.Epoch, Current: cur}
			req.Epoch = cur
			f.invalidate(w, c)
			continue
		}
		if resp.Err != "" {
			return nil, nil, errors.New(resp.Err)
		}
		return &resp, out, nil
	}
	return nil, nil, fmt.Errorf("comm: worker %d unreachable after %d attempts: %w",
		w, maxRetries+1, lastErr)
}

// sleepBackoff waits 2^(attempt-1)·retryBackoff, capped at 100ms, plus
// up to 100% jitter so synchronised retry storms spread out. A cancelled
// job context aborts the wait and returns its error.
func (f *TCP) sleepBackoff(attempt int) error {
	d := retryBackoff << uint(attempt-1)
	if max := 100 * time.Millisecond; d > max {
		d = max
	}
	f.jmu.Lock()
	j := time.Duration(f.jrng.Int63n(int64(d) + 1))
	f.jmu.Unlock()
	tm := time.NewTimer(d + j)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-f.ctx.done():
		return f.ctx.err()
	}
}

func (f *TCP) account(from, to int, bytes int64) {
	if from == to || from < 0 || to < 0 || from >= len(f.out) || to >= len(f.in) {
		return
	}
	f.out[from].Add(bytes)
	f.in[to].Add(bytes)
	f.total.Add(bytes)
}

// Send implements Fabric.
func (f *TCP) Send(p *Packet) error {
	if p.Epoch == 0 {
		p.Epoch = f.epoch.Load()
	}
	f.account(p.From, p.To, p.Bytes())
	_, _, err := f.roundTrip(p.To, &tcpRequest{Kind: tcpSend, Epoch: p.Epoch, From: p.From, To: p.To,
		Step: p.Step, Wire: p.WireBytes}, p.Msgs)
	return err
}

// PullRequest implements Fabric.
func (f *TCP) PullRequest(from, to, block, step int) ([]Msg, int64, error) {
	f.account(from, to, PullReqSize)
	resp, msgs, err := f.roundTrip(to, &tcpRequest{Kind: tcpPull, Epoch: f.epoch.Load(),
		From: from, To: to, Block: block, Step: step}, nil)
	if err != nil {
		return nil, 0, err
	}
	f.account(to, from, resp.Wire)
	return msgs, resp.Wire, nil
}

// Gather implements Fabric.
func (f *TCP) Gather(from, to int, ids []graph.VertexID, step int) ([]GatherResult, error) {
	f.account(from, to, int64(len(ids))*GatherIDSize)
	resp, _, err := f.roundTrip(to, &tcpRequest{Kind: tcpGather, Epoch: f.epoch.Load(),
		From: from, To: to, IDs: ids, Step: step}, nil)
	if err != nil {
		return nil, err
	}
	f.account(to, from, GatherResultsSize(resp.Results))
	return resp.Results, nil
}

// Signal implements Fabric.
func (f *TCP) Signal(from, to int, ids []graph.VertexID, step int) error {
	f.account(from, to, int64(len(ids))*GatherIDSize)
	_, _, err := f.roundTrip(to, &tcpRequest{Kind: tcpSignal, Epoch: f.epoch.Load(),
		From: from, To: to, IDs: ids, Step: step}, nil)
	return err
}

// Traffic implements Fabric.
func (f *TCP) Traffic(w int) (in, out int64) {
	return f.in[w].Load(), f.out[w].Load()
}

// TotalBytes implements Fabric.
func (f *TCP) TotalBytes() int64 { return f.total.Load() }
