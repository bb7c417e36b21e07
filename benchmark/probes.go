package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hybridgraph/internal/catalog"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/msgstore"
	"hybridgraph/internal/veblock"
	"hybridgraph/internal/vertexfile"
)

// sink receives something from every probed call, so the compiler cannot
// drop the call as dead.
var sink uint64

// prober times calls into the exported functions of each internal/
// layer with the workload's own data. Nothing here runs while a job is
// being timed.
type prober struct {
	r      *runner
	in     *instance
	dir    string
	parts  []graph.Partition
	layout *veblock.Layout
	cdc    codec.Codec
}

func newProber(r *runner) (*prober, error) {
	in := r.in
	parts := graph.RangePartition(in.g.NumVertices, numWorkers)
	layout, err := veblock.NewLayout(parts, in.entry.BlocksPer())
	if err != nil {
		return nil, err
	}
	cdc, err := codec.Lookup(in.wl.codec)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.dir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &prober{r: r, in: in, dir: dir, parts: parts, layout: layout, cdc: cdc}, nil
}

// Conversions from (work units done, time taken) to a reported value.
func perSecond(units float64, el time.Duration) float64   { return units / el.Seconds() }
func mbPerSecond(units float64, el time.Duration) float64 { return units / 1e6 / el.Seconds() }
func usPerUnit(units float64, el time.Duration) float64   { return 1e6 * el.Seconds() / units }
func nsPerUnit(units float64, el time.Duration) float64   { return 1e9 * el.Seconds() / units }
func msPerUnit(units float64, el time.Duration) float64   { return 1e3 * el.Seconds() / units }

// phase is one separately timed part of a probe pass.
type phase struct {
	metric string
	units  float64 // work units one pass performs in this phase
	conv   func(units float64, el time.Duration) float64
}

// measure runs pass, which adds the time it spent in each phase to el,
// in a loop of at least probeFor, probeRepeats times over, and records
// one sample per phase per repeat inside one probe/<name> span.
func (p *prober) measure(name string, phases []phase, pass func(el []time.Duration) error) error {
	sp := p.r.rec.begin("probe/"+name, p.r.root)
	defer p.r.rec.end(sp)
	sz := p.r.opt.size
	for rep := 0; rep < sz.probeRepeats; rep++ {
		el := make([]time.Duration, len(phases))
		passes := 0
		for start := time.Now(); passes == 0 || time.Since(start) < sz.probeFor; passes++ {
			if err := pass(el); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
		}
		for i, ph := range phases {
			p.r.lay.add(ph.metric, ph.conv(ph.units*float64(passes), el[i]))
		}
	}
	return nil
}

// timed wraps a single-phase pass.
func timed(fn func() error) func(el []time.Duration) error {
	return func(el []time.Duration) error {
		t0 := time.Now()
		err := fn()
		el[0] += time.Since(t0)
		return err
	}
}

func totalOps(s diskio.Snapshot) (ops, bytes int64) {
	for c := range s.Ops {
		ops += s.Ops[c]
		bytes += s.Bytes[c]
	}
	return ops, bytes
}

// run executes every layer probe in turn.
func (p *prober) run() error {
	bcastSeq, err := p.veblock()
	if err != nil {
		return err
	}
	msgs := p.inEdgeMsgs()
	for _, probe := range []func() error{
		p.adjstore,
		func() error { return p.vertexfile(bcastSeq) },
		func() error { return p.msgstore(msgs) },
		func() error { return p.comm(msgs) },
		p.codec,
		p.diskio,
		p.catalog,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// veblock sweeps every Eblock (j,i) of both workers' stores and returns
// the source-vertex sequence worker 0's sweep visits, which is the
// random-read sequence b-pull's Pull-Respond issues (V_rr).
func (p *prober) veblock() ([]graph.VertexID, error) {
	ct := &diskio.Counter{}
	stores := make([]*veblock.Store, numWorkers)
	for w := range stores {
		st, err := p.in.entry.OpenVE(w, ct, p.in.g, p.layout)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		stores[w] = st
	}
	var bcastSeq []graph.VertexID
	var frags, edges int64
	sweep := func(collect bool) error {
		frags, edges = 0, 0
		for w, st := range stores {
			for j := 0; j < st.LocalBlocks(); j++ {
				for i := 0; i < p.layout.NumBlocks(); i++ {
					stats, err := st.ScanEblock(j, i, func(src graph.VertexID, es []graph.Half) error {
						edges += int64(len(es))
						if collect && w == 0 {
							bcastSeq = append(bcastSeq, src)
						}
						return nil
					})
					if err != nil {
						return err
					}
					frags += int64(stats.Fragments)
				}
			}
		}
		sink += uint64(edges)
		return nil
	}
	if err := sweep(true); err != nil {
		return nil, err
	}
	ops, bytes := totalOps(ct.Snapshot())
	p.r.lay.add("veblock.scan_read_ops", float64(ops))
	p.r.lay.add("veblock.scan_bytes", float64(bytes))
	p.r.lay.add("veblock.fragments", float64(frags))
	err := p.measure("veblock.scan", []phase{{"veblock.scan_edges_per_s", float64(edges), perSecond}},
		timed(func() error { return sweep(false) }))
	return bcastSeq, err
}

// adjstore reads every vertex's edge run in id order, as push does.
func (p *prober) adjstore() error {
	ct := &diskio.Counter{}
	var edges int64
	pass := func() error {
		edges = 0
		var buf []graph.Half
		for w, part := range p.parts {
			st, err := p.in.entry.OpenAdj(w, ct, p.in.g, part)
			if err != nil {
				return err
			}
			for v := part.Lo; v < part.Hi; v++ {
				if buf, err = st.Edges(v, buf[:0]); err != nil {
					st.Close()
					return err
				}
				edges += int64(len(buf))
			}
			if err := st.Close(); err != nil {
				return err
			}
		}
		sink += uint64(edges)
		return nil
	}
	if err := pass(); err != nil {
		return err
	}
	ops, _ := totalOps(ct.Snapshot())
	p.r.lay.add("adjstore.read_ops", float64(ops))
	return p.measure("adjstore.edges", []phase{{"adjstore.edges_per_s", float64(edges), perSecond}}, timed(pass))
}

// vertexfile probes the update scan (ReadRange+WriteRange per Vblock)
// and Pull-Respond's per-source random reads on a store of worker 0's
// partition.
func (p *prober) vertexfile(bcastSeq []graph.VertexID) error {
	part := p.parts[0]
	recs := make([]vertexfile.Record, part.Len())
	for i := range recs {
		v := part.Lo + graph.VertexID(i)
		recs[i] = vertexfile.Record{ID: v, OutDeg: uint32(p.in.g.OutDegree(v)), Val: 1, Bcast: [2]float64{1, 1}}
	}
	ct := &diskio.Counter{}
	st, err := vertexfile.Create(filepath.Join(p.dir, "vertex.dat"), ct, part.Lo, recs)
	if err != nil {
		return err
	}
	defer st.Close()
	blocks := graph.BlockRanges(part, p.in.wl.blocksPer)
	err = p.measure("vertexfile.range", []phase{{"vertexfile.range_recs_per_s", float64(len(recs)), perSecond}},
		timed(func() error {
			for _, b := range blocks {
				blk := recs[b.Lo-part.Lo : b.Hi-part.Lo]
				if err := st.ReadRange(b.Lo, b.Hi, blk); err != nil {
					return err
				}
				if err := st.WriteRange(b.Lo, b.Hi, blk); err != nil {
					return err
				}
			}
			sink += uint64(recs[0].OutDeg)
			return nil
		}))
	if err != nil {
		return err
	}
	before := ct.Ops(diskio.RandRead)
	bcast := func() error {
		sum := 0.0
		for _, v := range bcastSeq {
			x, err := st.ReadBcast(v, 0)
			if err != nil {
				return err
			}
			sum += x
		}
		sink += uint64(sum)
		return nil
	}
	if err := bcast(); err != nil {
		return err
	}
	p.r.lay.add("vertexfile.bcast_read_ops", float64(ct.Ops(diskio.RandRead)-before))
	return p.measure("vertexfile.bcast", []phase{{"vertexfile.bcast_reads_per_s", float64(len(bcastSeq)), perSecond}},
		timed(bcast))
}

// inEdgeMsgs is one Always-Active superstep's inbox for worker 0: every
// in-edge of its partition as a message, in sender order.
func (p *prober) inEdgeMsgs() []comm.Msg {
	var msgs []comm.Msg
	for u := 0; u < p.in.g.NumVertices; u++ {
		for _, h := range p.in.g.OutEdges(graph.VertexID(u)) {
			if p.parts[0].Contains(h.Dst) {
				msgs = append(msgs, comm.Msg{Dst: h.Dst, Val: float64(h.Weight)})
			}
		}
	}
	return msgs
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// msgstore fills an Inbox at the workload's MsgBuf and codec, then drains
// it: push's receive side.
func (p *prober) msgstore(msgs []comm.Msg) error {
	ct := &diskio.Counter{}
	n := float64(len(msgs))
	var spilled int64
	pass := func(el []time.Duration) error {
		inbox := msgstore.NewInbox(filepath.Join(p.dir, "inbox.spill"), ct, p.in.msgBuf(), p.cdc)
		t0 := time.Now()
		for _, m := range msgs {
			if err := inbox.Add(m); err != nil {
				return err
			}
		}
		t1 := time.Now()
		spilled = inbox.Spilled()
		t2 := time.Now()
		out, err := inbox.Drain()
		el[0] += t1.Sub(t0)
		el[1] += time.Since(t2)
		sink += uint64(len(out))
		return err
	}
	a0 := totalAlloc()
	if err := pass(make([]time.Duration, 2)); err != nil {
		return err
	}
	p.r.lay.add("msgstore.alloc_bytes_per_msg", float64(totalAlloc()-a0)/n)
	p.r.lay.add("msgstore.spilled_msgs", float64(spilled))
	p.r.lay.add("msgstore.spill_write_ops", float64(ct.Ops(diskio.RandWrite)))
	return p.measure("msgstore.inbox", []phase{
		{"msgstore.add_msgs_per_s", n, perSecond},
		{"msgstore.drain_msgs_per_s", n, perSecond}}, pass)
}

// sinkHandler is the benchmark-owned receiving end of a fabric.
type sinkHandler struct {
	received int
	block    []comm.Msg // what one pull request returns
}

func (h *sinkHandler) DeliverMessages(pk *comm.Packet) error {
	h.received += len(pk.Msgs)
	return nil
}

func (h *sinkHandler) RespondPull(reqBlock, step int) ([]comm.Msg, int64, error) {
	return h.block, int64(len(h.block)) * comm.MsgWireSize, nil
}

func (h *sinkHandler) GatherValues(ids []graph.VertexID, step int) ([]comm.GatherResult, error) {
	return nil, nil
}

func (h *sinkHandler) DeliverSignals(ids []graph.VertexID, step int) error { return nil }

// comm sends worker 0's inbox from worker 1 through an Outbox on the
// workload's fabric, pulls one Vblock's worth of messages repeatedly,
// and measures what staging the same sends costs in allocation.
func (p *prober) comm(msgs []comm.Msg) error {
	var fabric comm.Fabric = comm.NewLocal(numWorkers)
	if p.in.wl.tcp {
		tcp, err := comm.NewTCP(numWorkers)
		if err != nil {
			return err
		}
		defer tcp.Close()
		fabric = tcp
	}
	vblock := p.layout.Blocks[0].Len()
	h := &sinkHandler{block: msgs[:min(vblock, len(msgs))]}
	for w := 0; w < numWorkers; w++ {
		fabric.Register(w, h)
	}
	n := float64(len(msgs))
	send := func(f comm.Fabric, add func(ob *comm.Outbox) error) error {
		ob := comm.NewOutbox(f, numWorkers, 1, 1, 0)
		if err := add(ob); err != nil {
			return err
		}
		return ob.Flush()
	}
	err := p.measure("comm.send", []phase{{"comm.send_msgs_per_s", n, perSecond}}, timed(func() error {
		err := send(fabric, func(ob *comm.Outbox) error {
			for _, m := range msgs {
				if err := ob.Add(0, m); err != nil {
					return err
				}
			}
			return nil
		})
		sink += uint64(h.received)
		return err
	}))
	if err != nil {
		return err
	}

	sp := p.r.rec.begin("probe/comm.pull", p.r.root)
	sz := p.r.opt.size
	for rep := 0; rep < sz.probeRepeats; rep++ {
		var rtts []float64
		for start := time.Now(); len(rtts) < 200 || (time.Since(start) < sz.probeFor && len(rtts) < 100000); {
			t0 := time.Now()
			got, _, err := fabric.PullRequest(1, 0, 0, 1)
			rtts = append(rtts, 1e6*time.Since(t0).Seconds())
			if err != nil {
				return fmt.Errorf("probe comm.pull: %w", err)
			}
			sink += uint64(len(got))
		}
		sort.Float64s(rtts)
		p.r.lay.add("comm.pull_rtt_p50_us", quantile(rtts, 0.5))
		p.r.lay.add("comm.pull_rtt_p90_us", quantile(rtts, 0.9))
	}
	p.r.rec.end(sp)

	// Staging is measured on an in-process fabric so the figure is the
	// Stage's and Outbox's own allocation, not the socket's.
	sp = p.r.rec.begin("probe/comm.stage", p.r.root)
	defer p.r.rec.end(sp)
	local := comm.NewLocal(numWorkers)
	local.Register(0, h)
	a0 := totalAlloc()
	err = send(local, func(ob *comm.Outbox) error {
		st := comm.NewStage(comm.ShardThreshold(4<<20, 1))
		for _, m := range msgs {
			st.Add(0, m)
		}
		return st.MergeInto(ob)
	})
	p.r.lay.add("comm.stage_alloc_bytes_per_msg", float64(totalAlloc()-a0)/n)
	p.r.lay.add("comm.wire_bytes_per_msg", float64(local.TotalBytes())/n)
	return err
}

// veImage returns the logical image of worker 0's VE-BLOCK file.
func (p *prober) veImage() ([]byte, error) {
	path := filepath.Join(p.in.catRoot, entryName, "w0", "veblock.dat")
	if codec.IsNone(p.cdc) {
		return os.ReadFile(path)
	}
	bf, err := codec.OpenBlockFile(path, &diskio.Counter{})
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	size, err := bf.Size()
	if err != nil {
		return nil, err
	}
	img := make([]byte, size)
	_, err = bf.ReadAtClass(img, 0, diskio.SeqRead)
	return img, err
}

// codec frames the VE image with the workload's codec (the identity
// frame under "none"), then reads it back through a BlockFile and
// round-trips spill records through a SpillFile.
func (p *prober) codec() error {
	img, err := p.veImage()
	if err != nil {
		return err
	}
	size := float64(len(img))
	var frames [][]byte
	var physical int
	err = p.measure("codec.frames", []phase{
		{"codec.encode_mb_per_s", size, mbPerSecond},
		{"codec.decode_mb_per_s", size, mbPerSecond}}, func(el []time.Duration) error {
		frames, physical = frames[:0], 0
		t0 := time.Now()
		for off := 0; off < len(img); off += codec.ChunkSize {
			f := codec.AppendFrame(nil, p.cdc, img[off:min(off+codec.ChunkSize, len(img))])
			frames = append(frames, f)
			physical += len(f)
		}
		t1 := time.Now()
		var chunk []byte
		for _, f := range frames {
			var err error
			if chunk, _, err = codec.DecodeFrame(chunk[:0], f); err != nil {
				return err
			}
			sink += uint64(len(chunk))
		}
		el[0] += t1.Sub(t0)
		el[1] += time.Since(t1)
		return nil
	})
	if err != nil {
		return err
	}
	p.r.lay.add("codec.ratio", size/float64(physical))

	ct := &diskio.Counter{}
	path := filepath.Join(p.dir, "image.blk")
	if err := codec.WriteBlockFile(path, ct, p.cdc, img); err != nil {
		return err
	}
	bf, err := codec.OpenBlockFile(path, ct)
	if err != nil {
		return err
	}
	defer bf.Close()
	page := make([]byte, diskio.PageSize)
	err = p.measure("codec.blockfile_seq", []phase{{"codec.blockfile_seq_mb_per_s", size, mbPerSecond}},
		timed(func() error {
			for off := 0; off+len(page) <= len(img); off += len(page) {
				if _, err := bf.ReadAtClass(page, int64(off), diskio.SeqRead); err != nil {
					return err
				}
				sink += uint64(page[0])
			}
			return nil
		}))
	if err != nil {
		return err
	}
	// Seeded random offsets across the whole image: most reads miss the
	// eight-chunk cache and decode a 64 KiB chunk for one page.
	rng := rand.New(rand.NewSource(p.r.opt.seed))
	offsets := make([]int64, 2000)
	for i := range offsets {
		offsets[i] = rng.Int63n(int64(len(img) - len(page) + 1))
	}
	err = p.measure("codec.blockfile_rand", []phase{{"codec.blockfile_rand_read_us", float64(len(offsets)), usPerUnit}},
		timed(func() error {
			for _, off := range offsets {
				if _, err := bf.ReadAtClass(page, off, diskio.RandRead); err != nil {
					return err
				}
				sink += uint64(page[0])
			}
			return nil
		}))
	if err != nil {
		return err
	}

	const spillRecs = 100000
	var rec [comm.MsgWireSize]byte
	back := make([]byte, spillRecs*len(rec))
	sf := codec.NewSpillFile(filepath.Join(p.dir, "probe.spill"), ct, p.cdc)
	return p.measure("codec.spill", []phase{{"codec.spill_append_recs_per_s", spillRecs, perSecond}},
		timed(func() error {
			for i := 0; i < spillRecs; i++ {
				rec[0], rec[1], rec[2] = byte(i), byte(i>>8), byte(i>>16)
				if err := sf.Append(rec[:]); err != nil {
					return err
				}
			}
			if err := sf.ReadAll(back); err != nil {
				return err
			}
			sink += uint64(back[len(back)-1])
			return sf.Close()
		}))
}

// diskio measures the floor under every store: one accounted syscall per
// small write or page read, and the same charges with no file behind.
func (p *prober) diskio() error {
	const ops = 10000
	ct := &diskio.Counter{}
	var rec [comm.MsgWireSize]byte
	path := filepath.Join(p.dir, "ops.dat")
	err := p.measure("diskio.write", []phase{{"diskio.write_op_us", ops, usPerUnit}}, timed(func() error {
		f, err := diskio.Create(path, ct)
		if err != nil {
			return err
		}
		for i := int64(0); i < ops; i++ {
			if _, err := f.WriteAtClass(rec[:], i*int64(len(rec)), diskio.RandWrite); err != nil {
				f.Close()
				return err
			}
		}
		return f.Close()
	}))
	if err != nil {
		return err
	}
	f, err := diskio.Open(path, ct)
	if err != nil {
		return err
	}
	defer f.Close()
	page := make([]byte, diskio.PageSize)
	pages := int64(ops*len(rec)) / diskio.PageSize
	err = p.measure("diskio.read", []phase{{"diskio.read_op_us", ops, usPerUnit}}, timed(func() error {
		for i := int64(0); i < ops; i++ {
			if _, err := f.ReadAtClass(page, (i%pages)*diskio.PageSize, diskio.SeqRead); err != nil {
				return err
			}
			sink += uint64(page[0])
		}
		return nil
	}))
	if err != nil {
		return err
	}
	return p.measure("diskio.accountant", []phase{{"diskio.accountant_op_ns", ops, nsPerUnit}}, timed(func() error {
		acct := diskio.NewAccountant(ct)
		for i := int64(0); i < ops; i++ {
			acct.WriteAtClass(int64(len(rec)), i*int64(len(rec)), diskio.RandWrite)
		}
		sink += uint64(ct.Ops(diskio.RandWrite))
		return nil
	}))
}

// catalog opens the entry the way a fresh process would: manifest, CRC
// of every file, edge list.
func (p *prober) catalog() error {
	var layoutBytes int64
	for name, f := range p.in.entry.Manifest().Files {
		if name != "graph.el" {
			layoutBytes += f.Size
		}
	}
	p.r.lay.add("catalog.bytes_per_edge", float64(layoutBytes)/float64(p.in.g.NumEdges()))
	return p.measure("catalog.entry_open", []phase{{"catalog.entry_open_ms", 1, msPerUnit}}, timed(func() error {
		cat, err := catalog.Open(p.in.catRoot)
		if err != nil {
			return err
		}
		e, err := cat.Entry(entryName)
		if err != nil {
			return err
		}
		sink += uint64(e.Graph().NumEdges())
		return nil
	}))
}
