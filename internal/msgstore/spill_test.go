package msgstore

import (
	"errors"
	"path/filepath"
	"testing"

	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
)

func seqMsgs(n int) []comm.Msg {
	msgs := make([]comm.Msg, n)
	for i := range msgs {
		msgs[i] = comm.Msg{Dst: graph.VertexID(i % 97), Val: float64(i)}
	}
	return msgs
}

// The raw spill moves bytes a buffer at a time but must charge exactly
// what one write per record charged: the counter (bytes, device bytes,
// ops) and its physical twin after Add×n+Drain equal a per-record
// sequence replayed through a bare Accountant, at every capacity and on
// every reuse of the inbox.
func TestSpillChargesPerRecord(t *testing.T) {
	const n = 3*spillBufSize/recSize + 17
	msgs := seqMsgs(n)
	for _, capacity := range []int{-1, 1, n / 10} {
		var ct, phys diskio.Counter
		ct.SetPhys(&phys)
		reg := obs.NewRegistry()
		b := NewInbox(filepath.Join(t.TempDir(), "spill.dat"), &ct, capacity, nil)
		b.SetMetrics(reg)

		var want diskio.Counter
		var wantFlushes int64
		for cycle := 0; cycle < 2; cycle++ {
			if err := b.AddAll(msgs); err != nil {
				t.Fatal(err)
			}
			spilled := b.Spilled()
			if wantSpilled := int64(n - max(capacity, 0)); spilled != wantSpilled {
				t.Fatalf("capacity %d: spilled %d, want %d", capacity, spilled, wantSpilled)
			}
			out, err := b.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if got := int(out.Msgs()); got != n {
				t.Fatalf("capacity %d: drained %d messages, want %d", capacity, got, n)
			}

			ref := diskio.NewAccountant(&want) // each cycle spills to a fresh file
			for i := int64(0); i < spilled; i++ {
				ref.WriteAtClass(recSize, i*recSize, diskio.RandWrite)
			}
			ref.ReadAtClass(spilled*recSize, 0, diskio.SeqRead)
			wantFlushes += (spilled*recSize + spillBufSize - 1) / spillBufSize
		}
		if ct.Snapshot() != want.Snapshot() {
			t.Errorf("capacity %d: charged %+v, per-record reference %+v", capacity, ct.Snapshot(), want.Snapshot())
		}
		if phys.Snapshot() != want.Snapshot() {
			t.Errorf("capacity %d: physical twin %+v, want the logical charges %+v", capacity, phys.Snapshot(), want.Snapshot())
		}
		if got := reg.Counter("msgstore.spill_flushes").Value(); got != wantFlushes {
			t.Errorf("capacity %d: %d flushes, want %d", capacity, got, wantFlushes)
		}
	}
}

// Pending must see records that are charged but still in the staging
// buffer, in arrival order, and leave the inbox drainable.
func TestPendingSeesStagedRecords(t *testing.T) {
	b, _ := newInbox(t, 2)
	msgs := seqMsgs(10)
	if err := b.AddAll(msgs); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := b.Pending()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(msgs) {
			t.Fatalf("Pending returned %d messages, want %d", len(got), len(msgs))
		}
		for i := range msgs {
			if got[i] != msgs[i] {
				t.Fatalf("Pending[%d] = %+v, want %+v", i, got[i], msgs[i])
			}
		}
	}
	if err := b.Add(comm.Msg{Dst: 1, Val: 99}); err != nil {
		t.Fatal(err)
	}
	out, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n := int(out.Msgs()); n != len(msgs)+1 {
		t.Fatalf("drained %d messages after Pending, want %d", n, len(msgs)+1)
	}
}

func checkFlushFault(t *testing.T, err error, kind diskio.Kind, path string) {
	t.Helper()
	var de *diskio.Error
	if !errors.Is(err, diskio.ErrDiskFault) || !errors.As(err, &de) {
		t.Fatalf("flush fault is not a typed disk fault: %v", err)
	}
	if de.Kind != kind || de.Op != "write" || de.Class != diskio.RandWrite.String() || de.Path != path {
		t.Fatalf("flush fault = %+v, want a %s rand-write on %s", de, kind, path)
	}
}

// A torn flush must fail the call that flushed — an Add once the buffer
// is full, otherwise the Drain — and never yield a short spill: the
// staged records survive the failure and the retry returns every message.
func TestSpillFlushFaultSurfacesTyped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.dat")
	diskio.Install(dir, diskio.NewFaultFS(diskio.FaultConfig{Seed: 1, TornWrite: 1, MaxFaults: 1}))
	defer diskio.Uninstall(dir)

	var ct diskio.Counter
	b := NewInbox(path, &ct, -1, nil)
	msgs := seqMsgs(5)
	if err := b.AddAll(msgs); err != nil {
		t.Fatalf("Add before any flush: %v", err)
	}
	_, err := b.Drain()
	checkFlushFault(t, err, diskio.KindTornWrite, path)
	out, err := b.Drain()
	if err != nil {
		t.Fatalf("retried Drain: %v", err)
	}
	if n := int(out.Msgs()); n != len(msgs) {
		t.Fatalf("retried Drain returned %d messages, want %d", n, len(msgs))
	}

	// With more than a bufferful, the Add that needs the room reports it.
	diskio.Install(dir, diskio.NewFaultFS(diskio.FaultConfig{Seed: 1, TornWrite: 1}))
	full := spillBufSize / recSize
	for i, m := range seqMsgs(full + 1) {
		err := b.Add(m)
		if i < full {
			if err != nil {
				t.Fatalf("Add %d: %v", i, err)
			}
			continue
		}
		checkFlushFault(t, err, diskio.KindTornWrite, path)
	}
	if got := b.Spilled(); got != int64(full) {
		t.Fatalf("Spilled = %d after a refused Add, want %d", got, full)
	}
	if got := ct.Ops(diskio.RandWrite); got != int64(len(msgs)+full) {
		t.Fatalf("charged %d spill writes, want %d (the refused record must not be charged)", got, len(msgs)+full)
	}
}

// ENOSPC at flush time: create and write draw from the same dice, so
// sweep seeds until one lets the create through and refuses the flush.
func TestSpillFlushENOSPC(t *testing.T) {
	msgs := seqMsgs(5)
	sawFlushFault := false
	for seed := int64(1); seed <= 32 && !sawFlushFault; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "spill.dat")
		diskio.Install(dir, diskio.NewFaultFS(diskio.FaultConfig{Seed: seed, WriteENOSPC: 0.5, MaxFaults: 1}))
		var ct diskio.Counter
		b := NewInbox(path, &ct, -1, nil)
		if err := b.AddAll(msgs); err != nil {
			if !errors.Is(err, diskio.ErrDiskFault) {
				t.Fatalf("seed %d: untyped create failure: %v", seed, err)
			}
		} else if _, err := b.Drain(); err != nil {
			checkFlushFault(t, err, diskio.KindENOSPC, path)
			sawFlushFault = true
		}
		diskio.Uninstall(dir)
	}
	if !sawFlushFault {
		t.Fatal("no seed refused a flush: the sweep has no teeth")
	}
}
