package durable

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/multistage"
	"repro/internal/wdm"
)

func testMeta() Meta {
	return Meta{
		Params:   multistage.Params{N: 16, K: 2, R: 4, M: 7, Model: wdm.MSW, Construction: multistage.MSWDominant},
		Replicas: 2,
	}
}

func testOptions(t *testing.T, dir string) Options {
	t.Helper()
	return Options{
		Dir:       dir,
		SyncDelay: -1, // sync every batch immediately: deterministic tests
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

func route(conn string) *multistage.RouteRecord {
	return &multistage.RouteRecord{
		Conn: conn,
		In:   []multistage.RouteLeg{{Middle: 0, Wave: 0}},
		Out:  []multistage.RouteHop{{Middle: 0, Out: 1, Wave: 1}},
	}
}

func mustOpen(t *testing.T, dir string) (*Plane, *Recovery) {
	t.Helper()
	p, rec, err := Open(testOptions(t, dir), testMeta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return p, rec
}

func mustAppend(t *testing.T, p *Plane, rec *Record) uint64 {
	t.Helper()
	seq, err := p.Append(rec)
	if err != nil {
		t.Fatalf("Append %s: %v", rec.Op, err)
	}
	return seq
}

// TestFrameBytesPinned pins the on-disk frame: little-endian length,
// then the CRC32C of the payload (0xe3069283 is the polynomial's
// published check value for "123456789"), then the payload.
func TestFrameBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, []byte("123456789")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{9, 0, 0, 0, 0x83, 0x92, 0x06, 0xe3}, "123456789"...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame = % x, want % x", buf.Bytes(), want)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, rec := mustOpen(t, dir)
	if len(rec.Sessions) != 0 || rec.LastSeq != 0 {
		t.Fatalf("fresh recovery not empty: %+v", rec)
	}
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Fabric: 0, Route: route("0.0>5.0")})
	mustAppend(t, p, &Record{Op: OpConnect, Session: 2, Fabric: 1, Route: route("1.0>6.0,9.0")})
	mustAppend(t, p, &Record{Op: OpBranch, Session: 1, Fabric: 0, Branches: 1, Route: route("0.0>5.0,8.0")})
	mustAppend(t, p, &Record{Op: OpConnect, Session: 3, Fabric: 0, Route: route("2.0>7.0")})
	mustAppend(t, p, &Record{Op: OpDisconnect, Session: 3})
	mustAppend(t, p, &Record{Op: OpFail, Fabric: 1, Middle: 2, Migrated: []SessionRoute{
		{Session: 2, Fabric: 1, Migrations: 1, Route: *route("1.0>6.0,9.0")},
	}})
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2, rec2 := mustOpen(t, dir)
	defer p2.Close()
	if got := len(rec2.Sessions); got != 2 {
		t.Fatalf("recovered %d sessions, want 2: %+v", got, rec2.Sessions)
	}
	if rec2.Sessions[0].Session != 1 || rec2.Sessions[0].Branches != 1 {
		t.Errorf("session 1 state wrong: %+v", rec2.Sessions[0])
	}
	if rec2.Sessions[1].Session != 2 || rec2.Sessions[1].Migrations != 1 {
		t.Errorf("session 2 state wrong: %+v", rec2.Sessions[1])
	}
	if want := map[int][]int{1: {2}}; !reflect.DeepEqual(rec2.Failed, want) {
		t.Errorf("failed middles = %v, want %v", rec2.Failed, want)
	}
	if rec2.NextSession != 3 {
		t.Errorf("NextSession = %d, want 3", rec2.NextSession)
	}
	if rec2.Sealed {
		t.Errorf("unsealed log recovered as sealed")
	}
	if rec2.Truncated != nil {
		t.Errorf("clean log reported truncation: %v", rec2.Truncated)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SyncDelay = time.Millisecond
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const workers, per = 8, 40
	var wg sync.WaitGroup
	seqs := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := p.Append(&Record{Op: OpConnect, Session: uint64(w*per + i + 1), Route: route("0.0>5.0")})
				if err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	// +1 for the meta record.
	if st.Appends != workers*per+1 {
		t.Errorf("appends = %d, want %d", st.Appends, workers*per+1)
	}
	if st.SyncedSeq != st.LastSeq {
		t.Errorf("synced %d lags last %d after all appends acked", st.SyncedSeq, st.LastSeq)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Errorf("syncs = %d with %d appends", st.Syncs, st.Appends)
	}
	seen := make(map[uint64]bool)
	for _, s := range seqs {
		for _, q := range s {
			if seen[q] {
				t.Fatalf("duplicate sequence %d", q)
			}
			seen[q] = true
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := mustOpen(t, dir)
	if len(rec.Sessions) != workers*per {
		t.Errorf("recovered %d sessions, want %d", len(rec.Sessions), workers*per)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 40
	for i := 1; i <= n; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	_, rec := mustOpen(t, dir)
	if len(rec.Sessions) != n {
		t.Errorf("recovered %d sessions across segments, want %d", len(rec.Sessions), n)
	}
}

// corruptTail flips one byte inside the final record's payload of the
// last segment and returns the expected truncation offset (the start
// of that record's frame).
func corruptTail(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	tail := segs[len(segs)-1]
	wi, err := walkLog([]segmentInfo{tail}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wi.records == 0 {
		t.Fatal("tail segment has no records to corrupt")
	}
	// Find the final frame's start by rescanning and keeping the
	// previous offset.
	f, err := os.ReadFile(tail.path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk frames to the last one.
	off := int64(len(segmentMagic))
	last := off
	for off < wi.tailEnd {
		length := int64(uint32(f[off]) | uint32(f[off+1])<<8 | uint32(f[off+2])<<16 | uint32(f[off+3])<<24)
		last = off
		off += frameHeader + length
	}
	f[last+frameHeader+2] ^= 0x40 // flip a payload bit
	if err := os.WriteFile(tail.path, f, 0o644); err != nil {
		t.Fatal(err)
	}
	return tail.name, last
}

func TestCorruptedTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	for i := 1; i <= 5; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	seg, wantOff := corruptTail(t, dir)

	// Verify (read-only) must report the same offset recovery cuts at.
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Clean || rep.Truncated == nil {
		t.Fatalf("Verify missed the corruption: %+v", rep)
	}
	if rep.Truncated.Segment != seg || rep.Truncated.Offset != wantOff {
		t.Errorf("Verify truncation %s@%d, want %s@%d", rep.Truncated.Segment, rep.Truncated.Offset, seg, wantOff)
	}
	if !strings.Contains(rep.Truncated.Reason, "crc mismatch") {
		t.Errorf("reason %q, want crc mismatch", rep.Truncated.Reason)
	}

	p2, rec := mustOpen(t, dir)
	if rec.Truncated == nil || rec.Truncated.Offset != wantOff || rec.Truncated.Segment != seg {
		t.Fatalf("recovery truncation = %+v, want %s@%d", rec.Truncated, seg, wantOff)
	}
	if len(rec.Sessions) != 4 {
		t.Errorf("recovered %d sessions after cut, want 4", len(rec.Sessions))
	}
	// The log must be writable and clean after the cut.
	mustAppend(t, p2, &Record{Op: OpConnect, Session: 9, Route: route("3.0>5.0")})
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Errorf("log still dirty after recovery: %+v", rep.Truncated)
	}
	if rep.Sessions != 5 {
		t.Errorf("sessions after re-append = %d, want 5", rep.Sessions)
	}
}

func TestCorruptedTailTornRecord(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	for i := 1; i <= 4; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	tail := segs[len(segs)-1]
	fi, err := os.Stat(tail.path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-payload, as a crash mid-write would.
	if err := os.Truncate(tail.path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	wi, err := walkLog([]segmentInfo{tail}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOff := wi.truncated.Offset

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || rep.Truncated.Offset != wantOff || !strings.Contains(rep.Truncated.Reason, "torn") {
		t.Fatalf("Verify = %+v, want torn at %d", rep.Truncated, wantOff)
	}

	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if rec.Truncated == nil || rec.Truncated.Offset != wantOff {
		t.Fatalf("recovery truncation = %+v, want offset %d", rec.Truncated, wantOff)
	}
	if len(rec.Sessions) != 3 {
		t.Errorf("recovered %d sessions, want 3 (torn 4th dropped)", len(rec.Sessions))
	}
	fi, err = os.Stat(tail.path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != wantOff {
		t.Errorf("tail size after truncation = %d, want %d", fi.Size(), wantOff)
	}
}

// TestTornMagicTailRecovery covers a crash that tears the tail
// segment inside its magic header: recovery must not leave a
// headerless husk open for appends, because the next recovery would
// read it as "bad segment magic" at offset 0 and destroy every record
// acked in between.
func TestTornMagicTailRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}
	tail := segs[len(segs)-1]
	// Tear the tail mid-magic, as a crash right after rotation would.
	if err := os.Truncate(tail.path, 3); err != nil {
		t.Fatal(err)
	}

	p2, rec := mustOpen(t, dir)
	if rec.Truncated == nil || rec.Truncated.Segment != tail.name || rec.Truncated.Offset != 0 {
		t.Fatalf("truncation = %+v, want %s@0", rec.Truncated, tail.name)
	}
	survivors := len(rec.Sessions)
	// Records acked after this recovery must survive the next one.
	mustAppend(t, p2, &Record{Op: OpConnect, Session: 100, Route: route("1.0>6.0")})
	mustAppend(t, p2, &Record{Op: OpConnect, Session: 101, Route: route("2.0>7.0")})
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("log dirty after recovery + append: %+v", rep.Truncated)
	}
	p3, rec2 := mustOpen(t, dir)
	defer p3.Close()
	if rec2.Truncated != nil {
		t.Fatalf("second recovery truncated: %v", rec2.Truncated)
	}
	if len(rec2.Sessions) != survivors+2 {
		t.Errorf("recovered %d sessions, want %d (post-recovery appends lost)", len(rec2.Sessions), survivors+2)
	}
}

// TestTruncationBehindSnapshotRotates covers a corrupt frame at a
// sequence the snapshot already covers: resuming appends inside the
// truncated segment would leave a sequence gap that the next
// recovery's discontinuity check cuts at, silently discarding every
// record acked in between. Recovery must rotate to a fresh segment
// instead, and later scans must accept the snapshot-covered jump.
func TestTruncationBehindSnapshotRotates(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	for i := 1; i <= 5; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	st := NewState()
	for i := 1; i <= 5; i++ {
		st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
	}
	st.NextSession = 5
	if err := p.WriteSnapshot(&Snapshot{
		LastSeq:     p.SyncedSeq(),
		NextSession: st.NextSession,
		Sessions:    st.SessionList(),
	}); err != nil {
		t.Fatal(err)
	}
	snapSeq := p.SyncedSeq()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the final record — a frame at a sequence at/below
	// the snapshot's LastSeq.
	corruptTail(t, dir)

	p2, rec := mustOpen(t, dir)
	if rec.Truncated == nil {
		t.Fatal("corruption not detected")
	}
	if rec.SnapshotSeq != snapSeq {
		t.Fatalf("SnapshotSeq = %d, want %d", rec.SnapshotSeq, snapSeq)
	}
	if len(rec.Sessions) != 5 {
		t.Fatalf("recovered %d sessions, want 5 (snapshot covers the cut record)", len(rec.Sessions))
	}
	mustAppend(t, p2, &Record{Op: OpConnect, Session: 6, Route: route("1.0>6.0")})
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("snapshot-covered boundary jump misread as corruption: %+v", rep.Truncated)
	}
	p3, rec2 := mustOpen(t, dir)
	defer p3.Close()
	if rec2.Truncated != nil {
		t.Fatalf("second recovery truncated: %v", rec2.Truncated)
	}
	if len(rec2.Sessions) != 6 {
		t.Errorf("recovered %d sessions, want 6 (post-recovery append lost)", len(rec2.Sessions))
	}
}

// TestSnapshotFallbackKeepsLogCoverage: the older retained snapshot is
// only a usable fallback if the log still holds every record past ITS
// LastSeq — pruning against the newest snapshot would silently lose
// the sessions recorded between the two generations.
func TestSnapshotFallbackKeepsLogCoverage(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512 // force rotation so pruning has segments to eat
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	writeSnap := func(n int) {
		t.Helper()
		st := NewState()
		for i := 1; i <= n; i++ {
			st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
		}
		st.NextSession = uint64(n)
		if err := p.WriteSnapshot(&Snapshot{
			LastSeq:     p.SyncedSeq(),
			NextSession: st.NextSession,
			Sessions:    st.SessionList(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 15; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	writeSnap(15)
	// Sessions recorded between the two generations: the newest
	// snapshot covers them, the fallback needs the log for them.
	for i := 16; i <= 30; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	writeSnap(30)
	mustAppend(t, p, &Record{Op: OpConnect, Session: 31, Route: route("1.0>6.0")})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := listSnapshots(dir)
	if len(snaps) != keepSnapshots {
		t.Fatalf("%d snapshots retained, want %d", len(snaps), keepSnapshots)
	}
	// Corrupt the newest snapshot; recovery must fall back to the older
	// generation without losing sessions 16..30.
	b, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x01
	if err := os.WriteFile(snaps[0].path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if rec.SnapshotSeq == 0 {
		t.Fatal("fallback snapshot not used")
	}
	if len(rec.Sessions) != 31 {
		t.Errorf("fallback recovered %d sessions, want 31 (records between generations pruned away?)", len(rec.Sessions))
	}
}

func TestSealAndCleanRecovery(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Route: route("0.0>5.0")})
	mustAppend(t, p, &Record{Op: OpDisconnect, Session: 1})
	if err := p.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := p.Append(&Record{Op: OpConnect, Session: 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after seal = %v, want ErrClosed", err)
	}
	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if !rec.Sealed {
		t.Error("sealed log not recovered as sealed")
	}
	if len(rec.Sessions) != 0 {
		t.Errorf("sealed log recovered %d sessions, want 0", len(rec.Sessions))
	}
	if rec.NextSession != 1 {
		t.Errorf("NextSession = %d, want 1", rec.NextSession)
	}
}

func TestCrashDropsUnackedKeepsAcked(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SyncDelay = time.Second // hold the batch open so the crash hits it
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	// The meta record rides the first slow batch; wait it out.
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	seqs := make(chan uint64, 1)
	errs := make(chan error, 1)
	go func() {
		seq, err := p.Append(&Record{Op: OpConnect, Session: 7, Route: route("0.0>5.0")})
		seqs <- seq
		errs <- err
	}()
	// Give the append time to buffer the frame, then crash before the
	// 1s group-commit window closes.
	time.Sleep(50 * time.Millisecond)
	p.Crash()
	<-seqs
	if err := <-errs; !errors.Is(err, ErrCrashed) {
		t.Fatalf("in-flight append after crash = %v, want ErrCrashed", err)
	}
	if _, err := p.Append(&Record{Op: OpConnect, Session: 8}); !errors.Is(err, ErrCrashed) {
		t.Errorf("append after crash = %v, want ErrCrashed", err)
	}

	_, rec := mustOpen(t, dir)
	if len(rec.Sessions) != 0 {
		t.Errorf("unacked session survived the crash: %+v", rec.Sessions)
	}
	if rec.Truncated != nil {
		t.Errorf("crash with dropped buffer left a dirty log: %v", rec.Truncated)
	}
}

func TestSnapshotRecoveryAndPruning(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512 // force rotation so pruning has segments to eat
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	before, _ := listSegments(dir)
	if len(before) < 3 {
		t.Fatalf("rotation produced %d segments, need >= 3 for a pruning test", len(before))
	}
	st := NewState()
	for i := 1; i <= 30; i++ {
		st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
	}
	st.NextSession = 30
	if err := p.WriteSnapshot(&Snapshot{
		LastSeq:     p.SyncedSeq(),
		NextSession: st.NextSession,
		Sessions:    st.SessionList(),
		Failed:      st.FailedList(),
	}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Tail records past the snapshot.
	mustAppend(t, p, &Record{Op: OpDisconnect, Session: 30})
	mustAppend(t, p, &Record{Op: OpConnect, Session: 31, Route: route("1.0>6.0")})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Covered segments are pruned; the segment that was active at
	// snapshot time is kept (it is the append tail) and may have
	// rotated once since.
	segs, _ := listSegments(dir)
	if len(segs) > 2 {
		t.Errorf("pruning left %d segments, want <= 2 (had %d)", len(segs), len(before))
	}

	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if rec.SnapshotSeq == 0 {
		t.Error("recovery ignored the snapshot")
	}
	if len(rec.Sessions) != 30 { // 30 connects - 1 disconnect + 1 connect
		t.Errorf("recovered %d sessions, want 30", len(rec.Sessions))
	}
	if rec.NextSession != 31 {
		t.Errorf("NextSession = %d, want 31", rec.NextSession)
	}
	found := false
	for _, s := range rec.Sessions {
		if s.Session == 30 {
			t.Error("disconnected session 30 survived snapshot+tail replay")
		}
		if s.Session == 31 {
			found = true
		}
	}
	if !found {
		t.Error("tail session 31 lost")
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	for i := 1; i <= 3; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	snap := &Snapshot{LastSeq: p.SyncedSeq(), NextSession: 3}
	st := NewState()
	for i := 1; i <= 3; i++ {
		st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
	}
	snap.Sessions = st.SessionList()
	if err := p.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) == 0 {
		t.Fatal("no snapshot written")
	}
	// Flip a byte inside the snapshot payload.
	b, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x01
	if err := os.WriteFile(snaps[0].path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir)
	if rec.SnapshotSeq != 0 {
		t.Errorf("corrupt snapshot was trusted (SnapshotSeq=%d)", rec.SnapshotSeq)
	}
	if len(rec.Sessions) != 3 {
		t.Errorf("fallback replay recovered %d sessions, want 3", len(rec.Sessions))
	}
}

func TestMetaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Route: route("0.0>5.0")})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	other := testMeta()
	other.Params.N = 32
	if _, _, err := Open(testOptions(t, dir), other); err == nil {
		t.Fatal("Open accepted a log recorded for a different fabric")
	} else if !strings.Contains(err.Error(), "different fabric") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestReadStateOffline(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Fabric: 1, Route: route("0.0>5.0")})
	mustAppend(t, p, &Record{Op: OpFail, Fabric: 1, Middle: 3})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	state, meta, rep, err := ReadState(dir)
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if meta == nil || !meta.Compatible(testMeta()) {
		t.Errorf("meta = %+v, want %+v", meta, testMeta())
	}
	if len(state.Sessions) != 1 || !state.Failed[1][3] {
		t.Errorf("state = %d sessions, failed %v", len(state.Sessions), state.FailedList())
	}
	if !rep.Clean {
		t.Errorf("clean log reported dirty: %+v", rep.Truncated)
	}
	var ops []string
	if _, err := WalkRecords(dir, func(r *Record) bool {
		ops = append(ops, r.Op)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{OpMeta, OpConnect, OpFail}
	if !reflect.DeepEqual(ops, want) {
		t.Errorf("walked ops %v, want %v", ops, want)
	}
}

// TestSegmentCleanupFile ensures the quarantine path renames segments
// past a mid-log corruption instead of silently replaying them.
func TestQuarantineBeyondCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Corrupt the magic of the middle segment: everything after it must
	// be quarantined, not replayed.
	mid := segs[1]
	b, _ := os.ReadFile(mid.path)
	b[0] ^= 0xff
	if err := os.WriteFile(mid.path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if rec.Truncated == nil || rec.Truncated.Segment != mid.name || rec.Truncated.Offset != 0 {
		t.Fatalf("truncation = %+v, want %s@0", rec.Truncated, mid.name)
	}
	left, _ := listSegments(dir)
	if len(left) != 2 {
		t.Errorf("%d segments remain, want 2 (first intact + truncated middle)", len(left))
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(quarantined) != len(segs)-2 {
		t.Errorf("%d quarantined files, want %d", len(quarantined), len(segs)-2)
	}
}
