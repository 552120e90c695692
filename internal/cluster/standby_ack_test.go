package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/switchd/client"
)

// TestStandbyHeartbeatAckCoversBufferedRecord pins the semi-sync ack
// when a heartbeat arrives in the same read as a record. The standby
// defers a record's ack while more bytes are buffered, so the heartbeat
// behind it must acknowledge that record; otherwise the primary's
// Commit waits out the sync timeout and semi-sync degrades to async.
//
// A proxy between primary and standby holds every record frame until
// the next heartbeat and writes the two in one write. An ack covering
// the record must come back before the proxy forwards the heartbeat
// after that one.
func TestStandbyHeartbeatAckCoversBufferedRecord(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	const syncTimeout = 2 * time.Second
	p := startPrimary(t, dir1, ServerConfig{Shard: 0, SyncTimeout: syncTimeout, Heartbeat: 100 * time.Millisecond})
	defer p.http.Close()
	defer p.srv.Close()
	defer p.ctl.Close()

	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listener: %v", err)
	}
	defer pln.Close()
	// Sized well past the events of the test's lifetime (a few frames,
	// heartbeats every 100 ms) so the proxy never blocks on a send
	// after the test stops reading.
	events := make(chan proxyEvent, 256)
	go coalescingProxy(pln, p.ln.Addr().String(), events)

	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   pln.Addr().String(),
		DataDir:   dir2,
		Serving:   standbyServing(),
		Reconnect: 20 * time.Millisecond,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()
	waitFor(t, 5*time.Second, "standby to connect", func() bool { return p.srv.Standbys() == 1 })

	cl := client.New(p.http.URL, client.WithHTTPClient(p.http.Client()))
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := cl.Connect(context.Background(), "0.0>8.0", -1)
		done <- err
	}()

	// After the joined write, an ack covering the record must arrive
	// before the proxy forwards the next heartbeat.
	var joined uint64
	deadline := time.After(5 * time.Second)
wait:
	for {
		select {
		case ev := <-events:
			switch {
			case ev.kind == "joined" && joined == 0:
				joined = ev.seq
			case joined == 0:
			case ev.kind == "ack" && ev.seq >= joined:
				break wait
			case ev.kind == "heartbeat":
				t.Fatalf("a heartbeat passed without an ack covering record %d", joined)
			}
		case <-deadline:
			t.Fatalf("no ack covering the joined record (joined seq %d)", joined)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("connect: %v", err)
	}
	if took := time.Since(start); took >= syncTimeout {
		t.Fatalf("connect took %v: the commit waited out the sync timeout", took)
	}
	if n := p.srv.SyncTimeouts(); n != 0 {
		t.Fatalf("%d semi-sync commits timed out", n)
	}
}

// proxyEvent is one thing coalescingProxy saw: "joined" (records
// written together with a heartbeat; seq is the highest record),
// "heartbeat" (a heartbeat forwarded alone) or "ack" (seq acked).
type proxyEvent struct {
	kind string
	seq  uint64
}

// coalescingProxy forwards replication streams between standby and
// primary. Downstream it holds record frames until the next heartbeat
// and writes them in one write; it reports what it forwards on events.
func coalescingProxy(ln net.Listener, upstream string, events chan<- proxyEvent) {
	for {
		down, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", upstream)
		if err != nil {
			down.Close()
			continue
		}
		go func() {
			defer up.Close()
			br, bw := bufio.NewReader(down), bufio.NewWriter(up)
			for {
				typ, payload, err := readFrame(br)
				if err != nil {
					return
				}
				if typ == frameAck {
					var ack ackMsg
					json.Unmarshal(payload, &ack)
					events <- proxyEvent{"ack", ack.AppliedSeq}
				}
				if writeRaw(bw, typ, payload) != nil || bw.Flush() != nil {
					return
				}
			}
		}()
		go func() {
			defer down.Close()
			br, bw := bufio.NewReader(up), bufio.NewWriterSize(down, 1<<16)
			var held uint64
			for {
				typ, payload, err := readFrame(br)
				if err != nil {
					return
				}
				if writeRaw(bw, typ, payload) != nil {
					return
				}
				if typ == frameRecord {
					var rec durable.Record
					json.Unmarshal(payload, &rec)
					held = max(held, rec.Seq)
					continue // flushed with the next heartbeat
				}
				if typ == frameHeartbeat {
					if held > 0 {
						events <- proxyEvent{"joined", held}
						held = 0
					} else {
						events <- proxyEvent{"heartbeat", 0}
					}
				}
				if bw.Flush() != nil {
					return
				}
			}
		}()
	}
}

// writeRaw re-emits a frame read by readFrame without re-encoding it.
func writeRaw(bw *bufio.Writer, typ byte, payload []byte) error {
	return writeFrame(bw, typ, json.RawMessage(payload))
}
