package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/switchd"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// servingConfig is wdmserve's default configuration for the workload's
// shape: 1s history self-scrape, mutex/block profiling at 1-in-100 and
// 100µs, the tail-sampled tracer with its default ring and sampling,
// and (for durable workloads) the default 2ms group commit.
func servingConfig(w workload, backendName string, logger *slog.Logger) switchd.Config {
	return switchd.Config{
		Fabric:   w.params(),
		Backend:  backendName,
		Replicas: w.replicas,
		Shards:   16,
		Prof: prof.Config{
			MutexFraction: 100,
			BlockRateNs:   100_000,
			Interval:      30 * time.Second,
		},
		Logger:          logger,
		HistoryInterval: time.Second,
	}
}

// discardLogger formats like wdmserve's default text logger (including
// its per-request log line) but writes nowhere, so a run's output stays
// small while the server still pays for building every log record.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// server is one in-process switchd behind a real loopback listener, plus
// its replication server and standby when durable.
type server struct {
	ctl     *switchd.Controller
	url     string
	http    *http.Server
	repl    *cluster.Server
	standby *cluster.Standby
	served  sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// serverOpts are the per-run choices layered on the serving config.
type serverOpts struct {
	cfg     switchd.Config
	dataDir string // primary WAL directory ("" = in memory)
	// standbyDir, with dataDir, adds a semi-sync standby on this
	// directory and the replication server as the WAL committer.
	standbyDir string
	// wrapCommit, when set, wraps the replication server's Commit before
	// it is installed as the WAL committer.
	wrapCommit func(commit func(uint64)) func(uint64)
	// wrapHandler, when set, wraps the controller's HTTP handler.
	wrapHandler func(*switchd.Controller, http.Handler) http.Handler
}

// startServer builds and starts a server and returns it with its set-up
// time: from switchd.New (after the replication server that New's
// committer calls into is built) through WAL recovery and standby
// attach to the first successful GET /v1/status over loopback.
func startServer(ctx context.Context, o serverOpts) (*server, time.Duration, error) {
	cfg := o.cfg
	s := &server{}
	start := time.Now()
	cfg.DataDir = o.dataDir
	if o.standbyDir != "" {
		s.repl = cluster.NewServer(cluster.ServerConfig{Logger: cfg.Logger})
		cfg.WALCommitter = s.repl.Commit
		if o.wrapCommit != nil {
			cfg.WALCommitter = o.wrapCommit(s.repl.Commit)
		}
	}
	ctl, err := switchd.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	s.ctl = ctl
	if s.repl != nil {
		if err := s.attachStandby(ctx, cfg, o.standbyDir); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	var h http.Handler = ctl.Handler()
	if o.wrapHandler != nil {
		h = o.wrapHandler(ctl, h)
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: obs.WithRequestLog(mux, cfg.Logger)}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		_ = s.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	probe := &http.Client{Transport: &http.Transport{}}
	defer probe.CloseIdleConnections()
	if _, err := client.New(s.url, client.WithHTTPClient(probe)).Status(ctx); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first status: %w", err)
	}
	return s, time.Since(start), nil
}

// attachStandby starts the replication listener and a standby on its own
// data directory, and waits until the primary has admitted the standby's
// handshake. Both directories start as copies of one log (or both
// empty), so the standby has nothing to catch up on at attach; from
// then on every group commit waits for its ack.
func (s *server) attachStandby(ctx context.Context, cfg switchd.Config, dir string) error {
	if err := s.repl.Attach(s.ctl); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		_ = s.repl.Serve(ln) // returns once the server is closed
	}()
	sbCfg := cfg
	sbCfg.WALCommitter = nil
	sb, err := cluster.NewStandby(cluster.StandbyConfig{
		Primary: ln.Addr().String(),
		DataDir: dir,
		Serving: sbCfg,
		Logger:  cfg.Logger,
	})
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	s.standby = sb
	sb.Start()
	return waitFor(ctx, 30*time.Second, func() bool { return s.repl.Standbys() > 0 })
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(ctx context.Context, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out waiting for the standby")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// close stops everything the server started and waits for it. It is
// idempotent.
func (s *server) close() error {
	s.closeOnce.Do(func() { s.closeErr = s.shutdown() })
	return s.closeErr
}

func (s *server) shutdown() error {
	var errs []error
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.http.Shutdown(ctx))
		cancel()
	}
	if s.standby != nil {
		errs = append(errs, s.standby.Close())
	}
	if s.repl != nil {
		errs = append(errs, s.repl.Close())
	}
	if s.ctl != nil {
		errs = append(errs, s.ctl.Close())
	}
	s.served.Wait()
	return errors.Join(errs...)
}

// seedWAL writes a log of at least records records into dir with no
// snapshot: connect/disconnect cycles of unicast sessions driven through
// a controller of the serving configuration, so the log's meta matches
// and every record is one the serving path writes. Many goroutines on
// disjoint slots keep the group commit batches full.
func seedWAL(ctx context.Context, cfg switchd.Config, dir string, records int, seed int64) error {
	cfg.DataDir = dir
	cfg.HistoryInterval = 0
	cfg.SnapshotInterval = -1
	cfg.Prof = prof.Config{}
	cfg.WALCommitter = nil
	p := cfg.Fabric
	// A mutation waits for its group commit under its session-table
	// shard lock, so the shard count bounds how many records one commit
	// batches; the seeding writers get a shard each, not the serving 16.
	cfg.Shards = 2 * cfg.Replicas * p.K * p.N
	ctl, err := switchd.New(cfg)
	if err != nil {
		return err
	}
	half := p.N / 2
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		plane int
		c     wdm.Connection
	}
	var pairs []pair
	for plane := 0; plane < cfg.Replicas; plane++ {
		for wave := 0; wave < p.K; wave++ {
			dst := rng.Perm(half)
			for src := 0; src < half; src++ {
				pairs = append(pairs, pair{plane, wdm.Connection{
					Source: wdm.PortWave{Port: wdm.Port(src), Wave: wdm.Wavelength(wave)},
					Dests:  []wdm.PortWave{{Port: wdm.Port(half + dst[src]), Wave: wdm.Wavelength(wave)}},
				}})
			}
		}
	}
	cycles := (records + 1) / 2
	per := (cycles + len(pairs) - 1) / len(pairs)
	errc := make(chan error, len(pairs))
	var wg sync.WaitGroup
	for _, pr := range pairs {
		wg.Add(1)
		go func(pr pair) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id, _, err := ctl.Connect(ctx, pr.c, pr.plane)
				if err == nil {
					err = ctl.Disconnect(ctx, id)
				}
				if err != nil {
					errc <- fmt.Errorf("seeding %s: %w", wdm.FormatConnection(pr.c), err)
					return
				}
			}
		}(pr)
	}
	wg.Wait()
	close(errc)
	err = <-errc
	return errors.Join(err, ctl.Close())
}

// copyDir copies a flat directory of regular files.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
