GO ?= go

.PHONY: all build vet staticcheck test test-short race bench bench-json bench-fabric bench-handler cover fuzz repro slo-demo chaos-demo crash-demo cluster-demo prof-demo alert-demo curves-demo clean

all: build vet race test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# Deep lint; CI installs and runs this unconditionally, locally it is
# skipped when the binary is absent (no network installs here).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Data-race detection over the quick test set; the switchd controller
# and the concurrent simulation paths are the prime suspects.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable serving-path throughput record (including route
# latency p50/p99 from the server's own histogram), tracked across PRs.
# -cpu 1,4 writes one row per GOMAXPROCS so the multi-core scaling
# curve is recorded alongside the single-core baseline.
bench-json:
	BENCH_JSON=$(CURDIR)/BENCH_switchd.json $(GO) test -run '^$$' -bench BenchmarkSwitchdThroughput -benchmem -cpu 1,4 ./internal/switchd

# Bare-fabric churn record: msw Add+Release with ~24 live sessions at
# the two BENCHMARK.json shapes, one row per (label, GOMAXPROCS) in
# BENCH_fabric.json with ns/op, allocs/op, B/op, nproc and GOMAXPROCS.
# BEFORE=<git rev> also measures that commit: its tree is exported to a
# temporary directory, this bench_test.go copied in (the benchmark only
# uses the public multistage API), and its rows labelled "before".
BENCH_FABRIC = BENCH_FABRIC_JSON=$(CURDIR)/BENCH_fabric.json $(GO) test -run '^$$' -bench BenchmarkFabricChurn -benchmem -benchtime 2s
bench-fabric:
	@if [ -n "$(BEFORE)" ]; then \
	    tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	    git archive $(BEFORE) | tar -x -C $$tmp && cp bench_test.go $$tmp/ && \
	    (cd $$tmp && BENCH_LABEL=before $(BENCH_FABRIC) .) || exit 1; \
	fi
	BENCH_LABEL=after $(BENCH_FABRIC) .

# In-process HTTP handler record: one connect + disconnect through
# Controller.Handler() with the tracer at its defaults and disabled, on
# both BENCHMARK.json shapes, one row per (label, GOMAXPROCS) in
# BENCH_handler.json with ns/op, allocs/op, B/op, nproc and GOMAXPROCS.
# The traced-untraced gap is the cost of observing a request.
# BEFORE=<git rev> also measures that commit, as bench-fabric does.
BENCH_HANDLER = BENCH_HANDLER_JSON=$(CURDIR)/BENCH_handler.json $(GO) test -run '^$$' -bench BenchmarkHandlerCycle -benchmem -benchtime 2s
bench-handler:
	@if [ -n "$(BEFORE)" ]; then \
	    tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	    git archive $(BEFORE) | tar -x -C $$tmp && cp bench_test.go $$tmp/ && \
	    (cd $$tmp && BENCH_LABEL=before $(BENCH_HANDLER) .) || exit 1; \
	fi
	BENCH_LABEL=after $(BENCH_HANDLER) .

# Per-package statement coverage for the serving and observability
# packages.
cover:
	$(GO) test -cover ./internal/switchd ./internal/obs

# Native fuzzing, FUZZTIME per target (CI runs `make fuzz FUZZTIME=5s`).
# -run '^$$' skips the unit tests; each -fuzz pattern names one target.
FUZZTIME ?= 10s
FUZZ = $(GO) test -run '^$$' -fuzztime=$(FUZZTIME)
fuzz:
	$(FUZZ) -fuzz='^FuzzParseConnection$$' ./internal/wdm/
	$(FUZZ) -fuzz='^FuzzRoutePermutation$$' ./internal/benes/
	$(FUZZ) -fuzz='^FuzzDecodeConnectRequest$$' ./internal/switchd/
	$(FUZZ) -fuzz='^FuzzDecodeBranchRequest$$' ./internal/switchd/
	$(FUZZ) -fuzz='^FuzzDecodeDisconnectRequest$$' ./internal/switchd/

# Live SLO/tracing demo: start a deliberately sub-bound server, drive
# one traced blocked request, and print the trace / exemplar /
# forensics / SLO joins plus a wdmtop frame (EXPERIMENTS.md § "Trace
# walkthrough", scripted). The server is torn down on exit.
SLO_DEMO_TID := 4bf92f3577b34da6a3ce929d0e0e4736
slo-demo:
	@$(GO) build -o /tmp/wdm-slo-demo-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-slo-demo-top ./cmd/wdmtop
	@/tmp/wdm-slo-demo-serve -addr 127.0.0.1:8047 -m 1 -x 1 -replicas 1 -span-sample 1 & \
	trap 'kill $$!' EXIT; sleep 0.5; \
	curl -s -XPOST 127.0.0.1:8047/v1/connect -d '{"connection":"0.0>4.0"}'; \
	curl -s -XPOST 127.0.0.1:8047/v1/connect -d '{"connection":"1.0>8.0"}' \
	     -H 'traceparent: 00-$(SLO_DEMO_TID)-00f067aa0ba902b7-01'; \
	echo; echo '--- /v1/debug/spans?trace=$(SLO_DEMO_TID)'; \
	curl -s '127.0.0.1:8047/v1/debug/spans?trace=$(SLO_DEMO_TID)'; \
	echo '--- /metrics exemplar'; \
	curl -s '127.0.0.1:8047/metrics?exemplars=1' | grep $(SLO_DEMO_TID); \
	echo '--- /v1/debug/blocking trace join'; \
	curl -s 127.0.0.1:8047/v1/debug/blocking | grep trace_id; \
	echo '--- wdmtop'; \
	/tmp/wdm-slo-demo-top -target http://127.0.0.1:8047 -once

# Chaos drill (EXPERIMENTS.md § "Chaos walkthrough", scripted): a
# server at m = bound + 2 spares (bound is 13 for the default fabric),
# a load generator failing two plane-0 middle modules mid-run and
# repairing them, retries on. The run must end with blocked == 0 and
# dropped == 0; the health rollup walks ok -> degraded -> ok.
chaos-demo:
	@$(GO) build -o /tmp/wdm-chaos-serve ./cmd/wdmserve
	@/tmp/wdm-chaos-serve -addr 127.0.0.1:8048 -m 15 -replicas 2 & \
	trap 'kill $$!' EXIT; sleep 0.5; \
	/tmp/wdm-chaos-serve -attack -target http://127.0.0.1:8048 -requests 300000 \
	    -chaos "fail@1s f0:m0, fail@2s f0:m1, repair@3s f0:m0, repair@4s f0:m1" \
	    -retries 4; \
	echo '--- /v1/health after the drill'; \
	curl -s 127.0.0.1:8048/v1/health; echo

# Crash drill (EXPERIMENTS.md § "Crash walkthrough", scripted): a
# durable server takes acknowledged traffic, dies on SIGKILL with no
# drain, wdmwal proves the log clean, and a restart on the same data
# directory recovers every session under its original id.
crash-demo:
	@$(GO) build -o /tmp/wdm-crash-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-crash-wal ./cmd/wdmwal
	@rm -rf /tmp/wdm-crash-data; \
	/tmp/wdm-crash-serve -addr 127.0.0.1:8049 -replicas 2 -data-dir /tmp/wdm-crash-data & \
	pid=$$!; sleep 0.5; \
	curl -s -XPOST 127.0.0.1:8049/v1/connect -d '{"connection":"0.0>4.0,9.0"}'; echo; \
	curl -s -XPOST 127.0.0.1:8049/v1/connect -d '{"connection":"1.0>6.0"}'; echo; \
	curl -s -XPOST 127.0.0.1:8049/v1/branch -d '{"session":1,"dests":["12.0"]}'; echo; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	echo '--- wdmwal verify after SIGKILL'; \
	/tmp/wdm-crash-wal verify /tmp/wdm-crash-data; \
	/tmp/wdm-crash-serve -addr 127.0.0.1:8049 -replicas 2 -data-dir /tmp/wdm-crash-data & \
	trap 'kill $$!' EXIT; sleep 0.5; \
	echo '--- recovered session 1 after restart'; \
	curl -s '127.0.0.1:8049/v1/session?id=1'; echo; \
	echo '--- /v1/health durability row'; \
	curl -s 127.0.0.1:8049/v1/health; echo; \
	echo '--- wdmwal replay'; \
	/tmp/wdm-crash-wal replay /tmp/wdm-crash-data

# Failover drill (EXPERIMENTS.md § "Failover walkthrough", scripted):
# a 3-shard cluster — one primary per shard, plus a warm standby
# log-shipping shard 1 — takes churn on every shard and two held
# sessions on shard 1, then shard 1's primary dies on SIGKILL with no
# drain. The standby is promoted over HTTP, serves the held sessions,
# and the two shard-1 data directories must agree on `wdmwal inspect
# -json`'s state_digest: identical replicated session state, zero
# acknowledged loss.
cluster-demo:
	@$(GO) build -o /tmp/wdm-cluster-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-cluster-wal ./cmd/wdmwal
	@pkill -9 -f '^/tmp/wdm-cluster-serve' 2>/dev/null; rm -rf /tmp/wdm-cluster-data; mkdir -p /tmp/wdm-cluster-data; \
	/tmp/wdm-cluster-serve -cluster -shard 0 -addr 127.0.0.1:9061 -repl-addr 127.0.0.1:9071 \
	    -replicas 2 -snapshot-interval=-1s -data-dir /tmp/wdm-cluster-data/s0 & p0=$$!; \
	/tmp/wdm-cluster-serve -cluster -shard 1 -addr 127.0.0.1:9062 -repl-addr 127.0.0.1:9072 \
	    -replicas 2 -snapshot-interval=-1s -data-dir /tmp/wdm-cluster-data/s1 & p1=$$!; \
	/tmp/wdm-cluster-serve -cluster -shard 2 -addr 127.0.0.1:9063 -repl-addr 127.0.0.1:9073 \
	    -replicas 2 -snapshot-interval=-1s -data-dir /tmp/wdm-cluster-data/s2 & p2=$$!; \
	/tmp/wdm-cluster-serve -cluster -shard 1 -standby-of 127.0.0.1:9072 -addr 127.0.0.1:9065 \
	    -replicas 2 -snapshot-interval=-1s -data-dir /tmp/wdm-cluster-data/s1-standby & sb=$$!; \
	trap 'kill -9 $$p0 $$p2 $$sb 2>/dev/null' EXIT; sleep 1; \
	/tmp/wdm-cluster-serve -attack -target http://127.0.0.1:9061 -requests 3000 >/dev/null & a0=$$!; \
	/tmp/wdm-cluster-serve -attack -target http://127.0.0.1:9063 -requests 3000 >/dev/null & a2=$$!; \
	/tmp/wdm-cluster-serve -attack -target http://127.0.0.1:9062 -requests 3000; \
	wait $$a0 $$a2; \
	sid=$$(curl -s -XPOST 127.0.0.1:9062/v1/connect -d '{"connection":"0.0>4.0,9.0"}' \
	    | tr -d ' \n' | sed 's/.*"session":\([0-9]*\).*/\1/'); \
	curl -s -XPOST 127.0.0.1:9062/v1/connect -d '{"connection":"1.0>6.0"}' >/dev/null; \
	sleep 0.5; \
	echo "--- SIGKILL shard 1 primary (held session $$sid acknowledged)"; \
	kill -9 $$p1; wait $$p1 2>/dev/null; \
	echo '--- POST /v1/admin/promote on the shard 1 standby'; \
	pr=$$(curl -s -XPOST 127.0.0.1:9065/v1/admin/promote); echo "$$pr"; \
	echo "$$pr" | grep -q '"promoted": *true' \
	    || { echo 'FAILOVER FAILED: promote did not succeed'; exit 1; }; \
	echo '--- held session on the promoted primary'; \
	held=$$(curl -s "127.0.0.1:9065/v1/session?id=$$sid"); echo "$$held"; \
	echo "$$held" | grep -q '4.0,9.0' \
	    || { echo "FAILOVER FAILED: acknowledged session $$sid lost"; exit 1; }; \
	echo '--- /v1/health replication row'; \
	curl -s 127.0.0.1:9065/v1/health; echo; \
	kill -9 $$sb; wait $$sb 2>/dev/null; \
	dp=$$(/tmp/wdm-cluster-wal inspect -json /tmp/wdm-cluster-data/s1 | grep state_digest); \
	ds=$$(/tmp/wdm-cluster-wal inspect -json /tmp/wdm-cluster-data/s1-standby | grep state_digest); \
	echo "dead primary     $$dp"; \
	echo "promoted standby $$ds"; \
	test -n "$$dp" && test "$$dp" = "$$ds" \
	    || { echo 'FAILOVER FAILED: replicated state digests differ'; exit 1; }; \
	echo 'failover OK: state digests identical, zero acknowledged loss'

# Observability drill (EXPERIMENTS.md § "Performance observability",
# scripted): two cluster shards with aggressive mutex profiling, churn
# against both, then assert (a) the mutex profile at /v1/debug/prof is
# non-empty, (b) /v1/cluster/metrics serves a merged exposition with
# both shards up and the phase histograms present, and (c) binary
# profile snapshots download. Profiles land in PROF_DIR so CI can
# upload them as a workflow artifact.
PROF_DIR ?= /tmp/wdm-prof-demo
prof-demo:
	@$(GO) build -o /tmp/wdm-prof-serve ./cmd/wdmserve
	@pkill -9 -f '^/tmp/wdm-prof-serve' 2>/dev/null; rm -rf $(PROF_DIR) /tmp/wdm-prof-data; mkdir -p $(PROF_DIR); \
	/tmp/wdm-prof-serve -cluster -shard 0 -addr 127.0.0.1:9081 -repl-addr 127.0.0.1:9091 \
	    -peers 'http://127.0.0.1:9081,http://127.0.0.1:9082' \
	    -replicas 2 -prof-mutex 1 -data-dir /tmp/wdm-prof-data/s0 & p0=$$!; \
	/tmp/wdm-prof-serve -cluster -shard 1 -addr 127.0.0.1:9082 -repl-addr 127.0.0.1:9092 \
	    -peers 'http://127.0.0.1:9081,http://127.0.0.1:9082' \
	    -replicas 2 -prof-mutex 1 -data-dir /tmp/wdm-prof-data/s1 & p1=$$!; \
	trap 'kill -9 $$p0 $$p1 2>/dev/null' EXIT; sleep 1; \
	/tmp/wdm-prof-serve -attack -target http://127.0.0.1:9081 -requests 6000 >/dev/null & a0=$$!; \
	/tmp/wdm-prof-serve -attack -target http://127.0.0.1:9082 -requests 6000; \
	wait $$a0; \
	echo '--- mutex profile (debug text head)'; \
	curl -s '127.0.0.1:9081/v1/debug/prof?type=mutex&debug=1' > $(PROF_DIR)/mutex.txt; \
	head -3 $(PROF_DIR)/mutex.txt; \
	grep -q 'cycles/second' $(PROF_DIR)/mutex.txt \
	    || { echo 'PROF DEMO FAILED: empty mutex profile'; exit 1; }; \
	curl -s '127.0.0.1:9081/v1/debug/prof?type=mutex' -o $(PROF_DIR)/mutex.pb.gz; \
	curl -s '127.0.0.1:9081/v1/debug/prof?type=heap' -o $(PROF_DIR)/heap.pb.gz; \
	test -s $(PROF_DIR)/mutex.pb.gz && test -s $(PROF_DIR)/heap.pb.gz \
	    || { echo 'PROF DEMO FAILED: empty binary profile snapshot'; exit 1; }; \
	echo '--- /v1/cluster/metrics federation'; \
	curl -s 127.0.0.1:9081/v1/cluster/metrics > $(PROF_DIR)/fleet-metrics.txt; \
	grep -q 'wdm_federation_peer_up{shard="0"} 1' $(PROF_DIR)/fleet-metrics.txt \
	    && grep -q 'wdm_federation_peer_up{shard="1"} 1' $(PROF_DIR)/fleet-metrics.txt \
	    || { echo 'PROF DEMO FAILED: federation did not merge both shards'; cat $(PROF_DIR)/fleet-metrics.txt; exit 1; }; \
	grep -q 'wdm_phase_seconds_bucket' $(PROF_DIR)/fleet-metrics.txt \
	    || { echo 'PROF DEMO FAILED: no phase histograms in the fleet view'; exit 1; }; \
	grep 'wdm_federation_peer_up' $(PROF_DIR)/fleet-metrics.txt; \
	echo "prof demo OK: profiles in $(PROF_DIR)"

# Alert drill (EXPERIMENTS.md § "Alerting walkthrough", scripted): two
# cluster shards with the embedded metrics history on a fast scrape,
# shard 0 configured exactly at the sufficient bound (m margin 0). The
# drill fails most of shard 0's middle stage over the admin plane,
# drives closed-loop traffic until it blocks, and asserts the shipped
# invariant rule (blocked_in_nonblocking_regime) reaches firing with
# /v1/alerts and the wdm_alert_firing gauge agreeing; repairing the
# middles must resolve it on its own, and a federated /v1/cluster/query
# range over both live shards must return the merged blocking curve
# covering the incident. The tsdb dump and query curves land in
# ALERT_DIR so CI can upload them as a workflow artifact.
ALERT_DIR ?= /tmp/wdm-alert-demo
ALERT_RULES := {"rules":[{"name":"blocked_in_nonblocking_regime","expr":"rate(wdm_blocked_total[10s])","op":">","value":0,"for":"500ms","guard":{"expr":"wdm_m_margin","op":">=","value":0},"summary":"P_block > 0 at or above the sufficient bound"}]}
alert-demo:
	@$(GO) build -o /tmp/wdm-alert-serve ./cmd/wdmserve
	@pkill -9 -f '^/tmp/wdm-alert-serve' 2>/dev/null; rm -rf $(ALERT_DIR) /tmp/wdm-alert-data; mkdir -p $(ALERT_DIR); \
	printf '%s\n' '$(ALERT_RULES)' > $(ALERT_DIR)/rules.json; \
	/tmp/wdm-alert-serve -cluster -shard 0 -addr 127.0.0.1:9101 -repl-addr 127.0.0.1:9111 \
	    -peers 'http://127.0.0.1:9101,http://127.0.0.1:9102' \
	    -replicas 1 -history 250ms -alerts $(ALERT_DIR)/rules.json \
	    -data-dir /tmp/wdm-alert-data/s0 & p0=$$!; \
	/tmp/wdm-alert-serve -cluster -shard 1 -addr 127.0.0.1:9102 -repl-addr 127.0.0.1:9112 \
	    -peers 'http://127.0.0.1:9101,http://127.0.0.1:9102' \
	    -replicas 1 -history 250ms -alerts $(ALERT_DIR)/rules.json \
	    -data-dir /tmp/wdm-alert-data/s1 & p1=$$!; \
	trap 'kill -9 $$p0 $$p1 2>/dev/null' EXIT; sleep 1; \
	/tmp/wdm-alert-serve -attack -target http://127.0.0.1:9102 -requests 2000 >/dev/null; \
	m=$$(curl -s 127.0.0.1:9101/v1/status | tr -d ' \n' | sed 's/.*"m":\([0-9]*\).*/\1/'); \
	echo "--- failing $$((m-1)) of $$m shard-0 middles (configured m stays at the bound)"; \
	i=0; while [ $$i -lt $$((m-1)) ]; do \
	    curl -s -XPOST 127.0.0.1:9101/v1/admin/fail -d "{\"fabric\":0,\"middle\":$$i}" >/dev/null; \
	    i=$$((i+1)); done; \
	/tmp/wdm-alert-serve -attack -target http://127.0.0.1:9101 -requests 4000 >/dev/null; \
	echo '--- waiting for blocked_in_nonblocking_regime to fire'; \
	fired=0; i=0; while [ $$i -lt 40 ]; do \
	    if curl -s 127.0.0.1:9101/v1/alerts | tr -d ' \n' | grep -q '"state":"firing"'; then fired=1; break; fi; \
	    sleep 0.25; i=$$((i+1)); done; \
	curl -s 127.0.0.1:9101/v1/alerts > $(ALERT_DIR)/alerts-firing.json; \
	test $$fired -eq 1 \
	    || { echo 'ALERT DEMO FAILED: rule never fired'; cat $(ALERT_DIR)/alerts-firing.json; exit 1; }; \
	curl -s 127.0.0.1:9101/metrics | grep 'wdm_alert_firing' | tee $(ALERT_DIR)/alert-gauge.txt; \
	grep -q 'wdm_alert_firing{rule="blocked_in_nonblocking_regime"} 1' $(ALERT_DIR)/alert-gauge.txt \
	    || { echo 'ALERT DEMO FAILED: gauge disagrees with /v1/alerts'; exit 1; }; \
	echo '--- federated range query across both live shards'; \
	curl -s '127.0.0.1:9102/v1/cluster/query?query=rate(wdm_blocked_total%5B10s%5D)&start=-2m&step=1s' \
	    > $(ALERT_DIR)/fleet-query.json; \
	fq=$$(tr -d ' \n' < $(ALERT_DIR)/fleet-query.json); \
	echo "$$fq" | grep -q '"shards":2' && echo "$$fq" | grep -vq 'down_shards' \
	    || { echo 'ALERT DEMO FAILED: federated query did not merge 2 live shards'; exit 1; }; \
	echo "$$fq" | grep -q '"shard":"0"' && echo "$$fq" | grep -q '"shard":"fleet"' \
	    || { echo 'ALERT DEMO FAILED: merged result lacks per-shard/fleet series'; exit 1; }; \
	echo '--- repairing the middles; the alert must resolve on its own'; \
	i=0; while [ $$i -lt $$((m-1)) ]; do \
	    curl -s -XPOST 127.0.0.1:9101/v1/admin/repair -d "{\"fabric\":0,\"middle\":$$i}" >/dev/null; \
	    i=$$((i+1)); done; \
	resolved=0; i=0; while [ $$i -lt 60 ]; do \
	    if curl -s 127.0.0.1:9101/v1/alerts | tr -d ' \n' | grep -q '"state":"firing"'; then :; else resolved=1; break; fi; \
	    sleep 0.5; i=$$((i+1)); done; \
	curl -s 127.0.0.1:9101/v1/alerts > $(ALERT_DIR)/alerts-resolved.json; \
	test $$resolved -eq 1 \
	    || { echo 'ALERT DEMO FAILED: alert never resolved after repair'; cat $(ALERT_DIR)/alerts-resolved.json; exit 1; }; \
	curl -s 127.0.0.1:9101/metrics | grep -q 'wdm_alert_firing{rule="blocked_in_nonblocking_regime"} 0' \
	    || { echo 'ALERT DEMO FAILED: gauge still up after resolve'; exit 1; }; \
	curl -s 127.0.0.1:9101/v1/debug/tsdb > $(ALERT_DIR)/tsdb-dump.json; \
	curl -s '127.0.0.1:9101/v1/query?query=rate(wdm_blocked_total%5B10s%5D)&start=-2m&step=1s' \
	    > $(ALERT_DIR)/query-blocked.json; \
	test -s $(ALERT_DIR)/tsdb-dump.json \
	    || { echo 'ALERT DEMO FAILED: empty tsdb dump'; exit 1; }; \
	echo "alert demo OK: fired, federated, resolved; artifacts in $(ALERT_DIR)"

# Blocking-curve drill (EXPERIMENTS.md § "Traffic engine & blocking
# curves", scripted): a server provisioned at the Theorem 1 bound takes
# a strict Erlang sweep with session churn — any measured P_block > 0
# fails the run — then a starved server (m = 3, x = 1) takes the same
# load ladder to show the knee, which must contain real blocking.
# Artifacts land in CURVES_DIR for CI upload; wdmplot renders the
# measured curves as CSV.
CURVES_DIR ?= /tmp/wdm-curves-demo
curves-demo:
	@$(GO) build -o /tmp/wdm-curves-serve ./cmd/wdmserve
	@$(GO) build -o /tmp/wdm-curves-load ./cmd/wdmload
	@$(GO) build -o /tmp/wdm-curves-plot ./cmd/wdmplot
	@pkill -9 -f '^/tmp/wdm-curves-serve' 2>/dev/null; rm -rf $(CURVES_DIR); mkdir -p $(CURVES_DIR); \
	/tmp/wdm-curves-serve -addr 127.0.0.1:8055 -replicas 1 >$(CURVES_DIR)/serve-bound.log 2>&1 & pb=$$!; \
	/tmp/wdm-curves-serve -addr 127.0.0.1:8056 -replicas 1 -m 3 -x 1 >$(CURVES_DIR)/serve-below.log 2>&1 & pk=$$!; \
	trap 'kill -9 $$pb $$pk 2>/dev/null' EXIT; sleep 0.5; \
	echo '--- strict sweep at the bound (m = 13): any P_block > 0 fails'; \
	/tmp/wdm-curves-load -mode sweep -target http://127.0.0.1:8055 -points 1,2,4,8 \
	    -arrivals 1200 -max-fanout 4 -churn 0.3 -strict -out $(CURVES_DIR)/BENCH_curves.json; \
	echo '--- knee sweep far below the bound (m = 3, x = 1): blocking must appear'; \
	/tmp/wdm-curves-load -mode sweep -target http://127.0.0.1:8056 -points 1,2,4,8,16 \
	    -arrivals 1200 -max-fanout 4 -out $(CURVES_DIR)/BENCH_curves_below.json; \
	grep -Eq '"blocked": [1-9]' $(CURVES_DIR)/BENCH_curves_below.json \
	    || { echo 'CURVES DEMO FAILED: no knee below the bound'; exit 1; }; \
	echo '--- measured curve at the bound'; \
	/tmp/wdm-curves-plot -series curves -curves $(CURVES_DIR)/BENCH_curves.json; \
	echo '--- measured knee below the bound'; \
	/tmp/wdm-curves-plot -series curves -curves $(CURVES_DIR)/BENCH_curves_below.json; \
	echo "curves demo OK: P_block = 0 at the bound, knee visible below; artifacts in $(CURVES_DIR)"

# Regenerate every experiment artifact into results/.
repro:
	$(GO) run ./cmd/wdmexperiments -out results

clean:
	rm -rf results test_output.txt bench_output.txt
