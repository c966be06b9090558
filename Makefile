# Convenience targets for the citusgo reproduction.

.PHONY: all build test bench figures examples vet fmt fmt-check lint race stress bench-smoke bench-diff trace-smoke chaos-smoke chaos-soak soak soak-smoke fuzz-smoke ci

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -w .

# fail if any file needs gofmt (mirrors the CI job)
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# static analysis: golangci-lint (config in .golangci.yml, mirrors the CI
# lint job) when installed, falling back to go vet so the target still
# works in bare environments
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; falling back to go vet"; \
		go vet ./...; \
	fi

test:
	go test -timeout 15m ./...

# race-enabled tests over the concurrent internals (mirrors the CI job);
# -shuffle=on randomizes test order so order-dependent tests can't hide —
# a failure prints the shuffle seed, reproduce with -shuffle=<seed>
race:
	go test -race -shuffle=on -timeout 20m ./internal/...

# the flake guards (mirrors the last step of the CI race job): the two
# DDL-under-load stress tests 100 times each — however DDL interleaves with
# cached router statements and pipelined windows, no error of any kind reaches
# a session and every read sees its own writes — and 20 times under -race
# the plan cache's differential oracles (every router shape cached, hit and
# uncached: same rows, affected counts, EXPLAIN and node; every fan-out shape
# the same way, and again after CREATE INDEX, ADD COLUMN and a shard move;
# TestWorkerPlanCacheParity: every worker SELECT, UPDATE and DELETE served by
# its kept plan agrees with an engine that keeps none, and again after CREATE
# INDEX, ADD COLUMN, TRUNCATE, SET transaction_isolation and SetFeatures),
# then the
# slow-start ramp test and the real-TCP benchmark's own tests under the race
# detector, which is where the ramp's wg.Add/wg.Wait race first showed; and
# 20 times under -race, concurrent sessions sharing the coordinator's merge
# relations (a prefix drop took other sessions' relations with it), the
# PipelineWindow 1-vs-8 parity run, the issue fault at every position of a
# replicated fan-out, the bounded transient retry, a retry under a saturated
# connection limit dialling again inside the slot it holds (alone, and with a
# second session parked on the limit), and the transaction block
# and commit flights: an open that fails executes nothing, worker DDL between
# two executions of one task text (outside and inside a block: one re-parse,
# one execution, in the block), a pooled connection free of transaction state,
# an implicit transaction keeping its pinned connections across statements that
# run outside transactional mode, a failed flight request discarding its
# connection, the round-trip budget counted over real TCP, the 2PC matrix rows
# for overlapping requests, a connection's statement state bounded by its
# session's cache, readers of a columnar stripe's typed vectors seeing a
# consistent prefix while its transaction keeps appending to them, readers of a
# stripe's views while a checkpoint freezes it into clipped arrays, batched heap
# scans beside inserts, deletes and vacuum, and 20 times under -race page
# compaction beside batch scans, TID scans, Gets and checkpoint images
# (TestCompactionBesideReaders), 20 rounds of UPDATE and VACUUM over every
# row leaving one version's worth (TestVacuumChurnKeepsOneVersion) and
# primary-key lookups that each find their one row while other sessions
# update rows heap-only and vacuum (TestHOTVacuumRace), the
# vectorized dashboard fetching
# its GIN candidates in batches beside COPY, deletes and vacuum, and the
# checkpoint's seams: a stream reading across cuts that race its acks, two
# tables scanning and growing over the stripes an image lets them share, a
# standby taking its primary's bases and then a failover, a second crash of a
# restarted worker, a rejoin below the new primary's base, a shard move's
# delta against a checkpoint of its source, a coordinator restart reading
# back only the commit records its log still holds, and index readers (Range,
# SearchEqual, GIN Search) beside writers whose inserts and removes split
# B-tree leaves and re-encode posting-list blocks, and beside a B-tree whose
# int64 key columns are made datum columns by a NULL and a float
# (TestBTreeDemotesBesideReaders); and 20 times under -race,
# relation locks in both modes (sharing, upgrades, the waits-for edges of a
# shared wait), DDL waiting for the writers it would erase and a write woken
# by a drop keeping its block, a DDL-versus-writer deadlock, and shard moves
# under writers: the regressions of the move (hot row, insert then delete,
# an open writer across the block, a co-located join mid-move, an MX writer,
# the start point), its deadlock with an open block, a move giving way to an
# idle writer, and the matrix of two co-located tables x every stage x
# {autocommit, open block, 2PC, multi-shard} writers; and 20 times under
# -race, the wake-ups that replaced the sleep-poll loops: the notifier itself
# (a broadcast wakes, a timed-out wait leaves no one parked, no wake-up lost
# among concurrent writers and waiters), a checkpoint waking a parked stream,
# a sync wait woken by its lagging standby's failure, a promotion flipping as
# its winner reaches the tip, a sync commit costing only the standby's apply,
# and a session parked on the connection limit proceeding on a Put or Discard;
# and 20 times under -race, COPY as tasks of the executor: a failed multi-shard
# COPY leaving nothing, COPY inside BEGIN ... ROLLBACK and COMMIT, a reference
# table's COPY on every replica, a distribution whose copy fails leaving the
# table local with its rows, a NULL distribution value refused up front, and
# COPY under 2PC faults; and 20 times under -race, INSERT..SELECT's two
# strategies against local tables holding the same rows
# (TestInsertSelectMatchesLocalTable: co-located, pulled to the coordinator,
# ON CONFLICT and RETURNING, reference and local destinations, inside blocks),
# two sessions pulling at once (TestConcurrentInsertSelectSessions: append
# results are shared by name on each node, each statement's must be its own),
# floats it moves as typed rows (TestInsertSelectKeepsFloats),
# an aggregate under BETWEEN, IN, IS NULL or LIKE never run shard by shard
# (TestInsertSelectHiddenAggregate) and merged before its predicate, as on a
# local table (TestAggregateUnderPredicateMatchesLocalTable), and Node.Close
# waiting out a deadlock
# poll parked at node.call (TestCloseWaitsForDaemons); and 20 times
# under -race, relations reaching workers one way: expression subqueries
# (TestSubqueryMatchesLocalTable) and non-co-located joins, broadcast at 2
# workers and repartitioned at 4 (TestJoinOrderMatchesLocalTable), against
# local tables holding the same rows, and two sessions running subplan
# statements at once (TestConcurrentSubplanSessions: intermediate-result names
# are global to an engine, each session must get its own answer and no
# relation may survive); and 20 times under -race, the one transport: a crash
# while a pipelined window's middle request is parked at wal.fsync failing the
# whole window with a ConnError (TestCrashLosesTheWindow), a crash and restart
# and a failover and rejoin with every node listening on TCP
# (TestTCPCrashAndRestart, TestTCPFailoverAndRejoin), a prepared transaction a
# restart adopts holding its row and relation locks, its updates keeping their
# chain (TestAdoptedPreparedHoldsItsLocks), and two MX coordinators shipping
# subplan results to one worker at once (TestMXCoordinatorsShipDistinctResults:
# the names carry the coordinating node); and 20 times under -race, the node
# functions a coordinator calls as statements: the deadlock detector's polls
# dropped and slowed at node.call (TestDeadlockDetectedUnderLockGraphFaults,
# exactly three drops; TestNoFalseVictimWhenPollsDrop), the merged SSI check
# failing closed when a participant's edge poll fails at node.call or its
# checkout at pool.checkout (TestSSIEdgePollFailsClosed), and a restore point
# failing, naming the node, when a node's checkout fails
# (TestRestorePointNeedsEveryNode); and 20 times under -race, the trigram
# index's maintenance against a sequential scan (TestGINMatchesSeqScan: LIKE
# and ILIKE through each index and with it taken out, after COPY, UPDATE,
# DELETE and VACUUM, and TRUNCATE, every key byte-equal to the evaluator's
# text); and 20 times under -race, the function registry every node serves
# its functions from (TestFunctionParity: every function's SELECT fn(args)
# and SELECT * FROM fn(args) forms agree, functions filtered, grouped and
# joined, kept plans calling them again; TestNodeFunctionsOverWire: the node
# functions over the wire, on a standby too, while it registers them again);
# and 20 times under -race, REPEATABLE READ sessions incrementing one row,
# each failing with the concurrent-update serialization error instead of
# following the row's update chain, and retrying: no increment lost
# (TestRepeatableReadRetriesConcurrentUpdates);
# then TestChaosSmoke 100 times under -race
stress:
	go test -run 'TestPlanCacheStressInvalidation|TestPipelineStressMisdelivery' -count=100 -timeout 15m ./internal/citus
	go test -race -run 'TestRouterCacheParity|TestPushdownCacheParity' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestWorkerPlanCacheParity' -count=20 -timeout 10m ./internal/engine
	go test -race -run 'TestSlowStartRampRace' -count=10 -timeout 10m ./internal/citus
	go test -race -run 'TestConcurrentMergeSessions|TestPipelineWindowParity|TestIssueFaultNeverDropsTasks|TestTransientRetryBound|TestRefreshUnderLimitGetsItsSlotBack|TestRetryRedialsInsideItsSlot' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestBlockOpenFailureExecutesNothing|TestDDLBetweenExecutions|TestStalePlanInsideBlock|TestPooledConnCarriesNoTxnState|TestImplicitTxnKeepsPinnedConns|TestCommitFlightTransportErrorsDiscard' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestTxnRoundTripBudget' -count=20 -timeout 10m ./internal/cluster
	go test -race -run 'TestTwoPhaseCommitFaultMatrix|TestTwoPhaseCommitFlightMatrix' -count=20 -timeout 10m ./internal/fault/chaos
	go test -race -run 'TestConnKeepsNoStatementState|TestSessionStmtCacheBounded' -count=20 -timeout 10m ./internal/wire ./internal/engine
	go test -race -run 'TestOwnStripeViewIsAPrefix|TestInProgressXminConcurrentScan|TestAdoptedStripesAreShared|TestFrozenVectorIsClipped' -count=10 -timeout 10m ./internal/columnar
	go test -race -run 'TestBatchScanConcurrentWriters' -count=10 -timeout 10m ./internal/heap
	go test -race -run 'TestCompactionBesideReaders' -count=20 -timeout 10m ./internal/heap
	go test -race -run 'TestVacuumChurnKeepsOneVersion' -count=20 -timeout 10m ./internal/engine
	go test -race -run 'TestHOTVacuumRace' -count=20 -timeout 10m ./internal/engine
	go test -race -run 'TestDashboardUnderConcurrentCopy' -count=10 -timeout 10m ./internal/engine
	go test -race -run 'TestIndexConcurrentReadersAndWriters|TestBTreeDemotesBesideReaders' -count=10 -timeout 10m ./internal/index
	go test -race -run 'TestStreamAcrossConcurrentCheckpoints|TestAppendWakesNoOne' -count=10 -timeout 10m ./internal/wal
	go test -race -run 'TestStandbyTakesPrimaryBases|TestSecondCrashOfARestartedWorker' -count=20 -timeout 10m ./internal/cluster
	go test -race -run 'TestRejoinBelowTheNewPrimarysBase|TestRebalanceMoveDeltaSurvivesCheckpoint|TestRestartedCoordinatorForgetsResolvedCommitRecords' -count=20 -timeout 10m ./internal/fault/chaos
	go test -race -run 'TestSharedRelationLock|TestUpgradeSoleSharedHolder|TestSharedWaitEdges' -count=20 -timeout 10m ./internal/lock
	go test -race -run 'TestTruncateWaitsForWriter|TestDropTableWaitsForWriter|TestAlterWaitsForWriter|TestReaderNotBlockedByWaitingDDL|TestWriterWokenByDropKeepsItsBlock|TestDDLWriterDeadlock' -count=20 -timeout 10m ./internal/engine
	go test -race -run 'TestMove|TestRebalanceMoveMatrix' -count=20 -timeout 10m ./internal/fault/chaos
	go test -race -run 'TestBroadcastWakesWaiter|TestTimedOutWaitLeavesNoOneParked|TestWakeNeverMissed|TestCheckpointWakesParkedStream|TestWaitSyncWakesWhenLaggingStandbyFails|TestPromoteReturnsWhenWinnerReachesTip|TestWaitFreeWakesOnPutAndDiscard' -count=20 -timeout 10m ./internal/wake ./internal/wal ./internal/repl ./internal/pool
	go test -race -run 'TestSyncCommitLatency' -count=20 -timeout 10m ./internal/cluster
	go test -race -run 'TestParkedSessionProceedsOnPutOrDiscard' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestFailedCopyLeavesNothing|TestCopyInTransactionBlock|TestReferenceCopyReachesEveryReplica|TestFailedDistributionKeepsRows|TestDistributionRefusesNullKeys' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestInsertSelectMatchesLocalTable|TestConcurrentInsertSelectSessions|TestInsertSelectKeepsFloats|TestInsertSelectHiddenAggregate|TestAggregateUnderPredicateMatchesLocalTable|TestCloseWaitsForDaemons' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestCopyTwoPhaseCommitFaults' -count=20 -timeout 10m ./internal/fault/chaos
	go test -race -run 'TestSubqueryMatchesLocalTable|TestJoinOrderMatchesLocalTable|TestConcurrentSubplanSessions' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestCrashLosesTheWindow|TestAdoptedPreparedHoldsItsLocks' -count=20 -timeout 10m ./internal/wire ./internal/engine
	go test -race -run 'TestTCPCrashAndRestart|TestTCPFailoverAndRejoin' -count=20 -timeout 10m ./internal/cluster
	go test -race -run 'TestMXCoordinatorsShipDistinctResults' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestDeadlockDetectedUnderLockGraphFaults|TestNoFalseVictimWhenPollsDrop' -count=20 -timeout 10m ./internal/fault/chaos
	go test -race -run 'TestSSIEdgePollFailsClosed' -count=20 -timeout 10m ./internal/cluster
	go test -race -run 'TestRestorePointNeedsEveryNode' -count=20 -timeout 10m ./internal/citus
	go test -race -run 'TestGINMatchesSeqScan' -count=20 -timeout 10m ./internal/engine
	go test -race -run 'TestFunctionParity|TestNodeFunctionsOverWire' -count=20 -timeout 10m ./internal/wire
	go test -race -run 'TestRepeatableReadRetriesConcurrentUpdates' -count=20 -timeout 10m ./internal/engine
	go test -race -run 'TestChaosSmoke$$' -count=100 -timeout 20m ./internal/fault/chaos
	go test -race -count=3 -timeout 20m ./benchmark

# run every benchmark once so benchmark code can't bit-rot (the figure
# benchmarks live in the root package, on top of internal/bench, plus the
# vectorized-kernel microbenchmark in internal/vec — filter, projection, sum
# and the wide-group fold, each over typed vectors and row at a time), and
# run the A3
# plan-cache, A4 pipelining, A5 vectorization, A6 replica-routing and A7
# SSI ablations once (all variants) so the cached/pipelined/vectorized/
# replicated/serializable execution paths can't either — A5 and A6 also
# assert their counter splits (vec batches and rows, exactly; replicated vs
# primary reads), and A3 its own: no cached plan or statement on the off arm,
# more statement-cache hits than statements on the on arm — the workers'.
# The wire's, the ingest path's and the indexes' microbenchmarks (one hop of
# a point operation through the frame codec; one jsonb event's COPY frame
# across both hops plus the index expression; a GIN insert and search; a
# B-tree insert, in order and not, and equality search) run long enough for
# their allocs/op to mean something, and print them. BenchmarkTxnBlock (the
# two-update transaction over real TCP, single-node and cross-node) fails
# unless each costs its budget of worker requests and waits: 3 in 3, 6 in 4.
# BenchmarkVectorizedJoinQ3 and BenchmarkVectorizedDashboard are one shard's
# task of the repo benchmark's q_join and of its dashboard, row at a time and
# vectorized, with their allocations.
# The CI bench-smoke job runs this target, so this is the one list.
bench-smoke:
	go test -bench=. -benchtime=1x -run '^$$' -timeout 15m . ./internal/bench/... ./internal/vec
	go test -bench 'BenchmarkCodecPointOp|BenchmarkJSONBHop|BenchmarkGIN|BenchmarkBTree' -benchtime=2000x -benchmem -run '^$$' ./internal/wire ./internal/index
	go test -bench 'BenchmarkTxnBlock' -benchtime=500x -run '^$$' ./internal/cluster
	go test -bench 'BenchmarkVectorizedJoinQ3|BenchmarkVectorizedDashboard' -benchtime=100x -benchmem -run '^$$' ./internal/engine
	go test -run 'TestAblationSlowStartPlanCache|TestAblationPipelining|TestAblationVectorized|TestAblationReplicaRouting|TestAblationSSI' -count=1 -timeout 10m ./internal/bench

# the repo benchmark's committed trajectory: BENCH_<pr>.json is
#   go run ./benchmark -seed 1 -trace 1 -out BENCH_<pr>.json
# at that PR's commit, and BENCH_<prev>r.json the previous point's commit
# recorded again in the same session — the host moves 20-35 % between
# sessions, so only two files from one session compare. This pairs the newest
# BENCH_<pr>.json with its session's BENCH_<prev>r.json, metric by metric, with
# the benchmark's own bounds and verdicts (benchmark/README.md), and refuses
# when that partner is missing. One suite run each says where the numbers
# stand, not whether a gain is real: a claim still takes the ten alternating
# pairs of EXPERIMENTS.md.
bench-diff:
	@set -- $$(ls BENCH_*.json | grep -v 'r\.json$$' | tr -dc '0-9\n' | sort -n | tail -2); \
		test $$# -eq 2 || { echo "bench-diff: need two BENCH_<pr>.json files"; exit 1; }; \
		test -f BENCH_$${1}r.json || { echo "bench-diff: BENCH_$$2.json has no partner from its session (BENCH_$${1}r.json);" \
			"BENCH_$$1.json was recorded in another session and does not compare"; exit 1; }; \
		echo "bench-diff: BENCH_$${1}r.json -> BENCH_$$2.json"; go run ./benchmark -compare BENCH_$${1}r.json BENCH_$$2.json

# run citusbench with the slow-query log catching everything and assert the
# tracing pipeline emitted at least one trace (see docs/tracing.md)
trace-smoke:
	@n=$$(go run ./cmd/citusbench -fig 7a -tiny -trace-slow 0 2>&1 | grep -c 'slow-trace'); \
		echo "trace-smoke: $$n slow-trace lines emitted"; test "$$n" -ge 1

# race-enabled chaos run: concurrent writers + worker crash/restart under
# probabilistic wire faults (see docs/fault.md). The seed is printed; a
# failure reproduces with FAULT_SEED=<seed> make chaos-smoke
chaos-smoke:
	go test -race -run TestChaosSmoke -count=1 -timeout 120s -v ./internal/fault/chaos

# the full replication chaos-soak matrix (nightly CI, see
# .github/workflows/chaos-soak.yml): 8 fixed seeds x sync/async WAL
# shipping, each run injecting ship/apply delays and commit-record faults
# before a forced failover. A failing cell writes its seed + trace ring to
# chaos-artifacts/ and reproduces with
#   CHAOS_SOAK_SEEDS=<seed> make chaos-soak
chaos-soak:
	CHAOS_SOAK_SEEDS=101,202,303,404,505,606,707,808 \
	CHAOS_ARTIFACT_DIR=$(CURDIR)/chaos-artifacts \
	go test -race -run 'TestChaosSoakMatrix|TestChaosAsyncBoundedStaleness|TestChaosPromoteCrashPoints' -count=1 -timeout 900s -v ./internal/fault/chaos

# long open-loop production soak (nightly CI, see
# .github/workflows/soak.yml): mixed tenant traffic (TPC-C + YCSB +
# ILIKE dashboards + 2PC ledger + serializable bank) at fixed arrival
# rates with seeded faults and periodic failovers, invariants checked
# continuously. A violation dumps seed + trace rings to soak-artifacts/
# and reproduces with the printed -soak-seed. Twenty minutes: long enough
# for every node's log to be cut many times over, which is what the
# per-node WAL retention samples watch, and from ten minutes on the live-heap
# leak floor is 16 MiB, not the 64 of a PR-sized run (internal/soak/leaks.go)
soak:
	CHAOS_ARTIFACT_DIR=$(CURDIR)/soak-artifacts \
	go run ./cmd/citusbench -soak -soak-duration 1200s -soak-failovers 3

# the PR-sized soak slice: a 30s mixed run with one failover (must pass),
# then the checker self-test — a canary run that deliberately loses one
# acked ledger batch and MUST fail, catch the violation, and dump a
# reproduction artifact; the same seed is then re-run to prove the
# violation reproduces deterministically
soak-smoke:
	CHAOS_ARTIFACT_DIR=$(CURDIR)/soak-artifacts \
	go run ./cmd/citusbench -soak -soak-duration 30s -soak-seed 4242 -soak-failovers 1
	@rm -rf $(CURDIR)/soak-artifacts-canary && mkdir -p $(CURDIR)/soak-artifacts-canary
	@echo "--- canary: a run that loses one acked write MUST fail ---"
	! go run ./cmd/citusbench -soak -soak-duration 5s -soak-seed 777 -soak-canary \
		-soak-artifacts $(CURDIR)/soak-artifacts-canary
	@test -n "$$(ls $(CURDIR)/soak-artifacts-canary)" || \
		{ echo "canary violation produced no artifact"; exit 1; }
	@grep -q 'acked-write' $(CURDIR)/soak-artifacts-canary/soak-seed-777.txt || \
		{ echo "artifact missing the acked-write violation"; exit 1; }
	@echo "--- canary: same seed must reproduce the violation ---"
	! go run ./cmd/citusbench -soak -soak-duration 5s -soak-seed 777 -soak-canary \
		-soak-artifacts $(CURDIR)/soak-artifacts-canary
	@echo "soak-smoke: clean run passed, canary caught + reproduced"

# short native-fuzz smoke: wire protocol (framing, the frame codec against
# its gob reference, pipeline Seq correlation), vectorized-vs-row-path parity
# (columnar and heap tables, hash joins, tuples of open and aborted transactions,
# columnar stripes cut by checkpoints and holding such transactions' segments
# between committed ones, derived columns over jsonb documents with and without a trigram GIN index),
# the flat jsonb encoding against its tree oracle (plus arbitrary bytes
# through jsonb.FromWire), the recovery oracle (random schedules with
# checkpoints forced at random points, one while a columnar insert is open: an
# engine rebuilt from base + tail, one
# rebuilt from the whole log and the live one must agree), and the index
# oracle (a byte script driving a B-tree and a GIN against a sorted slice and
# a map, every search compared after every step), the trigram index's
# maintenance (documents of a fuzzed seed through COPY, UPDATE, DELETE and
# VACUUM, and TRUNCATE: each index answers LIKE and ILIKE as a sequential scan
# does, and keys the row the way the evaluator's text reads), and the SQL parser (parse
# never panics; parse -> deparse -> parse is a fixed point, seeded with the
# SQL strings of its tests and of the workload generators; a literal of a
# fuzzed datum deparses to text that parses back to the same datum), and the
# heap tuple's bytes (every datum kind written by INSERT, COPY and UPDATE reads
# back the same through Get, the row scan, the vectorized decode, log replay,
# a checkpoint restore and a standby's apply), and heap-only updates (a
# schedule of inserts, updates that keep or change an indexed column, deletes,
# VACUUM and CREATE INDEX, with an old snapshot held open: every query through
# an index returns what it returns on a twin table with none), and the paged
# commit log (Begin, commit, abort, prepare and the replay paths at page
# boundaries and across 1<<40 base jumps, against a map of statuses, with the
# snapshot's in-progress list and the log's size checked after every step);
# longer local runs just extend the same corpus:
#   go test ./internal/wire -fuzz FuzzWireFraming -fuzztime 10m
#   go test ./internal/wire -fuzz FuzzCodecParity -fuzztime 10m
#   go test ./internal/wire -fuzz FuzzPipelineSeq -fuzztime 10m
#   go test ./internal/engine -fuzz FuzzVecParity -fuzztime 10m
#   go test ./internal/jsonb -fuzz FuzzJSONB -fuzztime 10m
#   go test ./internal/engine -fuzz FuzzRecovery -fuzztime 10m
#   go test ./internal/index -fuzz FuzzIndex -fuzztime 10m
#   go test ./internal/engine -fuzz FuzzGINParity -fuzztime 10m
#   go test ./internal/sql -fuzz FuzzParseDeparse -fuzztime 10m
#   go test ./internal/engine -fuzz FuzzTupleBytes -fuzztime 10m
#   go test ./internal/engine -fuzz FuzzHOTParity -fuzztime 10m
#   go test ./internal/txn -fuzz FuzzClog -fuzztime 10m
fuzz-smoke:
	go test ./internal/wire -run '^$$' -fuzz FuzzWireFraming -fuzztime 15s
	go test ./internal/wire -run '^$$' -fuzz FuzzCodecParity -fuzztime 15s
	go test ./internal/wire -run '^$$' -fuzz FuzzPipelineSeq -fuzztime 15s
	go test ./internal/engine -run '^$$' -fuzz FuzzVecParity -fuzztime 15s
	go test ./internal/jsonb -run '^$$' -fuzz FuzzJSONB -fuzztime 15s
	go test ./internal/engine -run '^$$' -fuzz FuzzRecovery -fuzztime 15s
	go test ./internal/index -run '^$$' -fuzz FuzzIndex -fuzztime 15s
	go test ./internal/engine -run '^$$' -fuzz FuzzGINParity -fuzztime 15s
	go test ./internal/sql -run '^$$' -fuzz FuzzParseDeparse -fuzztime 15s
	go test ./internal/engine -run '^$$' -fuzz FuzzTupleBytes -fuzztime 15s
	go test ./internal/engine -run '^$$' -fuzz FuzzHOTParity -fuzztime 15s
	go test ./internal/txn -run '^$$' -fuzz FuzzClog -fuzztime 15s

# the full CI pipeline (.github/workflows/ci.yml), reproducible locally
ci: build vet fmt-check lint test race stress bench-smoke trace-smoke chaos-smoke soak-smoke fuzz-smoke

# one testing.B benchmark per paper figure (test scale)
bench:
	go test -bench=. -benchmem ./...

# regenerate every figure of the paper's evaluation at the default scale
figures:
	go run ./cmd/citusbench -fig all

examples:
	go run ./examples/quickstart
	go run ./examples/multitenant
	go run ./examples/realtime
	go run ./examples/venicedb
