#!/bin/sh
# Tier-1 verify recipe (see ROADMAP.md): build, vet, full test suite,
# and the race detector over the concurrent packages.
set -eux

go build ./...
go vet ./...
go test ./...
# The workload benchmark is its own module (workbench/go.mod), so the
# root ./... never builds it: vet and test it here, so an internal API
# change cannot break the benchmark's build unnoticed.
(cd workbench && go vet ./... && go test ./...)
go test -race ./internal/core/... ./internal/machine/...
# apps.New hands one shared instance per application and scale to every
# caller: race its first build and concurrent runs on shared instances.
go test -race -count=1 -run 'Shared' ./internal/apps/
# Race pass over the experiment/metrics aggregation path, the fault
# model, the HTTP serving layer (journal + async jobs + the fair-share
# tenant scheduler + SSE streaming + cluster membership included), and
# the snapshot codec (-short skips the double experiment regeneration
# and the chaostest daemon-kill harness, which runs in the plain pass
# above).
go test -race -short ./internal/cluster/... ./internal/exp/... ./internal/net/... ./internal/serve/... ./internal/snap/...
# Race pass over the resilience layer specifically: circuit breakers,
# the seeded chaos transport, hedged forwarding, brownout/deadline-
# aware admission, and the retrying client. These are the paths where
# goroutines race by design (hedges vs primaries, probes vs claims),
# so they get a dedicated -count=1 run in addition to the -short pass
# above.
go test -race -count=1 -run 'Breaker|Chaos|Hedge|Brownout|Doomed|Gate|Retr|ForwardTo|Partition' -short ./internal/cluster/ ./internal/serve/ ./internal/serve/client/
# The cycle-accounting layer carries an exactness guarantee; hold its
# unit coverage at >= 70%.
cover=$(go test -cover ./internal/metrics/ | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
test -n "$cover"
awk "BEGIN { exit !($cover >= 70.0) }"
# The network layer (topology routing/queueing, congestion, faults)
# decides every shared round trip; hold its unit coverage at >= 70%.
netcover=$(go test -cover ./internal/net/ | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
test -n "$netcover"
awk "BEGIN { exit !($netcover >= 70.0) }"
