#!/usr/bin/env bash
# cluster_smoke.sh — three real dpdserver processes, zipf traffic
# through the routing client, one live migration, one kill -9 failover.
#
# This is the out-of-process counterpart to the in-process cluster
# differentials: it proves the actual binaries wire the cluster flags
# correctly end to end. Every dpdload run barriers before exiting, so a
# zero exit status means every sample was applied by some node's pool.
set -euo pipefail
cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
cleanup() {
    kill -9 "${pids[@]}" 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT
go build -o "$bin" ./cmd/dpdserver ./cmd/dpdload

# Fixed high ports; name=ingest,http,transfer per member.
M1="-cluster-node n1=127.0.0.1:17700,127.0.0.1:17701,127.0.0.1:17702"
M2="-cluster-node n2=127.0.0.1:17710,127.0.0.1:17711,127.0.0.1:17712"
M3="-cluster-node n3=127.0.0.1:17720,127.0.0.1:17721,127.0.0.1:17722"
HTTPS=(127.0.0.1:17701 127.0.0.1:17711 127.0.0.1:17721)
pids=()
for i in 1 2 3; do
    ingest="127.0.0.1:177$((i - 1))0"
    http="127.0.0.1:177$((i - 1))1"
    # shellcheck disable=SC2086 # member flags are intentionally word-split
    "$bin/dpdserver" -ingest "$ingest" -http "$http" \
        -cluster-self "n$i" $M1 $M2 $M3 -follow-every 50ms &
    pids+=($!)
done

# Wait for every node to serve its routing table.
for h in "${HTTPS[@]}"; do
    for _ in $(seq 100); do
        curl -fsS "http://$h/cluster/route" >/dev/null 2>&1 && break
        sleep 0.1
    done
    curl -fsS "http://$h/cluster/route" >/dev/null
done
echo "cluster_smoke: 3 nodes up"

routers="${HTTPS[0]},${HTTPS[1]},${HTTPS[2]}"

# 1. Skewed traffic through the router: hot keys hammer one owner.
"$bin/dpdload" -cluster "$routers" -conns 2 -streams 48 -samples 1024 \
    -batch 64 -dist zipf:0.99 -seed 7

# 2. Live migration. A self-move is a 200 no-op on the owner and a
#    refusal everywhere else, so it locates key 0's owner without
#    changing anything; then one real move must bump the epoch by one.
epoch() { curl -fsS "http://${HTTPS[0]}/cluster/route" | grep -o '"epoch": *[0-9]*' | grep -o '[0-9]*'; }
before="$(epoch)"
owner="" owner_http=""
for i in 1 2 3; do
    h="${HTTPS[$((i - 1))]}"
    if curl -fsS -X POST "http://$h/cluster/move?key=0&to=n$i" >/dev/null 2>&1; then
        if [ -n "$owner" ]; then
            echo "cluster_smoke: both $owner and n$i claim key 0" >&2
            exit 1
        fi
        owner="n$i" owner_http="$h"
    fi
done
if [ -z "$owner" ]; then
    echo "cluster_smoke: no node claims key 0" >&2
    exit 1
fi
target="n1"
[ "$owner" = "n1" ] && target="n2"
curl -fsS -X POST "http://$owner_http/cluster/move?key=0&to=$target" >/dev/null
after="$(epoch)"
if [ "$after" -ne $((before + 1)) ]; then
    echo "cluster_smoke: move bumped epoch $before -> $after, want +1" >&2
    exit 1
fi
# The old owner no longer accepts a move for the key it gave away.
if curl -fsS -X POST "http://$owner_http/cluster/move?key=0&to=$owner" >/dev/null 2>&1; then
    echo "cluster_smoke: old owner $owner still accepts moves for key 0" >&2
    exit 1
fi
echo "cluster_smoke: migrated key 0 $owner -> $target (epoch $after)"

# 3. Traffic after the move still lands exactly once, across the bumped
#    epoch (fresh keys plus the migrated one).
"$bin/dpdload" -cluster "$routers" -conns 2 -streams 48 -samples 512 \
    -batch 64 -seed 8

# 4. Kill an owner without goodbye and fail its streams over.
kill -9 "${pids[2]}"
# Failover checks the verdict (it refuses while the member's transfer
# port answers), so wait until the process is really gone.
wait "${pids[2]}" 2>/dev/null || true
curl -fsS -X POST "http://${HTTPS[0]}/cluster/failover?node=n3" >/dev/null
if curl -fsS "http://${HTTPS[0]}/cluster/route" | grep -q '"n3"'; then
    echo "cluster_smoke: n3 still in the routing table after failover" >&2
    exit 1
fi

# 5. Survivors carry the full keyspace; the router routes around n3.
"$bin/dpdload" -cluster "${HTTPS[0]},${HTTPS[1]}" -conns 2 -streams 48 \
    -samples 512 -batch 64 -dist zipf:0.99 -seed 9
echo "cluster_smoke: OK"
