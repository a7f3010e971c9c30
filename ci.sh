#!/usr/bin/env bash
# Tier-1 verify with warnings-as-errors on src/: configure, build, ctest —
# then the same test suite again under AddressSanitizer + UBSan, which is
# what catches netbuf lifetime/offset bugs (e.g. the TCP Output() OOB read
# when a FIN was in flight) that pass unnoticed in a plain build. The
# sanitizer leg runs with UKRAFT_QUEUES=2 so every TestBed-based test (posix,
# apps, integration) exercises the RSS-sharded multi-queue datapath — queue
# steering, per-queue pools and the demux sharding get ASan/UBSan coverage on
# every push, not just the dedicated multi-queue suite. The leg finishes with
# a blocking-mode bench pass (--wait: uksched wait queues + RX interrupt
# arming over 2 queues) so the wakeup path gets sanitizer coverage too.
# SMP legs: the plain suite reruns at UKRAFT_QUEUES=4 plus the RSS-scaling
# throughput gate, and a ThreadSanitizer flavor covers the sharded suites
# (SPSC rings, doorbells, per-queue loops).
# Fleet legs: ctest is split into tier1 (fast, everything) and tier2 (the
# multi-instance fleet scenarios); the fleet-scaling bench gates >=3x churn
# at 4 backends plus cold-start-under-load, and reruns under ASan+UBSan.
# Markdown hygiene: every relative link in every *.md must resolve.
# Usage: ./ci.sh [build-dir]   (default: build-ci; sanitizer legs append
# -asan / -tsan)
set -euo pipefail

BUILD_DIR="${1:-build-ci}"
ASAN_BUILD_DIR="${BUILD_DIR}-asan"
JOBS="$(nproc 2>/dev/null || echo 4)"

# ---- markdown link check ----------------------------------------------------
# Relative link targets in [text](target) must exist on disk (http(s)/mailto
# and pure-anchor links are skipped; "#section" suffixes are stripped).
check_md_links() {
  local fail=0 md dir link target
  while IFS= read -r md; do
    dir="$(dirname "$md")"
    while IFS= read -r link; do
      [[ -z "$link" ]] && continue
      # Legal markdown variants: strip an optional quoted title suffix and
      # <angle brackets> around the target before testing existence.
      link="$(printf '%s' "$link" | sed -E 's/[[:space:]]+"[^"]*"[[:space:]]*$//; s/^<(.*)>$/\1/')"
      case "$link" in
        http://*|https://*|mailto:*|\#*) continue ;;
      esac
      target="${link%%#*}"
      [[ -z "$target" ]] && continue
      if [[ ! -e "$dir/$target" ]]; then
        echo "ci: broken markdown link in $md -> $link" >&2
        fail=1
      fi
    done < <(grep -oE '\]\([^)]+\)' "$md" 2>/dev/null | sed -E 's/^\]\(//; s/\)$//' || true)
  done < <(find . -name '*.md' -not -path './build*' -not -path './.git/*')
  return "$fail"
}
check_md_links
echo "ci: markdown links OK"

# The example programs check themselves end to end (example_webserver drives
# WrkClient against HttpServer on StreamServer under a scheduler and requires
# zero idle poll growth); a nonzero exit fails the push.
run_examples() {
  local ex
  for ex in "$1"/example_*; do
    if ! "$ex" > /dev/null < /dev/null; then
      echo "ci: $ex exited nonzero" >&2
      return 1
    fi
  done
}

cmake -B "$BUILD_DIR" -S . -DUKRAFT_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
# Fast feedback first: tier1 (everything but the fleet scenarios) fails the
# push within seconds, then tier2 runs the heavyweight multi-instance
# scenarios — balancer steering, kill/respawn cold-start, churn at scale.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L tier1
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L tier2
run_examples "$BUILD_DIR"

# SMP scale-out leg: the same suite at full RSS width (every TestBed-based
# test runs 4 queues / 4 shards), then the cores-vs-throughput gate — the
# scaling bench self-checks >=1.7x aggregate throughput at 2 queues and >=3x
# at 4 vs 1, with zero TX-pool churn on every shard, and emits
# BENCH_rss_scaling.json next to the build dir.
UKRAFT_QUEUES=4 ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
(cd "$BUILD_DIR" && ./bench_fig_rss_scaling)

# Benchmark self-checks: perfbench/ is a CMake package of its own (it compiles
# src/ itself), so its unit tests (statistics, reference loop, layer ledger,
# tracing decorators) get a build dir of their own. Then a 2-second smoke of
# three workloads through the benchmark's own entry point; each generator
# checks every reply against a per-key version model and the last stdout line
# must say "correct": true. udp-kv-4q is the only end-to-end check of the
# sharded KvServer's deferred cross-shard replies; resp-pingpong and
# durable-restart carry the TCP request/reply path (delayed ACKs riding the
# replies) and the kill+reboot with AOF replay.
PERFBENCH_BUILD_DIR="${BUILD_DIR}-perfbench"
cmake -B "$PERFBENCH_BUILD_DIR" -S perfbench
cmake --build "$PERFBENCH_BUILD_DIR" -j "$JOBS" --target perfbench_test
"$PERFBENCH_BUILD_DIR"/perfbench_test
for PERFBENCH_WORKLOAD in udp-kv-4q resp-pingpong durable-restart; do
  PERFBENCH_LAST="$(python3 perfbench/run.py --workload "$PERFBENCH_WORKLOAD" --seed 1 \
    --seconds 2 --trace 0 | tail -n 1)"
  if [[ "$PERFBENCH_LAST" != *'"correct": true'* ]]; then
    echo "ci: perfbench $PERFBENCH_WORKLOAD smoke was not correct: $PERFBENCH_LAST" >&2
    exit 1
  fi
done

# Fleet scaling gate: churn through the L4 balancer must reach >=3x the
# 1-backend rate at 4 backends with zero aborted connections, and the
# cold-start leg must see a killed backend's replacement serve its first
# reply while the survivors never stop (emits BENCH_fleet_scaling.json).
(cd "$BUILD_DIR" && ./bench_fleet_scaling)

# Persistence gate: the per-turn AOF must hold >=70% of the AOF-off SET
# throughput (batching amortizes the log to one write+flush per turn), and
# replay-on-boot must restore snapshot + AOF tail exactly at >=10k keys/s
# across 1k/5k/20k-key datasets (emits BENCH_persist.json). The persistence
# unit suite (persist_test, storage_test) already rides every ctest tier1 leg
# above, and the durable-reboot fleet scenario rides tier2.
(cd "$BUILD_DIR" && ./bench_persist)

cmake -B "$ASAN_BUILD_DIR" -S . -DUKRAFT_WERROR=ON -DUKRAFT_SANITIZE=ON
cmake --build "$ASAN_BUILD_DIR" -j "$JOBS"
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" UKRAFT_QUEUES=2 \
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j "$JOBS"
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" \
  run_examples "$ASAN_BUILD_DIR"

# Scheduler teardown leg: a real thread left blocked when its ThreadScheduler
# dies is detached and must never touch the freed scheduler again. A wait that
# does only fails when the parked thread is descheduled at the wrong moment;
# this repeat is a regression guard, not a reproducer (the use-after-free it
# guards against did not show up in 400 repeats of this filter under ASan).
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" \
  "$ASAN_BUILD_DIR"/uksched_test --gtest_repeat=50 \
  --gtest_filter='*DetachAtTeardown*:*ManyThreadsAllComplete*'

# Blocking-mode bench leg: wait queues, interrupt arming and the scheduler's
# idle clock jumps under ASan+UBSan, sharded across 2 queues.
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" UKRAFT_QUEUES=2 \
  "$ASAN_BUILD_DIR"/bench_fig_idle_wakeup --wait --queues 2 --rounds 40

# Event-loop legs: the unified readiness path (uknet edges -> posix epoll ->
# apps::EventLoop) serving 64 concurrent TCP connections from one blocked
# thread, and the socket-batch kvstore sleeping in EpollWait between bursts.
# Both binaries self-check (idle spins == 0, heap delta == 0) and fail the
# leg on violation; UKRAFT_QUEUES=2 shards the TestBed-based kvstore leg.
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" UKRAFT_QUEUES=2 \
  "$ASAN_BUILD_DIR"/bench_tab5_tcp_echo --eventloop
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" UKRAFT_QUEUES=2 \
  "$ASAN_BUILD_DIR"/bench_tab4_kvstore --eventloop

# Fleet leg under ASan+UBSan: the full multi-instance lifecycle — Instance
# boot/shutdown/reboot, wire port reset, balancer flow teardown on MarkDown,
# per-connection splice state — is exactly where lifetime bugs would hide.
# The scenario suite and the scaling/cold-start gate both run sanitized.
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" \
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -L tier2
(cd "$ASAN_BUILD_DIR" && UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" \
  ./bench_fleet_scaling)

# Persistence leg under ASan+UBSan: snapshot chunking, COW-lite pre-images,
# AOF segment rotation and the CRC replay path all shuffle byte buffers
# through the blockfs bounce region — lifetime/offset territory.
(cd "$ASAN_BUILD_DIR" && UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" \
  ./bench_persist)

# TCP loss-recovery leg: a 1 MB echo at 1% deterministic frame loss, modern
# (NewReno + SACK + delayed ACKs + window scaling) vs legacy stop-and-wait.
# The binary self-checks: modern must beat legacy by >=5x, recover via fast
# retransmit (not RTO stalls), and complete every retransmission on the
# retained-segment zero-copy path (rexmit_copy_allocs == 0). Running it under
# ASan+UBSan puts the recovery machinery -- scoreboard marking, retained-netbuf
# re-emission, OOO range merging -- under lifetime/offset checking on every
# push, and emits BENCH_tab5_tcp_loss.json next to the build dir.
UBSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="detect_leaks=0" \
  "$ASAN_BUILD_DIR"/bench_tab5_tcp_echo --loss

# ThreadSanitizer flavor over the sharded/concurrency suites: the SPSC ring
# acquire/release protocol, the per-queue doorbells and the 4-shard scale
# test are exactly the code whose correctness on real SMP rests on memory
# ordering; the scheduler's fiber annotations make the ucontext switches
# visible to TSan so cross-loop accesses are actually checked. ukarch_test
# rides along for the statistics counters (ukarch/counters.h), whose
# concurrency test runs one real std::thread per counter slot.
TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_BUILD_DIR" -S . -DUKRAFT_WERROR=ON -DUKRAFT_SANITIZE=tsan
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" --target \
  smp_shard_test uknet_multiqueue_test uknet_wait_test uknet_tcp_loss_test \
  ukarch_test
UKRAFT_QUEUES=4 "$TSAN_BUILD_DIR"/smp_shard_test
UKRAFT_QUEUES=4 "$TSAN_BUILD_DIR"/uknet_multiqueue_test
UKRAFT_QUEUES=4 "$TSAN_BUILD_DIR"/uknet_wait_test
UKRAFT_QUEUES=4 "$TSAN_BUILD_DIR"/uknet_tcp_loss_test

# Real-OS-thread stress leg: the same TSan build reruns the concurrency
# suites with UKRAFT_THREADS=real — every uksched loop on its own pinned
# std::thread, no fiber annotations, only native mutex/condvar edges. This is
# the strongest check in the file: TSan sees the per-loop counters, the RCU
# registry grace periods, the SPSC rings and the doorbell protocol as genuine
# cross-thread traffic and validates every ordering claim the comments make.
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" --target uksched_test fleet_test
UKRAFT_THREADS=real "$TSAN_BUILD_DIR"/uksched_test
UKRAFT_THREADS=real "$TSAN_BUILD_DIR"/ukarch_test
UKRAFT_THREADS=real UKRAFT_QUEUES=4 "$TSAN_BUILD_DIR"/smp_shard_test
UKRAFT_THREADS=real UKRAFT_QUEUES=4 "$TSAN_BUILD_DIR"/uknet_multiqueue_test
UKRAFT_THREADS=real UKRAFT_QUEUES=4 "$TSAN_BUILD_DIR"/uknet_wait_test
# The fleet scenarios reboot Instances whose boot path spins up a scheduler;
# with real threads that is genuine cross-thread lifecycle traffic.
UKRAFT_THREADS=real "$TSAN_BUILD_DIR"/fleet_test

# Real-thread scaling gate: the same >=1.7x/>=3x speedups and zero TX-pool
# churn with every per-queue pump loop hosted on a real pinned thread
# (emits BENCH_rss_scaling_threads.json next to the fiber-mode trendline).
(cd "$BUILD_DIR" && UKRAFT_THREADS=real ./bench_fig_rss_scaling --threads)

echo "ci: OK (src/ built with -Wall -Wextra -Werror; markdown links checked; tests passed tier1+tier2 plain, the examples ran clean plain and sanitized, at UKRAFT_QUEUES=4 with the RSS-scaling, fleet-scaling and persistence gates, perfbench_test and correct udp-kv-4q, resp-pingpong and durable-restart perfbench smokes, and under ASan+UBSan with UKRAFT_QUEUES=2, incl. the blocking --wait, --eventloop, TCP --loss, fleet, persistence and 50x scheduler-teardown legs; TSan covered the sharded suites plus the counter, loss-pattern and fleet suites in fiber AND real-thread mode, and the scaling gate held on real threads)"
