#!/usr/bin/env bash
# Builds and runs the crypto + queue (+ verify-pool and batch-wake runtime)
# tests under ASan, UBSan, and TSan via the -DRDB_SANITIZE CMake option.
#
#   scripts/check_sanitizers.sh [address|undefined|thread ...]
#
# With no arguments all three sanitizers run. Each configuration builds into
# its own directory (build-asan / build-ubsan / build-tsan) so the regular
# ./build tree is left untouched.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS=("$@")
if [ ${#SANITIZERS[@]} -eq 0 ]; then
  SANITIZERS=(address undefined thread)
fi

# crypto_test / ed25519_test cover the new hot-path arithmetic; queues_test
# covers the lock-free handoff; the runtime verify-pool tests exercise the
# parallel verification stage; chaos_test runs the recovery drills (primary
# crash, partition+heal, dup/reorder storms) and tcp_transport_test the
# self-healing reconnect path — the richest TSan targets in the repo.
# storage_test + recovery_test cover the durable path: WAL group commit,
# fault-injected crash points, and hard-kill replica rejoin. The
# Runtime.BatchWake* tests drive the batch threads' epoch sleep: repeated
# idle stop() (no thread left asleep) and a batch_size 1 burst (no lost
# wake-up).
UNIT_TESTS=(crypto_test ed25519_test batch_verify_test queues_test
            chaos_test tcp_transport_test storage_test recovery_test)
RUNTIME_FILTER='Runtime.VerifyPool*:Runtime.BatchWake*'

status=0
for san in "${SANITIZERS[@]}"; do
  case "$san" in
    address)   dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    thread)    dir=build-tsan ;;
    *) echo "unknown sanitizer: $san (want address|undefined|thread)" >&2
       exit 2 ;;
  esac

  echo "=== [$san] configure + build -> $dir ==="
  cmake -B "$dir" -S . -DRDB_SANITIZE="$san" >/dev/null
  cmake --build "$dir" --target "${UNIT_TESTS[@]}" runtime_test -j"$(nproc)"

  for t in "${UNIT_TESTS[@]}"; do
    echo "=== [$san] $t ==="
    if ! "$dir/tests/$t"; then
      echo "FAIL: $t under $san" >&2
      status=1
    fi
  done

  echo "=== [$san] runtime_test ($RUNTIME_FILTER) ==="
  if ! "$dir/tests/runtime_test" --gtest_filter="$RUNTIME_FILTER"; then
    echo "FAIL: runtime_test under $san" >&2
    status=1
  fi

  echo "=== [$san] rdb_chaos --drill crash-restart ==="
  cmake --build "$dir" --target rdb_chaos -j"$(nproc)"
  if ! "$dir/tools/rdb_chaos" --drill crash-restart --seed 42; then
    echo "FAIL: crash-restart drill under $san" >&2
    status=1
  fi

  # Determinism drill: a dup/reorder storm while asserting byte-identical
  # execution fingerprints (exec_acc) across replicas and a silent
  # divergence tripwire — nondeterministic execution that only shows up
  # under sanitizer-altered timing is exactly what this catches.
  echo "=== [$san] rdb_chaos --drill dup-reorder (exec fingerprints) ==="
  if ! "$dir/tools/rdb_chaos" --drill dup-reorder --seed 42; then
    echo "FAIL: dup-reorder fingerprint drill under $san" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "all sanitizer runs passed"
else
  echo "sanitizer failures detected" >&2
fi
exit "$status"
