#!/usr/bin/env bash
# Builds the parallel and network tests under ThreadSanitizer and runs
# them.
#
# The thread pool has two users, both designed to be TSan-clean with all
# cross-thread visibility going through the pool's wave mutex: batch
# solving (workload::solveSuite, one solver per lane) and the socket
# server's read waves. The rest of the socket serving stack — event loop,
# writer lane, and RCU view publishing, exercised end to end over
# loopback by net_tests — is held to the same bar; this script is the
# check. Uses a dedicated build
# directory so the instrumented build never mixes with the normal one.
#
# Usage: scripts/tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
cmake -B "$BUILD_DIR" -S . -DPOCE_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target parallel_tests core_tests net_tests
cd "$BUILD_DIR"
# HistogramTest.ConcurrentRecordsAllLand checks the registry's lock-free
# increments are TSan-clean alongside the pool's wave protocol; the Net
# suites drive concurrent socket clients against the epoll server, and
# the ReadView suite reads captured views while the writer captures the
# next epoch from them.
ctest --output-on-failure \
  -R '(ThreadPool|BatchSolve|Histogram|MetricsRegistry|Net|ReadView)' "$@"
