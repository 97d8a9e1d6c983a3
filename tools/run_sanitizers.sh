#!/bin/sh
# Build the sanitizer trees and run, under each, the tests where a
# sanitizer report would break a contract:
#
#  - ThreadSanitizer (default build-tsan): the concurrency-, robustness-,
#    mapper- and evaluator-labeled tests — the thread pool, the
#    deterministic-reduction property tests, cancellation, journaled
#    resume, the fault-injected sweep paths, the analytic mapper's
#    parallel refinement and the batch evaluator's per-worker
#    block-part table, where a data race would silently break the
#    bit-identical-results contract.
#  - AddressSanitizer + UndefinedBehaviorSanitizer (default build-asan):
#    the timeline-, style-, mapper-, serving-, robustness- and
#    evaluator-labeled tests plus test_dse — the batch evaluators write
#    flat (lane, phase) value arrays, the evaluator's block-part table
#    probes an open-addressed pair index, and the searches index
#    per-slice tables and bitmaps, none of which TSan bounds-checks;
#    the robustness tests drive the CLI's flag parser, the journals
#    and the fault-injected paths with hostile input. A test binary
#    with several labels (tests/CMakeLists.txt) runs under each leg
#    that names one of them. UBSan halts on its first report, so a
#    report fails the test that triggered it, and libstdc++'s
#    assertions bounds-check every container index on the way.
#
# Usage: tools/run_sanitizers.sh [TSAN_BUILD_DIR [ASAN_BUILD_DIR]]
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
tsan=${1:-"$repo/build-tsan"}
asan=${2:-"$repo/build-asan"}
jobs=$(nproc 2>/dev/null || echo 4)

build() {
    cmake -B "$1" -S "$repo" \
        -DFLAT_SANITIZE="$2" \
        -DCMAKE_CXX_FLAGS="$3" \
        -DFLAT_BUILD_BENCH=OFF \
        -DFLAT_BUILD_EXAMPLES=OFF
    cmake --build "$1" -j "$jobs"
}

build "$tsan" thread ""
ctest --test-dir "$tsan" -L 'concurrency|robustness|mapper|evaluator' \
    --output-on-failure -j "$jobs"

build "$asan" address,undefined -D_GLIBCXX_ASSERTIONS
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
ctest --test-dir "$asan" \
    -L 'timeline|style|mapper|serving|robustness|evaluator' \
    --output-on-failure -j "$jobs"
"$asan/tests/test_dse"
