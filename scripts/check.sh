#!/usr/bin/env bash
# Pre-merge verification gate. Stages, in default order:
#
#   lint-diff — bigfish-lint --since=origin/main (HEAD~1 when there is
#               no origin/main): the fast first gate, linting only the
#               files this branch changed while the cross-TU passes
#               still scan the whole tree. Skipped (with a notice) in
#               a repo with no base revision.
#   lint      — bigfish-lint over src/ bench/ examples/ tests/ and
#               tools/bigfish/ with the checked-in config
#               (tools/lint/bigfish-lint.toml): the determinism,
#               error-propagation, layering and concurrency invariants,
#               enforced statically. Fails on any finding.
#   cppcheck  — general C++ static analysis; skipped with a notice when
#               cppcheck is not installed.
#   cli-smoke — `bigfish run --all --smoke`: every registered experiment
#               end-to-end at tiny scale, plus CLI exit-code/usage
#               checks (strict env validation, unknown-flag rejection).
#   resume-smoke — kill -9 a `--cache-dir` run once a collection chunk
#               entry exists, rerun it on the same cache (it must say
#               how many chunks it replayed) and require an artifact
#               bit-identical to an uncached run; then force an IO
#               crash (`--io-crash-after=1`) under `--isolate
#               --keep-going` and require exit 1 with a complete suite
#               manifest (crashed + ok).
#   simd      — the DESIGN.md §10 determinism gate: the kernel test
#               binary under BF_SIMD=scalar and avx2; two table1 smokes
#               (one per BF_SIMD) whose artifacts must be bit-identical;
#               a table1 smoke under the retired BF_SIMD=sse2, which
#               must warn that it ignores the value and still match
#               scalar; and a cache-reuse smoke — two runs with
#               --cache-dir where the second must hit the stage cache
#               and replay a bit-identical artifact.
#   stage-cache — the stage-graph reuse gate: a cold --cache-dir run,
#               then a warm run with only eval folds changed (must skip
#               Collect/Featurize but retrain) and a warm run with only
#               --topk changed (must replay fold scores and skip
#               training entirely), each proven via --explain
#               provenance and bit-identical to a fresh uncached run;
#               every featurized entry must carry the v2 header, and a
#               featurized entry rewritten to a v1 header must warn
#               once, be stored again and still give an artifact
#               identical to a fresh run. A cold --threads=1 fill must
#               write collect and featurized entries byte-identical to
#               the --threads=2 fill, and after half its collect chunks
#               and every featurized entry are deleted, a rerun must
#               replay the other half and rewrite every featurized entry
#               byte for byte.
#   sim-perf  — the simulator perf-counter gate (DESIGN.md §13): the
#               test_sim_perf determinism suite, then a table1 smoke
#               whose --explain table and schemaVersion-3 artifact must
#               carry the per-stage sim counters, with the counter
#               values identical across --threads and BF_SIMD. Then a
#               memory leg: it prints the smoke's peakRssMb at
#               --threads=1 and --threads=4 and fails when the second
#               exceeds the first by more than 15 MB per extra worker
#               (one interval buffer per worker measures 11.5-13 MB;
#               two measured 17-22 MB).
#   address   — full build + ctest under AddressSanitizer.
#   undefined — full build + ctest under UBSan.
#   thread    — full build + ctest under ThreadSanitizer; this covers
#               the task executor and stage-graph tests (TaskGroup.*,
#               StageGraphExecute.*) and the batched pipeline
#               (PipelineBatch.*) in tests/parallel_test.cc.
#   threads8  — plain build + ctest with BF_THREADS=8 to exercise the
#               parallel execution paths (and the bit-identity tests,
#               the executor and batch tests included).
#
# Sanitizer and threads8 stages build with BIGFISH_WERROR=ON so the
# hardened warning set (-Wall -Wextra -Wshadow -Wconversion) gates the
# merge as well. The plain (unsanitized) build stays in build/.
#
# Every run ends with a summary table (stage, result, wall time). A
# stage that cannot run because its tool is missing reports `skipped`;
# with BIGFISH_REQUIRE_TOOLS=1 in the environment (CI), any skipped
# stage fails the gate instead of silently passing.
#
# Usage:
#   scripts/check.sh [lint-diff|lint|cppcheck|cli-smoke|resume-smoke|simd|stage-cache|sim-perf|address|undefined|thread|threads8]...
#   With no arguments, runs every stage.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=(lint-diff lint cppcheck cli-smoke resume-smoke simd stage-cache
            sim-perf address undefined thread threads8)
fi

jobs="$(nproc 2>/dev/null || echo 4)"

# Temp dirs registered by stages; removed on exit.
tmpdirs=()
cleanup() { [ ${#tmpdirs[@]} -gt 0 ] && rm -rf "${tmpdirs[@]}"; return 0; }

# --- End-of-run summary ------------------------------------------------
# Each completed stage appends (name, result, seconds); the EXIT trap
# prints the table even when a stage aborts the run, marking the stage
# that was in flight as failed.
summary_names=()
summary_states=()
summary_secs=()
current_stage=""
stage_begin=0
stage_state=ok

record_stage() {
    summary_names+=("$1")
    summary_states+=("$2")
    summary_secs+=("$3")
}

finish() {
    rc=$?
    cleanup
    if [ -n "$current_stage" ]; then
        record_stage "$current_stage" failed "$((SECONDS - stage_begin))"
    fi
    if [ ${#summary_names[@]} -gt 0 ]; then
        echo
        echo "== stage summary"
        printf '   %-14s %-8s %8s\n' stage result seconds
        skipped=0
        for i in "${!summary_names[@]}"; do
            printf '   %-14s %-8s %8s\n' "${summary_names[$i]}" \
                "${summary_states[$i]}" "${summary_secs[$i]}"
            [ "${summary_states[$i]}" = skipped ] && skipped=$((skipped + 1))
        done
        if [ "$rc" -eq 0 ] && [ "$skipped" -gt 0 ] &&
           [ "${BIGFISH_REQUIRE_TOOLS:-0}" = "1" ]; then
            echo "== $skipped stage(s) skipped but BIGFISH_REQUIRE_TOOLS=1:" \
                 "failing the gate" >&2
            rc=1
        fi
    fi
    if [ "$rc" -eq 0 ]; then
        echo "== all verification stages passed"
    fi
    exit "$rc"
}
trap finish EXIT

for stage in "${stages[@]}"; do
    current_stage="$stage"
    stage_begin=$SECONDS
    stage_state=ok
    case "$stage" in
      lint-diff)
        echo "== [lint-diff] build bigfish-lint"
        cmake -B "$repo/build" -S "$repo" > /dev/null
        cmake --build "$repo/build" --target bigfish-lint -j "$jobs"
        base=""
        if git -C "$repo" rev-parse --verify -q origin/main > /dev/null
        then
            base=origin/main
        elif git -C "$repo" rev-parse --verify -q HEAD~1 > /dev/null; then
            base=HEAD~1
        fi
        if [ -z "$base" ]; then
            echo "== [lint-diff] no base revision to diff against, skipping"
            stage_state=skipped
        else
            echo "== [lint-diff] bigfish-lint --since=$base"
            "$repo/build/tools/lint/bigfish-lint" \
                --root="$repo" \
                --config="$repo/tools/lint/bigfish-lint.toml" \
                --since="$base" \
                "$repo/src" "$repo/bench" "$repo/examples" "$repo/tests" \
                "$repo/tools/bigfish"
        fi
        ;;
      lint)
        echo "== [lint] build bigfish-lint"
        cmake -B "$repo/build" -S "$repo" > /dev/null
        cmake --build "$repo/build" --target bigfish-lint -j "$jobs"
        echo "== [lint] bigfish-lint over src/ bench/ examples/ tests/" \
             "tools/bigfish/"
        "$repo/build/tools/lint/bigfish-lint" \
            --root="$repo" \
            --config="$repo/tools/lint/bigfish-lint.toml" \
            "$repo/src" "$repo/bench" "$repo/examples" "$repo/tests" \
            "$repo/tools/bigfish"
        ;;
      cppcheck)
        if command -v cppcheck > /dev/null 2>&1; then
            echo "== [cppcheck] src/"
            cppcheck --enable=warning,performance,portability \
                --suppress=missingIncludeSystem --inline-suppr \
                --error-exitcode=1 --quiet -j "$jobs" \
                -I "$repo/src" "$repo/src"
        else
            echo "== [cppcheck] not installed, skipping"
            stage_state=skipped
        fi
        ;;
      cli-smoke)
        builddir="$repo/build"
        echo "== [cli-smoke] build bigfish"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish -j "$jobs"
        smokedir="$(mktemp -d)"
        tmpdirs+=("$smokedir")
        echo "== [cli-smoke] bigfish run --all --smoke"
        "$builddir/bigfish" run --all --smoke --threads=2 \
            --json-dir="$smokedir" > "$smokedir/run.log"
        # One artifact per experiment; the suite manifest also lands in
        # --json-dir and is not an experiment artifact.
        count="$(ls "$smokedir"/*.json | grep -cv suite-manifest)"
        listed="$("$builddir/bigfish" list | grep -c '\[')"
        echo "== [cli-smoke] $count artifact(s) for $listed experiment(s)"
        [ "$count" -eq "$listed" ]
        echo "== [cli-smoke] usage and validation exit codes"
        # Strict env validation (satellite invariant): a garbage BF_*
        # value must fail naming the variable, not be silently eaten.
        if BF_SITES=abc "$builddir/bigfish" run fig7_timer_outputs \
            > /dev/null 2> "$smokedir/err.log"; then
            echo "BF_SITES=abc unexpectedly accepted" >&2; exit 1
        fi
        grep -q "environment variable BF_SITES" "$smokedir/err.log"
        if "$builddir/bigfish" run no_such_experiment > /dev/null 2>&1
        then
            echo "unknown experiment unexpectedly accepted" >&2; exit 1
        fi
        "$builddir/bigfish" list > /dev/null
        "$builddir/bigfish" describe table1_fingerprinting > /dev/null
        ;;
      resume-smoke)
        builddir="$repo/build"
        echo "== [resume-smoke] build bigfish"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish -j "$jobs"
        rdir="$(mktemp -d)"
        tmpdirs+=("$rdir")
        echo "== [resume-smoke] reference run (no cache)"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --json="$rdir/ref.json" > /dev/null
        echo "== [resume-smoke] kill -9 mid-collection, then rerun on the" \
             "same --cache-dir"
        # Background the binary DIRECTLY (no compound command): $! must
        # be the bigfish pid itself, or the kill orphans the child and
        # it races the resumed run.
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --cache-dir="$rdir/cache" --json="$rdir/out.json" \
            > "$rdir/first.log" 2>&1 &
        pid=$!
        # Kill as soon as one collection chunk entry has been committed.
        for _ in $(seq 1 200); do
            if compgen -G "$rdir/cache/collect-*.bfc" > /dev/null; then
                break
            fi
            sleep 0.05
        done
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --cache-dir="$rdir/cache" --json="$rdir/out.json" \
            > "$rdir/resume.log"
        # One "replayed R of N collection chunks" line per configuration
        # whose featurized entries were missing.
        replayed="$(grep -oE 'replayed [0-9]+ of' "$rdir/resume.log" |
                    awk '{ sum += $2 } END { print sum + 0 }')"
        echo "== [resume-smoke] resumed run replayed $replayed collection" \
             "chunk(s)"
        if [ "$replayed" -eq 0 ]; then
            echo "== [resume-smoke] note: no chunk was replayed (the kill" \
                 "landed before the first commit or after the run ended)"
        fi
        # Timings and peak RSS differ run to run (the Seconds lines) and
        # the spec echo names the cache dir; every result line must be
        # identical.
        if ! diff <(grep -v -e 'Seconds' -e 'cache-dir' "$rdir/ref.json") \
                  <(grep -v -e 'Seconds' -e 'cache-dir' "$rdir/out.json"); then
            echo "resumed artifact differs from reference" >&2
            exit 1
        fi
        echo "== [resume-smoke] resumed artifact is bit-identical"
        echo "== [resume-smoke] forced IO crash under --isolate --keep-going"
        rc=0
        "$builddir/bigfish" run table1_fingerprinting fig3_traces --smoke \
            --threads=2 --isolate --keep-going --cache-dir="$rdir/crash-cache" \
            --io-crash-after=1 --json-dir="$rdir/crash" \
            > "$rdir/crash.log" 2>&1 || rc=$?
        manifest="$rdir/crash/suite-manifest.json"
        if [ "$rc" -ne 1 ]; then
            echo "expected suite exit 1 after forced crash, got $rc" >&2
            exit 1
        fi
        grep -q '"state": "crashed"' "$manifest"
        grep -q '"name": "fig3_traces", "state": "ok"' "$manifest"
        echo "== [resume-smoke] manifest records the crash; suite completed"
        ;;
      simd)
        builddir="$repo/build"
        echo "== [simd] build bigfish + test_kernel"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish test_kernel -j "$jobs"
        sdir="$(mktemp -d)"
        tmpdirs+=("$sdir")
        for isa in scalar avx2; do
            echo "== [simd] kernel tests under BF_SIMD=$isa"
            BF_SIMD="$isa" "$builddir/tests/test_kernel" \
                > "$sdir/kernel-$isa.log" ||
                { tail -n 40 "$sdir/kernel-$isa.log"; exit 1; }
        done
        echo "== [simd] BF_SIMD artifact bit-identity (table1 --smoke)"
        for isa in scalar avx2; do
            BF_SIMD="$isa" "$builddir/bigfish" run table1_fingerprinting \
                --smoke --threads=2 --json="$sdir/t1-$isa.json" > /dev/null
        done
        # sse2 is no longer a tier: a stale environment must say that it
        # is ignored and still produce the same artifact.
        BF_SIMD=sse2 "$builddir/bigfish" run table1_fingerprinting \
            --smoke --threads=2 --json="$sdir/t1-sse2.json" \
            > /dev/null 2> "$sdir/t1-sse2.err" ||
            { cat "$sdir/t1-sse2.err" >&2; exit 1; }
        if ! grep -q "ignoring BF_SIMD='sse2'" "$sdir/t1-sse2.err"; then
            echo "BF_SIMD=sse2 ran without the 'ignoring' warning" >&2
            exit 1
        fi
        for isa in avx2 sse2; do
            # Timings are the only run-to-run difference allowed.
            if ! diff <(grep -v 'Seconds' "$sdir/t1-scalar.json") \
                      <(grep -v 'Seconds' "$sdir/t1-$isa.json"); then
                echo "BF_SIMD=$isa artifact differs from scalar" >&2
                exit 1
            fi
        done
        echo "== [simd] artifacts bit-identical across BF_SIMD values"
        echo "== [simd] cache-reuse smoke (two runs, one --cache-dir)"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --cache-dir="$sdir/cache" --json="$sdir/cold.json" \
            > "$sdir/cold.log"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --cache-dir="$sdir/cache" --json="$sdir/warm.json" \
            > "$sdir/warm.log"
        grep -q 'stage cache: hit' "$sdir/warm.log" ||
            { echo "second --cache-dir run did not hit the cache" >&2
              exit 1; }
        if ! diff <(grep -v 'Seconds' "$sdir/cold.json") \
                  <(grep -v 'Seconds' "$sdir/warm.json"); then
            echo "cached replay artifact differs from cold run" >&2
            exit 1
        fi
        echo "== [simd] cached replay is bit-identical"
        ;;
      stage-cache)
        builddir="$repo/build"
        echo "== [stage-cache] build bigfish"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish -j "$jobs"
        cdir="$(mktemp -d)"
        tmpdirs+=("$cdir")
        echo "== [stage-cache] cold run (populates the cache)"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --cache-dir="$cdir/cache" --explain \
            --json="$cdir/cold.json" > "$cdir/cold.log"
        grep -q 'stage cache: featurized miss' "$cdir/cold.log"
        # Every featurized entry is in the current binary format.
        for entry in "$cdir"/cache/featurized-*.bfc; do
            head -n 1 "$entry" | grep -q '^# bigfish-stage-cache v2 ' ||
                { echo "$entry does not carry the v2 header" >&2; exit 1; }
        done
        echo "== [stage-cache] warm run, only eval folds changed"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=2 --cache-dir="$cdir/cache" --explain \
            --json="$cdir/warm-folds.json" > "$cdir/warm-folds.log"
        # Featurized datasets replay, so collection never runs ...
        grep -q 'stage cache: hit' "$cdir/warm-folds.log"
        grep -Eq '/collect +\| collect +\| [0-9a-f]{16} \| skipped' \
            "$cdir/warm-folds.log"
        # ... but the changed fold split forces retraining.
        grep -Eq '/train/[^ ]+ +\| train +\| [0-9a-f]{16} \| stored' \
            "$cdir/warm-folds.log"
        echo "== [stage-cache] warm run, only --topk changed"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --topk=3 --cache-dir="$cdir/cache" --explain \
            --json="$cdir/warm-topk.json" > "$cdir/warm-topk.log"
        # Fold scores replay from the cache; training never runs.
        grep -Eq '/score/[^ ]+ +\| eval +\| [0-9a-f]{16} \| hit' \
            "$cdir/warm-topk.log"
        grep -Eq '/train/[^ ]+ +\| train +\| [0-9a-f]{16} \| skipped' \
            "$cdir/warm-topk.log"
        if grep -Eq '/train/[^ ]+ +\| train +\| [0-9a-f]{16} \| (stored|miss)' \
            "$cdir/warm-topk.log"; then
            echo "a --topk-only change retrained a fold" >&2
            exit 1
        fi
        echo "== [stage-cache] warm artifacts vs fresh uncached runs"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=2 --json="$cdir/fresh-folds.json" > /dev/null
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --topk=3 --json="$cdir/fresh-topk.json" > /dev/null
        for variant in folds topk; do
            # Per-stage rows carry Seconds keys (timing and cache
            # provenance legitimately differ); the cache-dir spec echo
            # differs by construction. Everything else must match.
            if ! diff \
                <(grep -v -e 'Seconds' -e 'cache-dir' \
                    "$cdir/warm-$variant.json") \
                <(grep -v -e 'Seconds' -e 'cache-dir' \
                    "$cdir/fresh-$variant.json"); then
                echo "warm-$variant artifact differs from a fresh run" >&2
                exit 1
            fi
        done
        echo "== [stage-cache] a stale v1 entry misses, warns and is" \
             "stored again"
        stale="$(ls "$cdir"/cache/featurized-*.bfc | head -n 1)"
        stale_key="$(basename "$stale" .bfc)"
        stale_key="${stale_key#featurized-}"
        { printf '# bigfish-stage-cache v1'
          tail -c +25 "$stale"; } > "$cdir/stale.bfc"
        mv "$cdir/stale.bfc" "$stale"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --topk=3 --cache-dir="$cdir/cache" --explain \
            --json="$cdir/warm-stale.json" > "$cdir/warm-stale.log" \
            2> "$cdir/warm-stale.err"
        if [ "$(grep -c "stage cache entry $stale failed validation" \
                "$cdir/warm-stale.err")" -ne 1 ]; then
            echo "the stale entry did not warn exactly once" >&2
            exit 1
        fi
        grep -Eq "/featurize/[^ ]+ +\| featurize +\| $stale_key \| stored" \
            "$cdir/warm-stale.log"
        head -n 1 "$stale" | grep -q '^# bigfish-stage-cache v2 '
        if ! diff \
            <(grep -v -e 'Seconds' -e 'cache-dir' "$cdir/warm-stale.json") \
            <(grep -v -e 'Seconds' -e 'cache-dir' "$cdir/fresh-topk.json"); then
            echo "the run that refilled a stale entry differs from a" \
                 "fresh run" >&2
            exit 1
        fi
        echo "== [stage-cache] a --threads=1 fill writes the same" \
             "collect and featurized bytes as the --threads=2 fill"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=1 \
            --folds=3 --cache-dir="$cdir/cache1" \
            --json="$cdir/cold-t1.json" > /dev/null
        for kind in collect featurized; do
            (cd "$cdir/cache" && ls "$kind"-*.bfc) > "$cdir/$kind.t2"
            (cd "$cdir/cache1" && ls "$kind"-*.bfc) > "$cdir/$kind.t1"
            [ -s "$cdir/$kind.t1" ] ||
                { echo "the --threads=1 fill wrote no $kind entry" >&2; exit 1; }
            diff "$cdir/$kind.t2" "$cdir/$kind.t1" ||
                { echo "$kind entries differ between thread counts" >&2; exit 1; }
            while read -r name; do
                cmp "$cdir/cache/$name" "$cdir/cache1/$name" ||
                    { echo "$kind entry $name differs" >&2; exit 1; }
            done < "$cdir/$kind.t1"
        done
        echo "== [stage-cache] half the chunks and every featurized entry" \
             "lost: the rerun rewrites the featurized bytes"
        mkdir "$cdir/featurized-t1"
        cp "$cdir"/cache1/featurized-*.bfc "$cdir/featurized-t1/"
        chunks="$(wc -l < "$cdir/collect.t1")"
        lost=0
        while read -r name; do
            lost=$((lost + 1))
            if [ $((lost % 2)) -eq 1 ]; then
                rm "$cdir/cache1/$name"
            fi
        done < "$cdir/collect.t1"
        rm "$cdir"/cache1/featurized-*.bfc
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --cache-dir="$cdir/cache1" \
            --json="$cdir/rerun-t1.json" > "$cdir/rerun.log"
        replayed="$(grep -o 'replayed [0-9]* of [0-9]* collection chunks' \
            "$cdir/rerun.log" | awk '{ r += $2; n += $4 } END { print r "/" n }')"
        if [ "$replayed" != "$((chunks / 2))/$chunks" ]; then
            echo "rerun replayed $replayed chunks, want $((chunks / 2))/$chunks" >&2
            exit 1
        fi
        while read -r name; do
            cmp "$cdir/featurized-t1/$name" "$cdir/cache1/$name" ||
                { echo "featurized entry $name was not rewritten" \
                       "byte for byte" >&2; exit 1; }
        done < "$cdir/featurized.t1"
        while read -r name; do
            cmp "$cdir/cache/$name" "$cdir/cache1/$name" ||
                { echo "collect entry $name was not restored" >&2; exit 1; }
        done < "$cdir/collect.t1"
        echo "== [stage-cache] cached reuse is provenance-clean and" \
             "bit-identical"
        ;;
      sim-perf)
        builddir="$repo/build"
        echo "== [sim-perf] build bigfish + test_sim_perf"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish test_sim_perf -j "$jobs"
        pdir="$(mktemp -d)"
        tmpdirs+=("$pdir")
        echo "== [sim-perf] counter determinism tests"
        "$builddir/tests/test_sim_perf" > "$pdir/unit.log" ||
            { tail -n 40 "$pdir/unit.log"; exit 1; }
        echo "== [sim-perf] counters surface in --explain and the artifact"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --explain --json="$pdir/t2.json" > "$pdir/explain.log"
        grep -q 'sim_events' "$pdir/explain.log"
        grep -q '"simEvents": ' "$pdir/t2.json"
        grep -q '"simBytesSorted": ' "$pdir/t2.json"
        echo "== [sim-perf] counters identical across threads and BF_SIMD"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=1 \
            --json="$pdir/t1.json" > /dev/null
        BF_SIMD=scalar "$builddir/bigfish" run table1_fingerprinting \
            --smoke --threads=2 --json="$pdir/t2s.json" > /dev/null
        # The sim* counters ride on the cpuSeconds stage lines, so the
        # generic 'Seconds'-filtered artifact diffs elsewhere in this
        # script never see them; compare the counter values directly.
        # simEventsPerSec is a timing-derived rate and legitimately
        # varies — only the four work counters must be deterministic.
        counters='"sim(Events|Interrupts|Allocations|BytesSorted)": [0-9]*'
        for run in t1 t2s; do
            if ! diff \
                <(grep -oE "$counters" "$pdir/t2.json") \
                <(grep -oE "$counters" "$pdir/$run.json"); then
                echo "sim counters differ between t2 and $run" >&2
                exit 1
            fi
        done
        # A counter-free artifact would make the loop above pass
        # vacuously; require at least one nonzero eventsSimulated row.
        grep -Eq '"simEvents": [1-9]' "$pdir/t2.json"
        echo "== [sim-perf] per-stage sim counters are deterministic"
        echo "== [sim-perf] peak RSS per extra worker"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=4 \
            --json="$pdir/t4.json" > /dev/null
        rss_of() { grep -oE '"peakRssMb": [0-9.]+' "$1" | grep -oE '[0-9.]+$'; }
        rss1="$(rss_of "$pdir/t1.json")"
        rss4="$(rss_of "$pdir/t4.json")"
        echo "   peakRssMb: $rss1 at --threads=1, $rss4 at --threads=4"
        per_worker_mb=15
        if ! awk -v a="$rss1" -v b="$rss4" -v w="$per_worker_mb" \
                'BEGIN { exit !(a > 0 && b - a <= 3 * w) }'; then
            echo "--threads=4 peak RSS exceeds --threads=1 by more than" \
                 "3 x $per_worker_mb MB" >&2
            exit 1
        fi
        ;;
      address|undefined|thread)
        san="$stage"
        builddir="$repo/build-$san"
        echo "== [$san] configure -> $builddir"
        cmake -B "$builddir" -S "$repo" -DBIGFISH_SANITIZE="$san" \
            -DBIGFISH_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
        echo "== [$san] build"
        cmake --build "$builddir" -j "$jobs"
        echo "== [$san] ctest"
        # Sanitizers only see threading bugs on paths that actually spawn
        # workers, so force a multi-threaded pool even on small machines.
        (cd "$builddir" && BF_THREADS=8 ctest --output-on-failure -j 1)
        ;;
      threads8)
        builddir="$repo/build"
        echo "== [threads8] configure -> $builddir"
        cmake -B "$builddir" -S "$repo" -DBIGFISH_WERROR=ON
        echo "== [threads8] build"
        cmake --build "$builddir" -j "$jobs"
        echo "== [threads8] ctest with BF_THREADS=8"
        (cd "$builddir" && BF_THREADS=8 ctest --output-on-failure -j "$jobs")
        ;;
      *)
        echo "unknown stage '$stage' (want lint-diff, lint, cppcheck," \
             "cli-smoke, resume-smoke, simd, stage-cache, sim-perf," \
             "address, undefined, thread or threads8)" >&2
        exit 2
        ;;
    esac
    record_stage "$stage" "$stage_state" "$((SECONDS - stage_begin))"
    current_stage=""
done
