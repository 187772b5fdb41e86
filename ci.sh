#!/usr/bin/env sh
# CI entry point: checks that docs/ARCHITECTURE.md's lines-per-subsystem
# total, dependency-edge table, kern table size and settable-value count
# (tools/settable_values.awk) match the tree, that the settable values are
# exactly those tools/settable_values.txt names, that src/ names no engine
# but sim::Rng and no std::normal_distribution in phy or impair, that
# every src/*/*.hpp has a user outside tests and its own .cpp, that every
# function defined on its declaration line in src/*/*.hpp is called
# somewhere (its name appears in call form past its definition), tier-1
# verify in Release (whose ctest count must equal the total README.md
# states) and Debug with warnings as errors (test suite run twice:
# forced-scalar and auto SIMD dispatch), a Release -Werror build with
# MMTAG_OBS=OFF that runs the pinned digests and every test file that
# branches on kObsEnabled, the kernel-backend determinism gate (which must
# compare scalar with AVX2 on an AVX2 host), an ASan+UBSan pass over the
# test suite (UBSan with float-cast-overflow, which GCC's
# -fsanitize=undefined leaves out; assert() kept), a bench-smoke stage
# whose one table-driven loop writes and self-compares nine BENCH_*.json
# reports (the fault, net, backhaul, metro, control-plane and impairment
# benches under the sanitizers, plus a full-size bench_d1_fleet compare
# gate), a perfbench smoke stage that builds the repository benchmark and
# runs its three workloads untraced and traced for one second each (their
# correctness checks must pass and their gate digests must equal the
# pinned seed-1 digests), a TSan pass over the test suite for the
# sim::ThreadPool, MetroWorld shard, GridIndex rebucket, obs counter,
# traffic aggregation and layout fan-out paths (assert() kept, so the
# metro epoch's one-owner-per-tag check runs there too), and a docs stage
# (skipped with a notice when doxygen is absent).
# Every build runs nproc jobs.
# Usage: ./ci.sh [extra ctest args...]
set -eu

echo "=== Lines per subsystem (docs/ARCHITECTURE.md) ==="
# Re-run the table's documented one-liner and compare its sum with the
# table's total row, so the table cannot drift from the code it counts.
counted=$(for d in src/*/; do echo "$d $(cat $d*.hpp $d*.cpp | wc -l)"; done |
  awk '{ total += $2 } END { print total }')
documented=$(sed -n 's/^| \*\*total\*\* | \*\*\([0-9,]*\)\*\* |$/\1/p' \
  docs/ARCHITECTURE.md | tr -d ,)
if [ "${counted}" != "${documented}" ]; then
  echo "FAIL: src/ has ${counted} lines, docs/ARCHITECTURE.md says" \
    "${documented:-nothing}" >&2
  exit 1
fi
echo "lines per subsystem OK: ${counted}"

echo "=== Dependency edges (docs/ARCHITECTURE.md) ==="
# Re-derive each library's links from src/*/CMakeLists.txt (add_library
# names it; target_link_libraries lists its links, minus Threads::Threads;
# no such line means it links nothing, "—") and compare the (library, link)
# pairs, as sets, with the table's rows.
derived=$(for f in src/*/CMakeLists.txt; do
  awk '
    /^[[:space:]]*#/ { next }
    { gsub(/[()]/, " & "); for (i = 1; i <= NF; i++) tok[++n] = $i }
    END {
      for (i = 1; i <= n; i++) {
        if (tok[i] == "add_library") lib = tok[i + 2]
        if (tok[i] != "target_link_libraries") continue
        for (j = i + 3; j <= n && tok[j] != ")"; j++) {
          if (tok[j] ~ /^(PUBLIC|PRIVATE|INTERFACE|Threads::Threads)$/) continue
          print lib, tok[j]
          linked = 1
        }
      }
      if (!linked) print lib, "—"
    }' "$f"
done | sed 's/mmtag_//g' | sort -u)
documented=$(sed -n 's/^| `mmtag_\([a-z]*\)` | \(.*\) |$/\1 \2/p' \
  docs/ARCHITECTURE.md |
  awk '{ lib = $1; sub(/^[^ ]* /, ""); n = split($0, deps, /, */)
         for (i = 1; i <= n; i++) print lib, deps[i] }' | sort -u)
if [ "${derived}" != "${documented}" ]; then
  # One copy of a side plus two of the other: the pairs seen once are
  # exactly those missing from the other side.
  echo "FAIL: dependency edges differ from docs/ARCHITECTURE.md" >&2
  echo "only in CMake:" >&2
  printf '%s\n%s\n%s\n' "${derived}" "${documented}" "${documented}" |
    sort | uniq -u >&2
  echo "only in the table:" >&2
  printf '%s\n%s\n%s\n' "${documented}" "${derived}" "${derived}" |
    sort | uniq -u >&2
  exit 1
fi
echo "dependency edges OK: $(echo "${derived}" | wc -l) pairs"

echo "=== Kernel table size (docs/ARCHITECTURE.md) ==="
# docs/ARCHITECTURE.md states how many function pointers kern::Kernels
# holds; kern.hpp declares each as a `(*name)(` member, so the two cannot
# drift apart.
listed=$(grep -c '(\*[a-z0-9_]*)(' src/kern/kern.hpp || true)
stated=$(sed -n 's/.* \([0-9][0-9]*\) function pointers.*/\1/p' \
  docs/ARCHITECTURE.md)
if [ "${listed}" != "${stated}" ]; then
  echo "FAIL: src/kern/kern.hpp declares ${listed} kernels," \
    "docs/ARCHITECTURE.md says ${stated:-nothing}" >&2
  exit 1
fi
echo "kernel table size OK: ${listed}"

echo "=== Settable values (tools/settable_values.txt, docs/ARCHITECTURE.md) ==="
# A settable value is a defaulted, non-static data member of a *Config,
# *Params, *Model or *Schedule struct in src/*/*.hpp, nested types
# included; tools/settable_values.awk lists one per line.
# tools/settable_values.txt names every one (qualified, sorted) and
# docs/ARCHITECTURE.md states how many there are, so a new setting lands
# only together with edits that name and count it, and swapping one
# setting for another fails as a missing name plus an extra one.
names=$(awk -f tools/settable_values.awk src/*/*.hpp | sed 's/^[^ ]* //' |
  LC_ALL=C sort)
if [ "${names}" != "$(cat tools/settable_values.txt)" ]; then
  echo "FAIL: settable values differ from tools/settable_values.txt" \
    "(< listed there only, > declared in src/ only):" >&2
  printf '%s\n' "${names}" | diff tools/settable_values.txt - >&2 || true
  exit 1
fi
listed=$(printf '%s\n' "${names}" | awk 'END { print NR }')
stated=$(sed -n 's/.*declares \([0-9][0-9]*\) settable values.*/\1/p' \
  docs/ARCHITECTURE.md)
if [ "${listed}" != "${stated}" ]; then
  echo "FAIL: src/ declares ${listed} settable values," \
    "docs/ARCHITECTURE.md says ${stated:-nothing}" >&2
  exit 1
fi
echo "settable values OK: ${listed}, each named in tools/settable_values.txt"

echo "=== One engine in the library ==="
# sim::Rng is the library's engine (std::mt19937_64 appears only in its
# header, for the conversion), and phy and impair draw Gaussians through
# phy::normal_pairs only. Comment lines do not count.
code_lines() { grep -rn "$1" $2 | grep -v '^[^:]*:[0-9]*:[[:space:]]*//'; }
if code_lines 'std::mt19937_64' src | grep -v '^src/sim/rng\.hpp:'; then
  echo "FAIL: std::mt19937_64 under src/ outside src/sim/rng.hpp" >&2
  exit 1
fi
if code_lines 'std::normal_distribution' 'src/phy src/impair'; then
  echo "FAIL: std::normal_distribution under src/phy or src/impair" >&2
  exit 1
fi
echo "one engine OK"

echo "=== No test-only module ==="
# A header that only its own .cpp and tests include is code no bench,
# example or perfbench workload can run.
orphans=""
for h in src/*/*.hpp; do
  users=$(grep -rlF "#include \"${h}\"" src bench examples perfbench |
    grep -v "^${h%.hpp}\.cpp\$" || true)
  [ -n "${users}" ] || orphans="${orphans} ${h}"
done
if [ -n "${orphans}" ]; then
  echo "FAIL: included only by tests or their own .cpp:${orphans}" >&2
  exit 1
fi
echo "no test-only module OK"

echo "=== No uncalled inline function ==="
# Each function in src/*/*.hpp whose body opens on its declaration line
# (operators and constructors excepted) needs a caller: its name must
# appear in call form, `name(` not preceded by an identifier character, at
# least twice in the C++ files of src, bench, examples, perfbench and
# tests, comment lines excepted. The definition is one of them, so a name seen once is
# an accessor nothing calls.
defined=$(awk '
  /^[[:space:]]*(\/\/|#)/ { next }
  match($0, /[A-Za-z_][A-Za-z0-9_]*\(/) {
    name = substr($0, RSTART, RLENGTH - 1)
    prefix = substr($0, 1, RSTART - 1)
    # Only type and qualifier tokens may precede a declared name.
    if (prefix !~ /^[][[:space:]A-Za-z0-9_:<>,*&]*$/) next
    if (prefix ~ /operator/) next
    # No return type: a constructor.
    if (prefix ~ /^[[:space:]]*((explicit|constexpr)[[:space:]]+)*$/) next
    if (name ~ /^(if|for|while|switch|return|catch|sizeof|decltype)$/) next
    if (name ~ /^(alignas|void)$/) next
    if (substr($0, RSTART + RLENGTH - 1) !~ /\)[^()]*\{/) next
    print name
  }' src/*/*.hpp | LC_ALL=C sort -u)
called=$(grep -rh --include='*.[ch]pp' '[A-Za-z_][A-Za-z0-9_]*(' \
  src bench examples perfbench tests | grep -v '^[[:space:]]*//' | grep -o '[A-Za-z_][A-Za-z0-9_]*(' |
  LC_ALL=C sort | uniq -c | awk '$1 >= 2 { sub(/\($/, "", $2); print $2 }')
uncalled=$(printf '%s\n--\n%s\n' "${called}" "${defined}" |
  awk '$0 == "--" { past = 1; next } !past { seen[$0] = 1; next }
       !($0 in seen)')
if [ -n "${uncalled}" ]; then
  echo "FAIL: inline functions in src/*/*.hpp whose name appears in call" \
    "form only at their definition:" ${uncalled} >&2
  exit 1
fi
echo "no uncalled inline function OK: $(printf '%s\n' "${defined}" |
  awk 'END { print NR }') names checked"

for config in Release Debug; do
  echo "=== ${config} build (-Wall -Wextra -Werror) ==="
  build_dir="build-ci-$(echo "${config}" | tr '[:upper:]' '[:lower:]')"
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE="${config}" \
    -DCMAKE_CXX_FLAGS="-Werror"
  cmake --build "${build_dir}" -j "$(nproc)"
  if [ "${config}" = Release ]; then
    # README.md states the suite's size; ctest -N counts it, so the two
    # cannot drift apart.
    listed=$(cd "${build_dir}" && ctest -N |
      sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')
    stated=$(sed -n 's/^ctest --test-dir build *# \([0-9]*\) tests: .*/\1/p' \
      README.md)
    if [ "${listed}" != "${stated}" ]; then
      echo "FAIL: ctest lists ${listed:-nothing} tests, README.md says" \
        "${stated:-nothing}" >&2
      exit 1
    fi
    echo "README test count OK: ${listed}"
  fi
  # Whole suite under both dispatch modes: the scalar run proves the
  # reference implementations, the auto run proves the SIMD backends the
  # host supports (they must be bit-identical — see tests/test_kern.cpp).
  for kern in scalar auto; do
    echo "--- ctest (MMTAG_KERN=${kern}) ---"
    (cd "${build_dir}" && MMTAG_KERN="${kern}" ctest --output-on-failure -j "$@")
  done
done

echo "=== MMTAG_OBS=OFF Release build (-Werror) ==="
# Instrumentation compiled out: no pinned digest or traffic result may
# depend on the if-constexpr obs branches (the traffic engine takes its
# metric handles and publishes its histograms in them). The stage runs
# the pinned digests and every test file that branches on kObsEnabled,
# found by grep so that a new gated test joins it; the obs tests skip
# rather than fail.
build_dir="build-ci-noobs"
obs_tests=$( (grep -l kObsEnabled tests/*.cpp;
  echo tests/test_pinned_digests.cpp) | sed 's|^tests/||; s|\.cpp$||' |
  sort -u)
echo "tests: $(echo ${obs_tests})"
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-Werror" \
  -DMMTAG_OBS=OFF
cmake --build "${build_dir}" -j "$(nproc)" --target ${obs_tests}
(cd "${build_dir}" && ctest --output-on-failure \
  -R "^($(echo ${obs_tests} | tr ' ' '|'))\$" -j "$@")

echo "=== Kernel-backend determinism gate ==="
# The gate compares the scalar reference with the auto-dispatched table.
# On an AVX2 host that table must be AVX2: "scalar == scalar" there means
# no SIMD kernel was compared (avx2.cpp built without -mavx2, or
# MMTAG_KERN forcing scalar), so the stage fails.
gate=$("build-ci-release/bench/bench_e4_ber" --check-kern)
echo "${gate}"
if grep -qw avx2 /proc/cpuinfo 2> /dev/null; then
  case "${gate}" in
    *"scalar == avx2"*) ;;
    *)
      echo "FAIL: the host has AVX2 but the kern gate did not compare" \
        "scalar with avx2" >&2
      exit 1
      ;;
  esac
else
  echo "kern gate NOTICE: no AVX2 on this host; auto dispatch is scalar," \
    "so the gate compared scalar with itself"
fi

echo "=== ASan+UBSan build (test suite + instrumented benches) ==="
# The sanitizer trees keep assert(): RelWithDebInfo's default flags add
# -DNDEBUG, which would compile out the conservation checks that the
# metro epoch, the fleet cell and the traffic engine assert.
build_dir="build-ci-asan"
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
cmake --build "${build_dir}" -j "$(nproc)" --target mmtag_tests \
  bench_d1_fleet bench_d2_chaos bench_n1_traffic bench_m1_mesh \
  bench_d3_metro bench_r1_resil bench_i1_impair
# Both dispatch modes under the sanitizers: the SIMD loadu/storeu edge
# handling is exactly where ASan earns its keep.
for kern in scalar auto; do
  echo "--- ctest ASan+UBSan (MMTAG_KERN=${kern}) ---"
  (cd "${build_dir}" && MMTAG_KERN="${kern}" ctest --output-on-failure -j "$@")
done
# Drive the instrumented fleet bench (spans, counters, cache histograms)
# under the sanitizers at reduced size.
"${build_dir}/bench/bench_d1_fleet" --csv --readers 2 --tags 50 --epochs 2 \
  --warmup 0 --repeat 1 > /dev/null

echo "=== Bench smoke (BENCH_*.json write + self-compare) ==="
# One row per report: name, binary, arguments. Each row writes
# bench-out/BENCH_<name>.json through the mmtag.bench.v1 schema, then
# compares a second run against it (exit 1 on regression, 2 on schema
# error). Every bench also hard-gates its own claims (exit 1): fingerprint
# identity across thread counts, and the margins named in EXPERIMENTS.md
# (recovery beats none, SR beats stop-and-wait, failover beats frozen
# tables, >= 10x index and cache savings, control-plane goodput, impairment
# bypass identity). The ASan rows run the fault, net, mesh, metro,
# control-plane and impairment paths under the sanitizers (n1_traffic
# delivers over 2^15 packets, so its latency percentiles take 16-bit keys
# and split into several value groups); the full-size
# d1_fleet_baseline row runs the default 16-reader fleet, whose thread
# invariance and cache savings the bench gates.
out_dir="bench-out"
mkdir -p "${out_dir}"
release="build-ci-release/bench"
asan="build-ci-asan/bench"
while read -r name binary args; do
  echo "--- ${name}: ${binary} ${args} ---"
  # ${args} stays unquoted: it is a word list.
  "${binary}" ${args} --json "${out_dir}/BENCH_${name}.json" \
    < /dev/null > /dev/null
  "${binary}" ${args} --compare "${out_dir}/BENCH_${name}.json" \
    --threshold 1.0 < /dev/null > /dev/null
done <<EOF
kernels ${release}/bench_kernels --csv --warmup 1 --repeat 3
d1_fleet ${release}/bench_d1_fleet --csv --readers 4 --tags 100 --epochs 4
d2_chaos ${asan}/bench_d2_chaos --csv --readers 4 --tags 100 --epochs 3 --warmup 0 --repeat 1
n1_traffic ${asan}/bench_n1_traffic --csv --readers 2 --tags 50 --flows 160 --packets 256 --warmup 0 --repeat 1
m1_mesh ${asan}/bench_m1_mesh --csv --readers 16 --tags 200 --epochs 3 --warmup 0 --repeat 1
d3_metro ${asan}/bench_d3_metro --csv --tags 50000 --margin-tags 50000 --epochs 2 --warmup 0 --repeat 1
d1_fleet_baseline ${release}/bench_d1_fleet --csv --warmup 0 --repeat 1
r1_resil ${asan}/bench_r1_resil --csv --warmup 0 --repeat 1
i1_impair ${asan}/bench_i1_impair --csv --warmup 0 --repeat 1
EOF
echo "bench smoke OK: $(ls ${out_dir}/BENCH_*.json | tr '\n' ' ')"

echo "=== perfbench smoke (every workload, untraced and traced) ==="
# The repository benchmark (BENCHMARK.json) builds its own Release binary
# from this tree into .bench_build/perfbench. One short run per workload
# and trace mode: every run hard-gates its digest across pool sizes 1 and
# 4 (metro_1m at a million tags), and a traced metro run also checks each
# phase replay against the epoch it precedes. A run exits 1 on a failed
# check and 2 on a build or result error; either fails the stage. Each
# run's report, whose last line is the JSON result, goes to bench-out/.
# Every digest on a report's `gate` lines must also equal the workload's
# pinned seed-1 digest below, so a change that moves a workload's state
# fails here even when it agrees with itself; a deliberate re-pin edits
# the constant and says why in CHANGES.md.
perf_start=$(date +%s)
while read -r workload digest; do
  for trace in 0 1; do
    echo "--- perfbench ${workload} --trace ${trace} ---"
    report="${out_dir}/perfbench_${workload}_trace${trace}.txt"
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 \
      --trace "${trace}" < /dev/null > "${report}"
    grep '^checks:' "${report}"
    gate_digests=$(grep '^gate ' "${report}" | grep -o '0x[0-9a-f]\{16\}' |
      sort -u)
    if [ "${gate_digests}" != "${digest}" ]; then
      echo "FAIL: ${workload} --trace ${trace} gate digests" \
        "${gate_digests:-none} differ from the pinned ${digest}" >&2
      exit 1
    fi
  done
done <<EOF
metro_1m 0x48a6278c2ee4f8ca
link_sweep 0xcd4ded129f636c2f
fleet_traffic 0x10d0732b8280be15
EOF
echo "perfbench smoke OK: 6 runs in $(( $(date +%s) - perf_start )) s," \
  "gate digests pinned"

echo "=== TSan build (thread pool, metro shards, index rebucket, obs counters, traffic aggregation, layout fan-out) ==="
# The code that runs on parallel workers: sim::ThreadPool's fan-out, the
# MetroWorld service shards (which query the grid index concurrently) and
# mobility chunks, GridIndex::rebucket's cell ranges, the obs counters
# and histograms, the traffic engine's grouped aggregation (percentile
# value groups writing disjoint bucket ranges, per-group histogram
# publishes) and make_layout's per-tag slots. ThreadSanitizer over the
# suite proves their writes are disjoint or atomic; like the ASan tree,
# this one keeps assert().
build_dir="build-ci-tsan"
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "${build_dir}" -j "$(nproc)" --target mmtag_tests
(cd "${build_dir}" && ctest --output-on-failure -j "$@")
echo "TSan OK: thread pool, metro shards, index rebucket, obs counters," \
  "traffic aggregation, layout fan-out"

echo "=== Docs (Doxygen, warnings fatal for src/kern src/obs src/fault src/impair) ==="
# The Doxyfile sets WARN_AS_ERROR, so undocumented public members in the
# covered directories fail this stage. Containers without doxygen skip it
# with a notice rather than masquerading as a pass elsewhere.
if command -v doxygen > /dev/null 2>&1; then
  cmake --build build-ci-release --target docs
  echo "docs OK: build-ci-release/docs/html"
else
  echo "docs SKIPPED: doxygen not installed on this host"
fi

echo "=== CI OK: line, edge and kern tables, settable-value names and count, no test-only module, no uncalled inline function, README test count, Release + Debug (-Werror, scalar+auto), MMTAG_OBS=OFF (pinned digests and every kObsEnabled test), kern gate, ASan+UBSan (asserts on), bench smoke (9 reports), perfbench smoke (6 runs, pinned gate digests), TSan (asserts on, incl. traffic aggregation and layout fan-out), docs ==="
