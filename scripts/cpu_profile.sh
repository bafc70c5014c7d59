#!/usr/bin/env bash
# Where one benchmark workload's CPU goes, function by function: a
# sampling profile of the benchmark process alone, with no perf and no
# kernel setting. A small LD_PRELOAD library (built here with gcc) arms
# ITIMER_PROF at 1 ms of process CPU (the kernel fires it at most once a
# tick, so a busy 2-CPU run yields a few hundred samples a second); each
# SIGPROF that falls inside the window [from_s, to_s) seconds after
# start records the interrupted thread's stack, and whether that thread
# was inside malloc/free/realloc/calloc (the library wraps them). At exit
# the stacks are symbolized with nm against /proc/<pid>/maps.
#
#   scripts/cpu_profile.sh <workload> [from_s to_s [top]]   (default 8 18 30)
#
# Prints the run's own cpu_us_per_op, the share of samples in the
# allocator, in futex waits and wakes (the interrupted frame is libc's
# `syscall`, which Rust's std uses for futexes, or a futex or lock
# helper), reading the clock (clock_gettime, the vDSO), recording
# observability (an `ensemble_obs::` frame or `LayerTags::fold` on the
# stack; with LTO much of it is inlined into its callers and counts as
# code) and everything else ("code"), then the functions on the most stacks (inclusive
# share; libc frames and those on every stack are left out — libc has
# only its dynamic symbols here). Release builds inline much: a
# function's share includes what was inlined into it. A diagnostic, not
# a gate: the shares move by a few points from run to run.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="$1" from="${2:-8}" to="${3:-18}" top="${4:-30}"
seconds=$((to + 7 > 25 ? to + 7 : 25))
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT

cat >"$tmp/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>

#define MAX_SAMPLES 40000
#define DEPTH 48
/* Frames 0 and 1 are the handler and the signal trampoline. */
#define SKIP 2

static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static char in_alloc_at[MAX_SAMPLES];
static __thread int in_alloc;

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);

void *malloc(size_t n) {
    in_alloc++;
    void *p = __libc_malloc(n);
    in_alloc--;
    return p;
}

void *calloc(size_t k, size_t n) {
    in_alloc++;
    void *p = __libc_calloc(k, n);
    in_alloc--;
    return p;
}

void *realloc(void *old, size_t n) {
    in_alloc++;
    void *p = __libc_realloc(old, n);
    in_alloc--;
    return p;
}

void free(void *p) {
    in_alloc++;
    __libc_free(p);
    in_alloc--;
}
static atomic_int taken;
static double t0, from_s, to_s;
static char out_path[4096];

static double now_s(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

static void on_prof(int sig) {
    (void)sig;
    int saved = errno;
    double t = now_s() - t0;
    if (t >= from_s && t < to_s) {
        int i = atomic_fetch_add(&taken, 1);
        if (i < MAX_SAMPLES) {
            in_alloc_at[i] = in_alloc > 0;
            depth[i] = backtrace(frames[i], DEPTH);
        }
    }
    errno = saved;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    FILE *f = fopen(out_path, "w");
    if (!f)
        return;
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        if (depth[i] <= SKIP)
            continue;
        fputs(in_alloc_at[i] ? "A" : "-", f);
        for (int j = SKIP; j < depth[i]; j++)
            fprintf(f, " %lx", (unsigned long)frames[i][j]);
        fputc('\n', f);
    }
    fclose(f);
    char maps_path[4200], buf[65536];
    snprintf(maps_path, sizeof maps_path, "%s.maps", out_path);
    FILE *in = fopen("/proc/self/maps", "r"), *out = fopen(maps_path, "w");
    size_t got;
    while (in && out && (got = fread(buf, 1, sizeof buf, in)) > 0)
        fwrite(buf, 1, got, out);
    if (in)
        fclose(in);
    if (out)
        fclose(out);
}

__attribute__((constructor)) static void start(void) {
    const char *out = getenv("CPU_PROFILE_OUT");
    if (!out)
        return;
    snprintf(out_path, sizeof out_path, "%s", out);
    /* Only this process: a child it starts does not sample. */
    unsetenv("CPU_PROFILE_OUT");
    from_s = atof(getenv("CPU_PROFILE_FROM"));
    to_s = atof(getenv("CPU_PROFILE_TO"));
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder before any signal */
    t0 = now_s();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
EOF
gcc -O2 -shared -fPIC -ftls-model=initial-exec -o "$tmp/sampler.so" "$tmp/sampler.c"

CPU_PROFILE_OUT="$tmp/samples" CPU_PROFILE_FROM="$from" CPU_PROFILE_TO="$to" \
  LD_PRELOAD="$tmp/sampler.so" \
  "$target/release/benchmark" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
  >"$tmp/out" 2>/dev/null
result=$(tail -n 1 "$tmp/out")
metric() { sed "s/.*\"$1\": {\"value\": \([0-9.]*\).*/\1/" <<<"$result"; }

# Load segments and text symbols of every executable mapping.
awk '$2 ~ /x/ && $6 ~ /^\// { print $6 }' "$tmp/samples.maps" | sort -u | while read -r lib; do
  readelf -lW "$lib" 2>/dev/null | awk -v p="$lib" '$1 == "LOAD" { print "S", p, $2, $3, $5 }'
  { nm -C -n --defined-only "$lib"; nm -D -C -n --defined-only "$lib"; } 2>/dev/null |
    awk -v p="$lib" '$2 ~ /^[tTwWi]$/ { a = $1; sub(/^[^ ]+ [^ ]+ /, ""); sub(/@.*/, "")
      print "Y\t" p "\t" a "\t" $0 }' | sort -t "$(printf '\t')" -k3,3 -u
done >"$tmp/syms"

echo "$workload: $(metric ops_per_s) ops/s, run cpu_us_per_op $(metric cpu_us_per_op);" \
  "process-CPU samples from ${from} s to ${to} s of the run"
awk -v top="$top" '
  function hex(s,   n, i, c) { n = 0; s = tolower(s); sub(/^0x/, "", s)
    for (i = 1; i <= length(s); i++) { c = index("0123456789abcdef", substr(s, i, 1)) - 1; n = n * 16 + c }
    return n }
  # Keys stay hex strings: awk would print a large number as 9.48e+13.
  function name(h, ret,   a, key, k, f, s, lo, hi, mid, p) {
    key = h ret
    if (key in cache) return cache[key]
    # A caller frame is a return address: look up the call before it.
    a = hex(h) - ret
    f = -1
    for (k = 1; k <= nmap; k++) if (a >= mlo[k] && a < mhi[k]) { f = a - mlo[k] + moff[k]; p = mpath[k]; break }
    if (f < 0) return cache[key] = "?"
    if (p !~ /^\//) return cache[key] = p
    for (s = 1; s <= nseg[p]; s++)
      if (f >= soff[p, s] && f < soff[p, s] + ssz[p, s]) { f = f - soff[p, s] + sva[p, s]; break }
    lo = 1; hi = nsym[p]
    if (hi < 1 || f < yaddr[p, 1]) return cache[key] = p
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (yaddr[p, mid] <= f) lo = mid; else hi = mid - 1 }
    return cache[key] = yname[p, lo] }
  FILENAME ~ /maps$/ { if ($2 ~ /x/) { split($1, r, "-"); nmap++; mlo[nmap] = hex(r[1]); mhi[nmap] = hex(r[2])
      moff[nmap] = hex($3); mpath[nmap] = NF >= 6 ? $6 : "[anon]" }; next }
  FILENAME ~ /syms$/ && $1 == "S" { s = ++nseg[$2]; soff[$2, s] = hex($3); sva[$2, s] = hex($4); ssz[$2, s] = hex($5); next }
  FILENAME ~ /syms$/ { split($0, y, "\t"); i = ++nsym[y[2]]; yaddr[y[2], i] = hex(y[3]); yname[y[2], i] = y[4]
    if (y[2] ~ /\/libc\.so/) libc[y[4]] = 1; next }
  { n++; delete seen; obs = 0
    for (i = 2; i <= NF; i++) {
      f = name($i, i > 2)
      if (i == 2) leaf = f
      if (f ~ /ensemble_obs::|LayerTags::fold/) obs = 1
      if (f in seen || libc[f] || f ~ /libc\.so/) continue
      seen[f] = 1; incl[f]++
    }
    if ($1 == "A") cat["allocator"]++
    else if (leaf ~ /futex|^syscall$|lll_lock/) cat["futex"]++
    else if (leaf ~ /clock_gettime|\[vdso\]/) cat["clock"]++
    else if (obs) cat["obs"]++
    else cat["code"]++ }
  END {
    if (n == 0) { print "no samples in the window"; exit 1 }
    printf "%d samples\n%7s  %s\n", n, "share", "where"
    split("allocator futex clock obs code", order, " ")
    for (k = 1; k <= 5; k++) printf "%6.1f%%  %s\n", 100 * cat[order[k]] / n, order[k]
    printf "%7s  %s\n", "incl", "function (top " top " by stacks it is on)"
    for (f in incl) if (incl[f] < 0.995 * n) printf "%6.1f%%  %s\n", 100 * incl[f] / n, f | "sort -k1,1nr | head -n " top
  }
' "$tmp/samples.maps" "$tmp/syms" "$tmp/samples"
