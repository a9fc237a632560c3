#!/usr/bin/env bash
# Where a program's CPU time goes, by function: a sampling profile that
# needs no perf, no PMU and no rebuild of the program.
#
#   scripts/profile.sh BIN ARGS...
#
# Builds a small LD_PRELOAD sampler with gcc: `setitimer(ITIMER_PROF)`
# interrupts the process every PROFILE_US microseconds of its CPU time
# (default 500; the kernel rounds it up to its tick), and the handler
# records the interrupted instruction pointer and a `backtrace` of its
# callers. At exit each process writes its samples and its
# `/proc/self/maps` to a temporary directory. The samples are then
# symbolised with `llvm-symbolizer` (ELF symbol tables suffice; inlined
# functions count as the function they were inlined into), and the
# script prints, per function, its *self* share (samples interrupted in
# it) and its *inclusive* share (samples with it anywhere on the stack,
# once per sample), the PROFILE_TOP (default 40) largest inclusive
# shares first. A sample interrupted in libc, the loader, libm or
# libgcc counts as self time of the first caller outside them.
#
# With PROFILE_CALLERS set to a regular expression, it then prints, for
# each listed function whose name matches, the callers its inclusive
# samples came through.
#
# With PROFILE_INLINE=1, each address expands into its inline chain,
# innermost first, and each frame is named with its source line
# (`function @ crate/src/file.rs:line`), so a function inlined into its
# caller shows up as itself. This needs line tables in BIN: build it
# into a target directory of its own so the normal build stays as it
# is, e.g. for the benchmark
#
#   CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release \
#       --offline --manifest-path benchmark/Cargo.toml --target-dir target/lines
#   PROFILE_INLINE=1 scripts/profile.sh target/lines/release/proteus-benchmark \
#       --workload cost_study --seed 555 --seconds 8 --trace 0
#
# (building the benchmark rewrites `benchmark/Cargo.lock`; check it out
# again afterwards).
#
# With PROFILE_LAYERS=crate (or =file), it first prints the layer table
# of `scripts/layers.py`: each sample goes to the innermost frame whose
# source file lies under the repository's `crates/<name>/src/` (its
# crate, or its file), `benchmark/src` frames are the `harness`, and the
# sample count heads the table. The repository is the nearest directory
# above BIN that holds a `crates/` directory (this script's own
# otherwise), so a parent's build in another checkout folds against
# that checkout. It reads the same line tables as PROFILE_INLINE: with
# none, every sample is `[outside]`.
#
# BIN's own output goes to stderr, so the table is all that stdout
# holds. Example, a benchmark workload from the repository root:
#
#   scripts/profile.sh benchmark/target/release/proteus-benchmark \
#       --workload session_calm --seed 555 --seconds 8 --trace 0
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 BIN ARGS..." >&2
  exit 2
fi
for tool in gcc llvm-symbolizer readelf python3; do
  if ! command -v "$tool" >/dev/null; then
    echo "error: $0 needs $tool on PATH" >&2
    exit 2
  fi
done

scripts=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$(readlink -f "$(command -v "$1")")")
while [ "$root" != / ] && [ ! -d "$root/crates" ]; do
  root=$(dirname "$root")
done
[ "$root" = / ] && root=$(dirname "$scripts")

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

cat >"$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 48
#define MAX_SAMPLES (1 << 16)

struct sample {
  void *leaf;
  int depth;
  void *frames[DEPTH];
};

static struct sample *samples;
static atomic_int taken;

static void on_prof(int sig, siginfo_t *info, void *context) {
  (void)sig;
  (void)info;
  int saved = errno;
  int i = atomic_fetch_add(&taken, 1);
  if (i < MAX_SAMPLES) {
    ucontext_t *uc = context;
#if defined(__x86_64__)
    samples[i].leaf = (void *)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    samples[i].leaf = (void *)uc->uc_mcontext.pc;
#else
    samples[i].leaf = 0;
#endif
    samples[i].depth = backtrace(samples[i].frames, DEPTH);
  }
  errno = saved;
}

__attribute__((constructor)) static void start(void) {
  samples = mmap(0, sizeof(struct sample) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) return;
  void *warm[2];
  backtrace(warm, 2); /* loads the unwinder outside the handler */
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, 0);
  const char *us = getenv("PROFILE_US");
  long period = us ? atol(us) : 500;
  struct itimerval t = {{0, period}, {0, period}};
  setitimer(ITIMER_PROF, &t, 0);
}

__attribute__((destructor)) static void finish(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, 0);
  const char *dir = getenv("PROFILE_DIR");
  if (!dir || samples == MAP_FAILED) return;
  char path[4096];
  snprintf(path, sizeof path, "%s/samples.%d", dir, (int)getpid());
  FILE *out = fopen(path, "w");
  if (!out) return;
  int n = atomic_load(&taken);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  for (int i = 0; i < n; i++) {
    fprintf(out, "s %p", samples[i].leaf);
    for (int j = 0; j < samples[i].depth; j++) fprintf(out, " %p", samples[i].frames[j]);
    fputc('\n', out);
  }
  FILE *maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps && fgets(line, sizeof line, maps)) fprintf(out, "m %s", line);
  if (maps) fclose(maps);
  fclose(out);
}
EOF
gcc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

mkdir "$dir/out"
PROFILE_DIR="$dir/out" LD_PRELOAD="$dir/sampler.so" "$@" >&2

python3 - "$dir/out" "${PROFILE_TOP:-40}" "${PROFILE_INLINE:-0}" "${PROFILE_LAYERS:-}" \
  "$root" "$scripts" <<'EOF'
import bisect, collections, glob, os, re, subprocess, sys

out_dir, top, inline = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
layers, root = sys.argv[4], sys.argv[5]
if layers not in ("", "crate", "file"):
    sys.exit("error: PROFILE_LAYERS is crate or file, not %r" % layers)
sys.path.insert(0, sys.argv[6])
FOLDED = re.compile(r"^(libc[.-]|ld-linux|libm[.-]|libgcc_s|libpthread)")
MANGLE = [("$LT$", "<"), ("$GT$", ">"), ("$RF$", "&"), ("$BP$", "*"), ("$C$", ","),
          ("$u20$", " "), ("$u27$", "'"), ("$u5b$", "["), ("$u5d$", "]"),
          ("$u7b$", "{"), ("$u7d$", "}"), ("..", "::")]
segments = {}

def load_segments(path):
    """(file offset, size, vaddr) of each LOAD program header."""
    if path not in segments:
        segs = []
        text = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
        for line in text.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                segs.append((int(f[1], 16), int(f[4], 16), int(f[2], 16)))
        segments[path] = segs
    return segments[path]

def clean(name):
    name = re.sub(r" \(\.llvm\.\d+\)$", "", name)
    name = re.sub(r"::h[0-9a-f]{16}$", "", name)
    for a, b in MANGLE:
        name = name.replace(a, b)
    return name

stacks = []  # per sample: [(module, vaddr)], leaf first, unmapped frames dropped
wanted = collections.defaultdict(set)
unwound = 0
for dump in glob.glob(os.path.join(out_dir, "samples.*")):
    rows, maps = [], []
    for line in open(dump):
        if line.startswith("s "):
            rows.append([int(x, 16) for x in line.split()[1:]])
        elif line.startswith("m "):
            f = line.split(None, 6)
            if len(f) == 7 and "x" in f[2] and f[6].strip().startswith("/"):
                lo, hi = (int(x, 16) for x in f[1].split("-"))
                maps.append((lo, hi, int(f[3], 16), f[6].strip()))
    maps.sort()
    starts = [m[0] for m in maps]

    def locate(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            return None
        lo, _, off, path = maps[i]
        file_off = addr - lo + off
        for seg_off, size, vaddr in load_segments(path):
            if seg_off <= file_off < seg_off + size:
                return (path, file_off - seg_off + vaddr)
        return None

    for row in rows:
        leaf, frames = row[0], row[1:]
        callers = []
        if leaf in frames:
            unwound += 1
            # Return addresses: the call instruction ends just before.
            callers = [a - 1 for a in frames[frames.index(leaf) + 1:]]
        stack = [locate(a) for a in [leaf] + callers]
        stack = [s for s in stack if s is not None]
        for module, vaddr in stack:
            wanted[module].add(vaddr)
        stacks.append(stack)

def frame(fn, loc, base):
    """One frame's name: the function, and with PROFILE_INLINE its line."""
    if fn == "??":
        return "[%s]" % base
    path, line = (loc.split(":") + ["0"])[:2]
    if not inline or path == "??":
        return clean(fn)
    return "%s @ %s:%s" % (clean(fn), "/".join(path.split("/")[-3:]), line)

names = {}  # per address, its frames, innermost first
files = {}  # per address, its frames' source files, innermost first
for module, addrs in wanted.items():
    addrs = sorted(addrs)
    args = ["llvm-symbolizer", "--obj=" + module, "--functions=linkage", "--demangle"]
    text = subprocess.run(
        args + ([] if inline or layers else ["--no-inlines"]),
        input="".join("0x%x\n" % a for a in addrs), capture_output=True, text=True).stdout
    blocks = [b for b in text.split("\n\n") if b.strip()]
    base = os.path.basename(module)
    for a, block in zip(addrs, blocks):
        lines = block.strip().splitlines()
        chain = list(zip(lines[::2], lines[1::2]))
        files[(module, a)] = [loc.rsplit(":", 2)[0] for _, loc in chain]
        # Without PROFILE_INLINE an address is its physical function.
        names[(module, a)] = [frame(fn, loc, base) for fn, loc in (chain if inline else chain[-1:])]

self_count, incl = collections.Counter(), collections.Counter()
callers = collections.defaultdict(collections.Counter)
for stack in stacks:
    own = [f for f in stack if not FOLDED.match(os.path.basename(f[0]))]
    if not own:
        where = "[libc]" if stack else "[unmapped]"
        self_count[where] += 1
        incl[where] += 1
        continue
    chain = [fn for f in own for fn in names[f]]
    self_count[chain[0]] += 1
    for fn in set(chain):
        incl[fn] += 1
    chain.append("[root]")
    for fn in set(chain[:-1]):
        # The outermost call of a recursive function names its caller.
        callers[fn][chain[len(chain) - chain[::-1].index(fn)]] += 1

total = len(stacks)
if total == 0:
    sys.exit("error: no samples (did the program run long enough?)")
if layers:
    sys.dont_write_bytecode = True
    import layers as fold
    paths = [[p for f in stack for p in files[f]] for stack in stacks]
    print(fold.render(*fold.fold(paths, root, layers), layers))
    print()
print("%d samples, %.1f %% with a call stack" % (total, 100.0 * unwound / total))
print("%8s %8s  %s" % ("incl %", "self %", "function"))
for fn, n in incl.most_common(top):
    print("%8.1f %8.1f  %s" % (100.0 * n / total, 100.0 * self_count[fn] / total, fn))
pattern = os.environ.get("PROFILE_CALLERS")
if pattern:
    for fn, n in incl.most_common(top):
        if re.search(pattern, fn):
            print("\ncallers of %s (%.1f %%):" % (fn, 100.0 * n / total))
            for caller, m in callers[fn].most_common(8):
                print("%8.1f  %s" % (100.0 * m / total, caller))
EOF
