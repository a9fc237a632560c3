#!/usr/bin/env python3
"""Folds symbolised CPU samples into a table of layers: which crate of
the repository (or which of its files) each sample's time belongs to.

    python3 scripts/layers.py ROOT MODE < STACKS

ROOT is the repository the profiled program was built from, MODE is
`crate` or `file`. STACKS holds one sample per line: the source file of
each frame of the sample's call stack, innermost first, separated by
tabs (`??` where a frame has no line table). `scripts/profile.sh`
writes them with PROFILE_LAYERS set and calls `fold` itself.

A sample goes to the innermost frame whose file lies under
`ROOT/crates/<name>/src/`: its crate (MODE `crate`) or `<name>/<file
under src>` (MODE `file`). Frames of `std`, `core` and the vendored
crates go to their nearest repository caller this way, and so do
rustc's own `library/stdarch/crates/core_arch/` frames, which a bare
`crates/` pattern would wrongly take for a crate. Frames under
`ROOT/benchmark/src/` form the `harness` row. A sample with neither is
`[outside]`. The table counts CPU samples of every thread, so a helper
thread's work counts in full: it is CPU time, not wall time.
"""

import collections
import sys


def layer(path, root, mode):
    """The layer `path` belongs to under `root`, or None."""
    for prefix, name in ((root + "/crates/", None), (root + "/benchmark/src/", "harness")):
        if not path.startswith(prefix):
            continue
        rest = path[len(prefix):]
        if name is None:
            crate, sep, rest = rest.partition("/src/")
            if not sep or "/" in crate:
                return None
            name = crate
        return name if mode == "crate" else name + "/" + rest
    return None


def fold(stacks, root, mode):
    """(samples, [(layer, count)] largest first) over `stacks`, each a
    list of frame source paths, innermost first."""
    root = root.rstrip("/")
    counts = collections.Counter()
    for stack in stacks:
        owner = next((l for l in (layer(p, root, mode) for p in stack) if l), "[outside]")
        counts[owner] += 1
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(stacks), rows


def render(total, rows, mode):
    """The table as text: the sample count, then one share per layer."""
    lines = ["%d samples of CPU time (all threads), by %s" % (total, mode)]
    lines.append("%8s  %s" % ("share %", mode))
    for name, n in rows:
        lines.append("%8.1f  %s" % (100.0 * n / max(total, 1), name))
    return "\n".join(lines)


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in ("crate", "file"):
        sys.exit("usage: layers.py ROOT crate|file < STACKS")
    stacks = [line.rstrip("\n").split("\t") for line in sys.stdin if line.strip()]
    print(render(*fold(stacks, sys.argv[1], sys.argv[2]), sys.argv[2]))


if __name__ == "__main__":
    main()
