#!/usr/bin/env python3
"""Symbolise sprof dumps into self and inclusive profiles, or two acensus
dumps into a per-rank heap census.

    python3 scripts/sprof_sym.py --self self.txt --inclusive incl.txt DUMP...
    python3 scripts/sprof_sym.py --census A B

Each dump (written by scripts/sprof.c) carries its own executable mappings,
so dumps of different runs merge by *symbol*, ASLR or not.

A sampled PC is turned into a file offset with the mapping it falls in
(`pc - start + offset`), but `nm` prints *virtual addresses*, and in a PIE
the executable LOAD segment's vaddr is not its file offset (typically 0x1000
apart). The segment's `vaddr - offset` bias is read from `readelf -lW` and
added; without it every sample lands a page off and the profile names the
wrong functions.

Self: samples whose innermost frame is in the symbol. Inclusive: samples with
the symbol anywhere in the recorded frames (needs SPROF_FRAMES=1 and a
frame-pointer build; each symbol counts once per sample). A coroutine stack
unwinds only as far as `dynprof_sim_co_entry`.

A stripped shared library is symbolised from its dynamic table (`nm -D`), so
a sample in one of its internal functions is named after the nearest exported
symbol below it: glibc's copy routines show up as `__nss_database_lookup`.

Census: A and B are scripts/acensus.c dumps of one command line at two rank
counts (`cpus=N`). Each stack's live bytes at the heap's peak are charged to
its owner, the innermost frame in the program's own crates (`dynprof*`) that
is not a generic container, and the table prints, per owner, the bytes at
each count and the slope between them: what one more rank costs, and who
holds it. Each owner is classed by its crate as the application (`apps`),
the simulated machine (`sim`, `mpi`, `omp`) or the tool (the rest), and the
classes' slopes close the table; together they are the live heap's slope.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")


class Image:
    """Sorted symbol table of one mapped file, addressed by file offset."""

    def __init__(self, path):
        self.path = path
        self.addrs, self.names = [], []
        bias = exec_bias(path)
        for flags in (["-n", "--defined-only", "-C"], ["-D", "-n", "--defined-only", "-C"]):
            syms = nm(path, flags)
            if syms:
                break
        for addr, name in syms:
            self.addrs.append(addr - bias)
            self.names.append(HASH.sub("", name))

    def lookup(self, offset):
        i = bisect.bisect_right(self.addrs, offset) - 1
        if i < 0:
            return None
        return self.names[i]


def exec_bias(path):
    """vaddr - offset of the executable LOAD segment (0 if unreadable)."""
    try:
        out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    except OSError:
        return 0
    for line in out.splitlines():
        f = line.split()
        # LOAD offset vaddr paddr filesz memsz flags... align; flags may split ("R E").
        if f and f[0] == "LOAD" and "E" in "".join(f[6:-1]):
            return int(f[2], 16) - int(f[1], 16)
    return 0


def nm(path, flags):
    try:
        out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
    except OSError:
        return []
    syms = []
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in "tTwWiI":
            syms.append((int(parts[0], 16), parts[2]))
    syms.sort()
    return syms


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self", dest="self_out")
    ap.add_argument("--inclusive", dest="incl_out")
    ap.add_argument("--census", action="store_true", help="two acensus dumps: per-rank slope by owner")
    ap.add_argument("--top", type=int, default=60)
    ap.add_argument("dumps", nargs="+")
    args = ap.parse_args()
    if args.census:
        if len(args.dumps) != 2:
            ap.error("--census takes two dumps")
        census(args.dumps, args.top)
        return
    if not (args.self_out and args.incl_out):
        ap.error("--self and --inclusive are required without --census")

    images = {}
    self_counts, incl_counts = collections.Counter(), collections.Counter()
    samples = dropped = 0
    for dump in args.dumps:
        maps = []
        with open(dump) as f:
            for line in f:
                if line.startswith("sprof "):
                    dropped += int(re.search(r"dropped=(\d+)", line).group(1))
                elif line.startswith("map "):
                    fields = line.split()
                    if len(fields) < 7:
                        continue  # anonymous mapping
                    lo, hi = (int(x, 16) for x in fields[1].split("-"))
                    maps.append((lo, hi, int(fields[3], 16), fields[6]))
                elif line.startswith("s "):
                    names = []
                    for pc in (int(x, 16) for x in line.split()[1:]):
                        names.append(resolve(pc, maps, images))
                    samples += 1
                    self_counts[names[0]] += 1
                    for name in set(names):
                        incl_counts[name] += 1
    if samples == 0:
        sys.exit("sprof_sym: no samples in " + " ".join(args.dumps))
    header = f"# {samples} samples from {len(args.dumps)} dumps, {dropped} dropped\n"
    for path, counts in ((args.self_out, self_counts), (args.incl_out, incl_counts)):
        with open(path, "w") as out:
            out.write(header)
            for name, n in counts.most_common(args.top):
                out.write(f"{100.0 * n / samples:6.2f}% {n:7d}  {name}\n")


# Frames a census passes over on its way to an owner: the tracer, the C
# library, and the standard library's containers and allocator plumbing.
PLUMBING = re.compile(
    r"^(<)?(alloc|core|std|hashbrown)::|^__rust|^__rdl|^_?(malloc|calloc|realloc|free)\b"
)


def owner(names):
    """The innermost frame of the program's own crates that is not plumbing,
    else the innermost frame that is not plumbing."""
    frames = [n for n in names if not n.endswith(("[acensus.so]", "[libc.so.6]"))]
    for name in frames:
        if "dynprof" in name and not PLUMBING.match(name):
            return name
    for name in frames:
        if not PLUMBING.match(name):
            return name
    return frames[0] if frames else "[unknown]"


def read_census(path, images):
    """(ranks, peak bytes, {owner: live bytes at the peak}) of one dump."""
    maps, by_owner, ranks, peak = [], collections.Counter(), None, 0
    with open(path) as f:
        for line in f:
            if line.startswith("acensus "):
                peak = int(re.search(r"snapshot=(\d+)", line).group(1))
            elif line.startswith("cmd "):
                m = re.search(r"\bcpus=(\d+)", line)
                ranks = int(m.group(1)) if m else None
            elif line.startswith("map "):
                fields = line.split()
                if len(fields) >= 7:
                    lo, hi = (int(x, 16) for x in fields[1].split("-"))
                    maps.append((lo, hi, int(fields[3], 16), fields[6]))
            elif line.startswith("c "):
                fields = line.split()
                names = [resolve(int(pc, 16), maps, images) for pc in fields[3:]]
                by_owner[owner(names)] += int(fields[1])
    if ranks is None:
        sys.exit(f"sprof_sym: {path}: no cpus=N on the command line")
    return ranks, peak, by_owner


CRATE = re.compile(r"dynprof_(\w+?)::")


def owner_class(name):
    m = CRATE.search(name)
    crate = m.group(1) if m else ""
    if crate == "apps":
        return "app"
    if crate in ("sim", "mpi", "omp"):
        return "machine"
    return "tool" if crate else "other"


def census(paths, top):
    images = {}
    (ra, pa, a), (rb, pb, b) = (read_census(p, images) for p in paths)
    if ra == rb:
        sys.exit("sprof_sym: both dumps are of the same rank count")
    per = rb - ra
    print(f"# live heap at its peak: {pa} B at {ra} ranks, {pb} B at {rb} ranks,"
          f" {(pb - pa) / per:.1f} B per rank")
    print(f"{'B/rank':>9} {'at ' + str(ra):>11} {'at ' + str(rb):>11}  {'class':<8} owner")
    rows = sorted(set(a) | set(b), key=lambda o: -abs(b[o] - a[o]))
    for o in rows[:top]:
        print(f"{(b[o] - a[o]) / per:9.1f} {a[o]:11d} {b[o]:11d}  {owner_class(o):<8} {o}")
    classes = collections.Counter()
    for o in rows:
        classes[owner_class(o)] += b[o] - a[o]
    for c in ("app", "machine", "tool", "other"):
        print(f"{classes[c] / per:9.1f} {'':11} {'':11}  {c:<8} (class total)")


def resolve(pc, maps, images):
    for lo, hi, offset, path in maps:
        if lo <= pc < hi:
            if path not in images:
                images[path] = Image(path)
            name = images[path].lookup(pc - lo + offset)
            short = path.rsplit("/", 1)[-1]
            return f"{name}  [{short}]" if name else f"[{short}]"
    return "[unmapped]"


if __name__ == "__main__":
    main()
