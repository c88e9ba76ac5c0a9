#!/usr/bin/env python3
"""Dependency-free sampling profiler: record a program's PCs, print its hot
functions and lines; or record its allocation stacks and print its
allocation sites.

    tools/profile/profile.py record --sampler build/libsmt_profiler.so \\
        --out prof.txt -- build/bench_simperf --smoke
    tools/profile/profile.py report prof.txt [--top 25]
    tools/profile/profile.py self-test --sampler LIB --busy BIN

    tools/profile/profile.py record --sampler build/libsmt_allochook.so \\
        --out allocs.txt -- build/bench_simperf --smoke
    tools/profile/profile.py alloc-report allocs.txt [--per N]
    tools/profile/profile.py alloc-self-test --hook LIB --sites BIN

`record` runs the command with the sampler (tools/profile/sampler.cpp)
preloaded. The sampler takes the interrupted PC every millisecond of
process CPU time (the kernel tick may lower the rate) and writes one file
per process at exit; `record` keeps the one with the most
samples as --out. `report` maps each PC to its mapping in the recorded
/proc/self/maps, then to a function: `addr2line` for the executable (with
its inline frames and source lines when it has debug info: build with -g
for lines) and `nm` symbols for shared libraries. A shared library with
no local symbols (a stripped libc) is labelled by the start of the
function the PC is in, read from the library's .eh_frame_hdr table, with
the nearest exported symbol before it as a hint only: `libc.so.6+0x...
(no local symbols; nearest export memcpy)`. `report` prints three tables
of self time: by function (the innermost inlined frame, where the PC
really is), by symbol (the out-of-line function that contains it), and
by source line. `self-test` profiles tools/profile/busy_loop.cpp and
checks that its hot function tops the report.

With the allocation hook (tools/profile/alloc_hook.cpp) as the sampler,
`record` keeps every allocation's call stack instead. `alloc-report`
charges each allocation to the innermost frame, inlined frames
included, whose source file is under the repository's src/, and prints
the sites with their count per operation (--per: the number of
operations the run made, e.g. bench_suite's "attempted").
`alloc-self-test` records tools/profile/alloc_sites.cpp, a program with
two allocation sites, and checks both counts per operation.

Needs only python3 and binutils (addr2line, nm).
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def parse_profile(path):
    """Returns (meta dict, maps list, records): records is {pc: count} for
    a sampler profile and [(count, bytes, [pc, ...])] for an allocation
    one."""
    meta, maps, pcs, stacks = {}, [], {}, []
    section = "header"
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.rstrip("\n")
            if section == "header":
                if line == "maps":
                    section = "maps"
                    continue
                key, _, value = line.partition(" ")
                meta[key] = value
            elif section == "maps":
                if line in ("pcs", "stacks"):
                    section = line
                    continue
                fields = line.split(None, 5)
                if len(fields) < 5:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5] if len(fields) == 6 else ""
                maps.append((lo, hi, int(fields[2], 16), name))
            elif section == "pcs":
                pc, count = line.split()
                pcs[int(pc, 16)] = int(count)
            else:
                count, size, *frames = line.split()
                stacks.append((int(count), int(size),
                               [int(pc, 16) for pc in frames]))
    if "samples" not in meta:
        raise ValueError(f"{path}: not a profile written by the sampler")
    maps.sort()
    return meta, maps, (stacks if section == "stacks" else pcs)


def program_headers(path):
    """(p_type, p_offset, p_vaddr, p_filesz) of a 64-bit ELF, [] if none."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return []
            endian = "<" if head[5] == 1 else ">"
            phoff = struct.unpack_from(endian + "Q", head, 0x20)[0]
            phentsize, phnum = struct.unpack_from(endian + "HH", head, 0x36)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    headers = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        headers.append((p_type, p_offset, p_vaddr, p_filesz))
    return headers


def load_segments(headers):
    """PT_LOAD (p_offset, p_vaddr, p_filesz) among `headers`."""
    return [(off, vaddr, size) for kind, off, vaddr, size in headers
            if kind == 1]


def function_starts(path, headers):
    """Sorted start addresses of the functions in .eh_frame_hdr's search
    table (PT_GNU_EH_FRAME), local functions included: the one map of
    function boundaries a stripped library still carries. [] when the
    table is missing or uses an encoding other than GCC's usual ones."""
    for kind, offset, vaddr, size in headers:
        if kind != 0x6474E550:
            continue
        try:
            with open(path, "rb") as f:
                f.seek(offset)
                hdr = f.read(size)
        except OSError:
            return []
        # version 1; eh_frame_ptr pcrel|sdata4; fde_count udata4; table
        # datarel|sdata4 (relative to the header's own address).
        if len(hdr) < 12 or hdr[:4] != bytes([1, 0x1B, 0x03, 0x3B]):
            return []
        count = struct.unpack_from("<I", hdr, 8)[0]
        if 12 + 8 * count > len(hdr):
            return []
        return sorted(vaddr + struct.unpack_from("<i", hdr, 12 + 8 * i)[0]
                      for i in range(count))
    return []


def file_vaddr(segments, file_offset):
    """The link-time address of a file offset (what addr2line and nm use)."""
    for p_offset, p_vaddr, p_filesz in segments:
        if p_offset <= file_offset < p_offset + p_filesz:
            return file_offset - p_offset + p_vaddr
    return file_offset


def addr2line(binary, addresses):
    """{addr: [(function, file:line), ...]} innermost inline frame first."""
    if not addresses:
        return {}
    query = "".join(f"{a:x}\n" for a in addresses)
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                         input=query, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    frames, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = int(out[i], 16)
            frames[current] = []
            i += 1
            continue
        if current is not None and i + 1 < len(out):
            frames[current].append((out[i], out[i + 1]))
        i += 2
    return frames


def nm_symbols(binary):
    """(sorted (addr, name) of the defined function symbols of a binary,
    whether it has a symbol table beyond its dynamic exports)."""
    symbols, local = {}, False
    for flags in (["-D"], []):
        result = subprocess.run(["nm", "-C", "--defined-only", *flags, binary],
                                capture_output=True, text=True)
        for line in result.stdout.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "TtWw":
                symbols.setdefault(int(parts[0], 16), parts[2])
                local = local or not flags
    return sorted(symbols.items()), local


def library_labeller(path):
    """A function from a link-time address in shared library `path` to the
    name of the function it is in."""
    name = os.path.basename(path)
    headers = program_headers(path)
    symbols, local = nm_symbols(path)
    addrs = [a for a, _ in symbols]
    starts = [] if local else function_starts(path, headers)

    def label(vaddr):
        j = bisect.bisect_right(addrs, vaddr) - 1
        export = symbols[j][1] if j >= 0 else "??"
        if local:
            return f"{export} [{name}]"
        # Stripped: the nearest export is merely the last public name
        # before the PC, often another function entirely.
        k = bisect.bisect_right(starts, vaddr) - 1
        start = starts[k] if k >= 0 else vaddr
        return (f"{name}+{start:#x} (no local symbols; nearest export "
                f"{export})")
    return label


def symbolize(meta, maps, pcs):
    """Yields (count, function, symbol, line) per sampled PC."""
    starts = [m[0] for m in maps]
    by_binary = collections.defaultdict(list)  # path -> [(pc, vaddr)]
    unmapped = []
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1] or not maps[i][3].startswith("/"):
            unmapped.append((pc, maps[i][3] if 0 <= i and pc < maps[i][1]
                             else ""))
            continue
        lo, _, offset, path = maps[i]
        by_binary[path].append((pc, pc - lo + offset))

    exe = meta.get("exe", "")
    for path, entries in by_binary.items():
        segments = load_segments(program_headers(path))
        vaddrs = {pc: file_vaddr(segments, off) for pc, off in entries}
        name = os.path.basename(path)
        if path == exe:
            frames = addr2line(path, sorted(set(vaddrs.values())))
            for pc, vaddr in vaddrs.items():
                chain = frames.get(vaddr) or [("??", "??:0")]
                function = chain[0][0]
                symbol = chain[-1][0]
                line = chain[0][1].split(" (discriminator")[0]
                yield pcs[pc], function, symbol, line
        else:
            label = library_labeller(path)
            for pc, vaddr in vaddrs.items():
                symbol = label(vaddr)
                yield pcs[pc], symbol, symbol, f"{name}+{vaddr:#x}"
    for pc, label in unmapped:
        tag = f"?? [{label or 'unmapped'}]"
        yield pcs[pc], tag, tag, tag


def alloc_sites(meta, maps, stacks, src):
    """{site: [allocations, bytes]}: each stack charged to its innermost
    frame, inlined ones included, in a source file under `src` (site
    "file:line (function)", the file relative to src's parent), or to
    None when no frame is."""
    src = str(Path(src).resolve()) + os.sep
    starts = [m[0] for m in maps]
    exe = meta.get("exe", "")
    segments = load_segments(program_headers(exe))

    def exe_vaddr(pc):
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1] or maps[i][3] != exe:
            return None
        lo, _, offset, _ = maps[i]
        # A return address: the call is the instruction before it.
        return file_vaddr(segments, pc - lo + offset) - 1

    vaddrs = {pc: exe_vaddr(pc) for _, _, frames in stacks for pc in frames}
    frames_at = addr2line(exe, sorted({v for v in vaddrs.values()
                                       if v is not None}))
    root = os.path.dirname(src.rstrip(os.sep)) + os.sep
    sites = collections.defaultdict(lambda: [0, 0])
    for count, size, frames in stacks:
        site = None
        for pc in frames:
            for function, line in frames_at.get(vaddrs[pc], ()):
                path = line.split(" (discriminator")[0]
                if path.startswith(src):
                    site = f"{path[len(root):]} ({function})"
                    break
            if site is not None:
                break
        sites[site][0] += count
        sites[site][1] += size
    return sites


def alloc_report(path, top, per, src, width=110, file=sys.stdout):
    meta, maps, stacks = parse_profile(path)
    if not isinstance(stacks, list):
        raise ValueError(f"{path}: a sampler profile, not allocation stacks")
    sites = alloc_sites(meta, maps, stacks, src)
    total = sum(c for c, _ in sites.values())
    outside = sites.pop(None, [0, 0])[0]
    print(f"{path}: {total} allocations (dropped {meta.get('dropped', '0')}"
          f"); exe {meta.get('exe', '?')}", file=file)
    print(f"{total - outside} of them charged to a line under {src}"
          + (f"; per operation over {per} operations" if per else ""),
          file=file)
    print(f"\nTop {top} allocation sites (innermost frame under {src}):",
          file=file)
    print(f"{'per op' if per else 'count':>10} {'share':>6} {'bytes':>12}  "
          "site", file=file)
    ranked = sorted(sites.items(), key=lambda kv: (-kv[1][0], kv[0]))
    for site, (count, size) in ranked[:top]:
        share = 100.0 * count / total if total else 0.0
        amount = f"{count / per:10.3f}" if per else f"{count:10d}"
        if len(site) > width:
            site = site[:width - 3] + "..."
        print(f"{amount} {share:5.1f}% {size:12d}  {site}", file=file)
    amount = f"{outside / per:10.3f}" if per else f"{outside:10d}"
    print(f"{amount} {100.0 * outside / total if total else 0.0:5.1f}% "
          f"{'':>12}  (no frame under {src})", file=file)
    return total, sites


def report(path, top, width=110, file=sys.stdout):
    meta, maps, pcs = parse_profile(path)
    rows = list(symbolize(meta, maps, pcs))
    total = sum(r[0] for r in rows)
    # The kernel tick can cap the rate below the requested interval, so
    # the sample count is not a CPU time.
    print(f"{path}: {total} samples (one asked for every "
          f"{meta.get('interval_us', '?')} us of CPU), dropped "
          f"{meta.get('dropped', '0')}; exe {meta.get('exe', '?')}",
          file=file)
    tables = {}
    for title, index in (("function (innermost inlined frame)", 1),
                         ("symbol (out-of-line function)", 2),
                         ("source line", 3)):
        counts = collections.Counter()
        for row in rows:
            counts[row[index]] += row[0]
        tables[index] = counts
        print(f"\nTop {top} by {title}:", file=file)
        print(f"{'self%':>6} {'samples':>8}  name", file=file)
        for name, count in counts.most_common(top):
            share = 100.0 * count / total if total else 0.0
            if len(name) > width:
                name = name[:width - 3] + "..."
            print(f"{share:6.2f} {count:8d}  {name}", file=file)
    return total, tables


def record(sampler, out, command):
    """Runs `command` under the sampler; returns its exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "prof")
        env = dict(os.environ)
        env["LD_PRELOAD"] = str(Path(sampler).resolve())
        env["SMT_PROF_OUT"] = prefix
        status = subprocess.run(command, env=env).returncode
        files = sorted(Path(tmp).glob("prof.*"))
        if not files:
            sys.exit("profile.py: the sampler wrote no profile (was it "
                     "preloaded, and did the program exit normally?)")

        def samples(p):
            return int(parse_profile(p)[0]["samples"])

        best = max(files, key=samples)
        if len(files) > 1:
            print(f"profile.py: {len(files)} processes profiled; keeping "
                  f"the busiest, {best.name}", file=sys.stderr)
        os.replace(best, out)
    if status != 0:
        print(f"profile.py: the command exited {status}", file=sys.stderr)
    return status


def self_test(sampler, busy):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "busy.prof")
        if record(sampler, out, [busy]) != 0:
            print("self-test: busy loop failed", file=sys.stderr)
            return 1
        with open(os.devnull, "w") as sink:
            total, tables = report(out, 5, file=sink)
    symbols = tables[2]
    if total < 50:
        print(f"self-test: only {total} samples", file=sys.stderr)
        return 1
    (top_name, top_count), = symbols.most_common(1)
    hot = sum(c for n, c in symbols.items() if n.startswith("hot_spin"))
    cold = sum(c for n, c in symbols.items()
               if "spin(" in n and not n.startswith("hot_spin"))
    ok = top_name.startswith("hot_spin") and hot > 0.6 * total and cold > 0
    print(f"self-test: {total} samples, top symbol {top_name!r} "
          f"({100.0 * top_count / total:.1f}%), cold {cold}: "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def alloc_self_test(hook, sites_binary):
    source = Path(__file__).resolve().parent / "alloc_sites.cpp"
    expected = {}
    for number, text in enumerate(source.read_text().splitlines(), 1):
        if "// site: " in text:
            per_op = {"three": 3.0, "one": 1.0}[text.split("// site: ")[1]
                                                .split()[0]]
            expected[f"{source.parent.name}/{source.name}:{number}"] = per_op
    ops = 2000
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sites.allocs")
        if record(hook, out, [sites_binary, str(ops)]) != 0:
            print("alloc-self-test: the two-site program failed",
                  file=sys.stderr)
            return 1
        with open(os.devnull, "w") as sink:
            _, sites = alloc_report(out, 10, ops, source.parent, file=sink)
    seen = {site.split(" (")[0]: count / ops
            for site, (count, _) in sites.items() if count / ops >= 0.01}
    ok = seen == expected
    print(f"alloc-self-test: per operation {seen}, expected {expected}: "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run a command under the sampler")
    rec.add_argument("--sampler", required=True)
    rec.add_argument("--out", required=True)
    rec.add_argument("command", nargs=argparse.REMAINDER)
    rep = sub.add_parser("report", help="print a recorded profile")
    rep.add_argument("profile")
    rep.add_argument("--top", type=int, default=25)
    test = sub.add_parser("self-test", help="profile the busy loop")
    test.add_argument("--sampler", required=True)
    test.add_argument("--busy", required=True)
    allocs = sub.add_parser("alloc-report",
                            help="print recorded allocation sites")
    allocs.add_argument("profile")
    allocs.add_argument("--top", type=int, default=25)
    allocs.add_argument("--per", type=int, default=0,
                        help="operations in the run: print counts per op")
    alloc_test = sub.add_parser("alloc-self-test",
                                help="record the two-site program")
    alloc_test.add_argument("--hook", required=True)
    alloc_test.add_argument("--sites", required=True)
    args = parser.parse_args()

    if args.mode == "record":
        command = args.command[1:] if args.command[:1] == ["--"] else \
            args.command
        if not command:
            parser.error("record needs a command after --")
        return record(args.sampler, args.out, command)
    if args.mode == "report":
        report(args.profile, args.top)
        return 0
    if args.mode == "alloc-report":
        alloc_report(args.profile, args.top, args.per, ROOT / "src")
        return 0
    if args.mode == "alloc-self-test":
        return alloc_self_test(args.hook, args.sites)
    return self_test(args.sampler, args.busy)


if __name__ == "__main__":
    sys.exit(main())
