#!/usr/bin/env python3
"""Guards the threaded engine's direct-threaded dispatch.

Machine::RunThreaded ends every handler with its own `goto *op->handler`.
GCC can fold those indirect jumps into one shared dispatch jump (an
innocent-looking edit near the loop's top is enough, see
src/vm/CMakeLists.txt); the engine still works but runs about 30% slower,
and no functional test notices. This check disassembles the built sc_vm
library and fails when RunThreaded has fewer than MIN_JUMPS indirect jumps.

Usage:
  dispatch_guard.py LIBRARY --build-type=T --compiler=ID --arch=P \\
      [--cxx-flags=FLAGS] [--sanitize=MODE]

Exits 77 (a ctest skip) where the count means nothing: Debug builds, other
compilers or architectures, sanitizer builds, the switch fallback
(-DSOFTCACHE_NO_COMPUTED_GOTO), or no objdump on PATH.
"""
import argparse
import re
import shutil
import subprocess
import sys

SKIP = 77
MIN_JUMPS = 32
FUNCTION = "sc::vm::Machine::RunThreaded(unsigned long)"


def skip(why):
    print(f"skipped: {why}")
    sys.exit(SKIP)


def count_indirect_jumps(disassembly, function):
    """Counts `jmp *...` lines in the body of `function` (cold clones excluded)."""
    header = re.compile(r"^[0-9a-f]+ <(.*)>:$")
    inside = False
    found = False
    jumps = 0
    for line in disassembly.splitlines():
        m = header.match(line)
        if m:
            inside = m.group(1) == function
            found = found or inside
            continue
        if inside and re.search(r"\bjmp\s+\*", line):
            jumps += 1
    return jumps if found else None


def main():
    p = argparse.ArgumentParser()
    p.add_argument("library")
    p.add_argument("--build-type", default="")
    p.add_argument("--compiler", default="")
    p.add_argument("--arch", default="")
    p.add_argument("--cxx-flags", default="")
    p.add_argument("--sanitize", default="OFF")
    a = p.parse_args()

    if a.build_type.lower() in ("", "debug"):
        skip(f"unoptimized build type '{a.build_type}'")
    if a.compiler != "GNU":
        skip(f"compiler {a.compiler} (the rule is for GCC)")
    if a.arch.lower() not in ("x86_64", "amd64"):
        skip(f"architecture {a.arch}")
    if "SOFTCACHE_NO_COMPUTED_GOTO" in a.cxx_flags:
        skip("switch-fallback build")
    if a.sanitize.upper() not in ("", "OFF", "0", "FALSE", "NO"):
        skip(f"sanitizer build ({a.sanitize})")
    objdump = shutil.which("objdump")
    if objdump is None:
        skip("no objdump on PATH")

    out = subprocess.run([objdump, "-d", "--no-show-raw-insn", "-C", a.library],
                         check=True, capture_output=True, text=True).stdout
    jumps = count_indirect_jumps(out, FUNCTION)
    if jumps is None:
        print(f"FAIL: {FUNCTION} not found in {a.library}")
        return 1
    print(f"{FUNCTION}: {jumps} indirect jumps (minimum {MIN_JUMPS})")
    if jumps < MIN_JUMPS:
        print("FAIL: the per-handler dispatch jumps were merged; check that "
              "superblock.cpp still builds with -fno-tree-slp-vectorize and "
              "-fno-crossjumping, and what changed around RunThreaded's "
              "outer: label")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
