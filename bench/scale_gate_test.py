#!/usr/bin/env python3
"""Drives bench_multiclient's --check throughput gate end to end.

Usage: scale_gate_test.py PATH/TO/bench_multiclient

One --smoke run writes a fresh server-scale file. Doctored copies of it
then serve as --check baselines:

  * frames/sec x20 (floor 10x the measured rate): the gate must fail, exit 1;
  * frames/sec /20: the gate must pass, exit 0;
  * frames/sec x20 with another hardware_concurrency: disarmed, exit 0;
  * --check naming the --scale-out path, or an unreadable file: exit 2 before
    the sweep runs, leaving the baseline untouched.

Every run writes into a temporary directory.
"""
import json
import os
import subprocess
import sys
import tempfile


def run(bench, tmp, *args):
    cmd = [bench, "--smoke", "--out=" + os.path.join(tmp, "mc.json")]
    cmd += list(args)
    proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(rc, out, want, marker, what):
    if rc != want or marker not in out:
        sys.stdout.write(out)
        sys.exit("FAIL %s: exit %d (want %d), marker %r %s" %
                 (what, rc, want, marker,
                  "present" if marker in out else "missing"))
    print("ok   %s: exit %d" % (what, rc))


def doctored(tmp, name, base, scale, hardware_concurrency=None):
    data = json.loads(json.dumps(base))
    for row in data["rows"]:
        row["frames_per_sec"] *= scale
    if hardware_concurrency is not None:
        data["hardware_concurrency"] = hardware_concurrency
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        json.dump(data, f)
    return path


def main():
    bench = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        new_out = "--scale-out=" + os.path.join(tmp, "new.json")
        rc, out = run(bench, tmp, "--scale-out=" + base_path)
        expect(rc, out, 0, "wrote", "baseline run")
        with open(base_path) as f:
            base = json.load(f)

        raised = doctored(tmp, "raised.json", base, 20.0)
        rc, out = run(bench, tmp, "--check=" + raised, new_out)
        expect(rc, out, 1, "REGRESSED", "baseline 20x faster trips the gate")

        lowered = doctored(tmp, "lowered.json", base, 1.0 / 20.0)
        rc, out = run(bench, tmp, "--check=" + lowered, new_out)
        expect(rc, out, 0, "vs floor", "baseline 20x slower passes")

        other = doctored(tmp, "other.json", base, 20.0,
                         base["hardware_concurrency"] + 1)
        rc, out = run(bench, tmp, "--check=" + other, new_out)
        expect(rc, out, 0, "--check disarmed", "other host only reports")

        with open(raised) as f:
            before = f.read()
        rc, out = run(bench, tmp, "--check=" + raised,
                      "--scale-out=" + raised)
        expect(rc, out, 2, "also the --scale-out path",
               "--check equal to --scale-out refused")
        with open(raised) as f:
            if f.read() != before:
                sys.exit("FAIL refused run still rewrote its baseline")

        rc, out = run(bench, tmp, "--check=" + os.path.join(tmp, "absent"),
                      new_out)
        expect(rc, out, 2, "cannot read", "missing baseline refused")


if __name__ == "__main__":
    main()
