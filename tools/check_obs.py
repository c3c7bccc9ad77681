#!/usr/bin/env python3
"""CI checker for the observability artifacts srun emits.

Usage:
  check_obs.py trace FILE      merged Chrome trace: per-lane balanced B/E
                               spans, every flow id has matching s/f
                               endpoints, zero dropped events
  check_obs.py metrics FILE    metrics JSON: parses, has counters; in a
                               fleet file every frame the switch carried
                               was enqueued on the loop and counted once
                               in mc.requests_served
  check_obs.py inspect FILE... inspector snapshots: parse, schema marker,
                               server section present

Stdlib only. Exits nonzero with a message on the first violation.
"""
import json
import sys


def fail(msg):
    print(f"check_obs: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    depth = {}          # (pid, tid) -> open span depth
    starts, ends = {}, {}
    lanes_with_spans = set()
    for e in events:
        lane = (e.get("pid"), e.get("tid"))
        ph = e.get("ph")
        if ph == "B":
            depth[lane] = depth.get(lane, 0) + 1
            lanes_with_spans.add(lane)
        elif ph == "E":
            depth[lane] = depth.get(lane, 0) - 1
            if depth[lane] < 0:
                fail(f"{path}: orphan E in lane {lane}")
        elif ph == "s":
            starts[e["id"]] = starts.get(e["id"], 0) + 1
        elif ph == "f":
            ends[e["id"]] = ends.get(e["id"], 0) + 1
    for lane, d in depth.items():
        if d != 0:
            fail(f"{path}: unclosed span in lane {lane}")
    for fid in starts:
        if fid not in ends:
            fail(f"{path}: flow id {fid} started but never ended")
    for fid in ends:
        if fid not in starts:
            fail(f"{path}: flow id {fid} ended without a start")
    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    if isinstance(dropped, int) and dropped > 0:
        fail(f"{path}: {dropped} events dropped (raise the ring capacity)")
    print(f"check_obs: {path} ok ({len(events)} events, "
          f"{len(lanes_with_spans)} span lanes, {len(starts)} flows)")


def check_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    counters = doc.get("counters")
    if not isinstance(counters, dict) or not counters:
        fail(f"{path}: no counters section")
    # Fleet runs route every MC frame through the switch and the server
    # loop; the MC's total is summed from its sessions, so a frame class
    # left out of that sum shows up here as a mismatch.
    frame_keys = ("mc.requests_served", "net.switch.frames",
                  "mc.loop.requests_enqueued")
    if any(k in counters for k in frame_keys[1:]):
        values = [counters.get(k) for k in frame_keys]
        if None in values or len(set(values)) != 1:
            fail(f"{path}: frame counts disagree: " +
                 ", ".join(f"{k}={v}" for k, v in zip(frame_keys, values)))
    print(f"check_obs: {path} ok ({len(counters)} counters)")


def check_inspect(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("softcache_inspector") != 1:
        fail(f"{path}: missing softcache_inspector schema marker")
    if not isinstance(doc.get("server"), dict):
        fail(f"{path}: missing server section")
    if doc.get("scope") == "full" and not isinstance(doc.get("clients"), list):
        fail(f"{path}: full-scope snapshot without a clients array")
    print(f"check_obs: {path} ok (reason={doc.get('reason')}, "
          f"seq={doc.get('seq')}, scope={doc.get('scope')})")


def main(argv):
    if len(argv) < 3:
        fail("usage: check_obs.py trace|metrics|inspect FILE...")
    mode, paths = argv[1], argv[2:]
    checker = {"trace": check_trace, "metrics": check_metrics,
               "inspect": check_inspect}.get(mode)
    if checker is None:
        fail(f"unknown mode {mode}")
    for path in paths:
        checker(path)


if __name__ == "__main__":
    main(sys.argv)
