#!/usr/bin/env python3
"""Summarize a flight-recorder trace file (--trace-out / World::trace_json)
as a per-span totals table.

One row per (thread role, category, span name): how many spans, their
inclusive total, and their self time (inclusive minus the spans nested
directly inside them on the same thread). On the driver thread every
microsecond between its first span's start and its last span's end is
either the self time of exactly one span or "unattributed": work the
driver did outside any traced span (traceroute synthesis, BGP feeding,
bench hooks). Shares are of that driver wall time. Pool-thread rows run
concurrently with the driver, so their shares can add up past 100%.

The driver is the thread named "driver" by a thread_name metadata event;
without one, the thread holding the most "window" spans.

Usage: trace_summary.py TRACE.json [--top N]
Exit code 0 on success, 1 with a message on stderr for an unreadable file.
"""

import argparse
import collections
import json
import sys


def fail(message):
    print(f"trace_summary: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_events(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {path}: {error}")
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        fail("traceEvents is missing or not an array")
    return events


def driver_thread(events, spans_by_thread):
    for event in events:
        if (event.get("ph") == "M" and event.get("name") == "thread_name"
                and event.get("args", {}).get("name") == "driver"):
            return (event.get("pid"), event.get("tid"))
    windows = collections.Counter(
        thread for thread, spans in spans_by_thread.items()
        for span in spans if span["name"] == "window")
    if windows:
        return windows.most_common(1)[0][0]
    return max(spans_by_thread, key=lambda t: len(spans_by_thread[t]))


def self_times(spans):
    """Returns (self time per span index, indices of top-level spans) for
    one thread's spans, which nest but never partly overlap."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
    own = [span["dur"] for span in spans]
    top_level = []
    stack = []  # indices of open spans, innermost last

    def end(j):
        return spans[j]["ts"] + spans[j]["dur"]

    for i in order:
        while stack and end(stack[-1]) <= spans[i]["ts"]:
            stack.pop()
        if stack:
            own[stack[-1]] -= spans[i]["dur"]
        else:
            top_level.append(i)
        stack.append(i)
    return own, top_level


def summarize(events):
    spans_by_thread = collections.defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            spans_by_thread[(event.get("pid"), event.get("tid"))].append(event)
    if not spans_by_thread:
        fail("no complete (\"X\") spans in the trace")
    driver = driver_thread(events, spans_by_thread)

    rows = {}
    wall = unattributed = 0
    for thread, spans in spans_by_thread.items():
        role = "driver" if thread == driver else "pool"
        own, top_level = self_times(spans)
        for span, self_us in zip(spans, own):
            key = (role, span.get("cat", ""), span["name"])
            row = rows.setdefault(key, [0, 0, 0])
            row[0] += 1
            row[1] += span["dur"]
            row[2] += self_us
        if thread == driver:
            start = min(span["ts"] for span in spans)
            end = max(span["ts"] + span["dur"] for span in spans)
            wall = end - start
            unattributed = wall - sum(spans[i]["dur"] for i in top_level)
    return rows, wall, unattributed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace", help="trace JSON file (--trace-out output)")
    parser.add_argument("--top", type=int, default=0,
                        help="print only the N rows with the most self time")
    options = parser.parse_args()

    rows, wall, unattributed = summarize(load_events(options.trace))
    ordered = sorted(rows.items(), key=lambda kv: (-kv[1][2], kv[0]))
    if options.top > 0:
        ordered = ordered[:options.top]

    def share(us):
        return f"{100.0 * us / wall:6.1f}%" if wall > 0 else "     -"

    header = (f"{'thread':<7} {'category':<8} {'span':<18} {'count':>7} "
              f"{'total_ms':>10} {'self_ms':>10} {'self/wall':>9}")
    print(header)
    print("-" * len(header))
    for (role, cat, name), (count, total, own) in ordered:
        print(f"{role:<7} {cat:<8} {name:<18} {count:>7} "
              f"{total / 1e3:>10.1f} {own / 1e3:>10.1f} {share(own):>9}")
    print("-" * len(header))
    print(f"{'driver':<7} {'':<8} {'unattributed':<18} {'':>7} "
          f"{'':>10} {unattributed / 1e3:>10.1f} {share(unattributed):>9}")
    print(f"{'driver':<7} {'':<8} {'wall':<18} {'':>7} "
          f"{wall / 1e3:>10.1f} {'':>10} {share(wall):>9}")


if __name__ == "__main__":
    main()
