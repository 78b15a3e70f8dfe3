#!/usr/bin/env python3
"""Validate a flight-recorder trace file (--trace-out / World::trace_json).

Checks, in order:

  1. The file is valid JSON with the Chrome trace-event envelope:
     {"displayTimeUnit": "ms", "traceEvents": [...]}.
  2. Every event carries the required keys for its phase ("X" complete
     spans need ts/dur, "i" instants need ts, "M" metadata needs a name)
     and numeric fields are non-negative numbers.
  3. Expected span taxonomy is present: at least one "window" span
     (cat "window"); the driver's per-window "feed" span (cat "driver");
     per window-close "dispatch"/"absorb"/"merge" spans and the three
     per-monitor "close_aspath"/"close_community"/"close_burst" spans
     (cat "close"); and, with --require-shards, "shard_close" or the trace
     monitors' close spans.
  4. Containment: every cat "close" event whose args.window == W falls
     inside the [ts, ts+dur] interval of the "window" span for that same
     window on some thread (the driver drains at the window boundary, so
     the close machinery must nest inside the window it closes).

Exit code 0 when the trace passes, 1 with a message on stderr otherwise.
Usage: validate_trace.py TRACE.json [--require-shards] [--quiet]
"""

import argparse
import json
import sys

REQUIRED_CLOSE_NAMES = {"dispatch", "absorb", "merge", "close_aspath",
                        "close_community", "close_burst"}
SHARD_CLOSE_NAMES = {"shard_close", "close_subpath", "close_border",
                     "close_ixp"}


def fail(message):
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_envelope(doc):
    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    if doc.get("displayTimeUnit") != "ms":
        fail("missing or wrong displayTimeUnit (expected \"ms\")")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents is missing or not an array")
    return events


def check_event_shapes(events):
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"traceEvents[{i}] is not an object")
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            fail(f"traceEvents[{i}] has unknown phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            fail(f"traceEvents[{i}] has no name")
        if phase == "M":
            continue
        for key in ("pid", "tid", "ts"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"traceEvents[{i}] ({event['name']}) has bad {key}: "
                     f"{value!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"traceEvents[{i}] ({event['name']}) has bad dur: "
                     f"{dur!r}")
        if not isinstance(event.get("cat"), str):
            fail(f"traceEvents[{i}] ({event['name']}) has no cat")


def window_of(event):
    args = event.get("args")
    if isinstance(args, dict) and isinstance(args.get("window"), int):
        return args["window"]
    return None


def check_taxonomy(events, require_shards):
    spans = [e for e in events if e.get("ph") == "X"]
    window_spans = [e for e in spans if e.get("cat") == "window"]
    if not window_spans:
        fail("no cat=\"window\" span — was tracing enabled for the run?")
    close_names = {e["name"] for e in spans if e.get("cat") == "close"}
    missing = REQUIRED_CLOSE_NAMES - close_names
    if missing:
        fail(f"missing close-path spans: {sorted(missing)} "
             f"(saw {sorted(close_names)})")
    if require_shards and not (SHARD_CLOSE_NAMES & close_names):
        fail(f"no per-shard close span ({sorted(SHARD_CLOSE_NAMES)}); "
             f"saw {sorted(close_names)}")
    driver_names = {e["name"] for e in spans if e.get("cat") == "driver"}
    if "feed" not in driver_names:
        fail(f"missing driver feed span (saw {sorted(driver_names)})")
    return window_spans


def check_containment(events, window_spans):
    # Window index -> union of [start, end] intervals of its window spans
    # (one per World; fan-outs may run several worlds into one recorder).
    intervals = {}
    for span in window_spans:
        w = window_of(span)
        if w is None:
            fail(f"window span at ts={span['ts']} lacks args.window")
        intervals.setdefault(w, []).append(
            (span["ts"], span["ts"] + span["dur"]))

    checked = 0
    for event in events:
        if event.get("cat") != "close":
            continue
        w = window_of(event)
        if w is None:
            fail(f"close event {event['name']!r} at ts={event['ts']} "
                 f"lacks args.window")
        if w not in intervals:
            fail(f"close event {event['name']!r} references window {w} "
                 f"which has no window span")
        start = event["ts"]
        end = start + event.get("dur", 0)
        if not any(lo <= start and end <= hi for lo, hi in intervals[w]):
            fail(f"close event {event['name']!r} [{start}, {end}] is not "
                 f"contained in any window-{w} span "
                 f"{intervals[w]}")
        checked += 1
    return checked


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON file (--trace-out output)")
    parser.add_argument("--require-shards", action="store_true",
                        help="require per-shard close spans (sharded runs)")
    parser.add_argument("--quiet", action="store_true")
    options = parser.parse_args()

    try:
        with open(options.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {options.trace}: {error}")

    events = check_envelope(doc)
    check_event_shapes(events)
    window_spans = check_taxonomy(events, options.require_shards)
    checked = check_containment(events, window_spans)

    if not options.quiet:
        print(f"validate_trace: OK: {len(events)} events, "
              f"{len(window_spans)} window spans, "
              f"{checked} close events contained")


if __name__ == "__main__":
    main()
