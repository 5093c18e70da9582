"""Spans of the traced pass: loading, recording and self time.

A span is a dict with ``name``, ``id``, ``parent`` (0 for a root), ``job``,
``start`` and ``end`` in milliseconds. All spans of one job share its
``job`` id. The replay harness writes its spans as Chrome trace-event JSON;
the daemon client records its HTTP spans with :class:`SpanRecorder`.
"""

import json


def load_chrome_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        args = e["args"]
        spans.append({
            "name": e["name"],
            "id": args["id"],
            "parent": args["parent"],
            "job": args["job"],
            "start": e["ts"] / 1000.0,
            "end": (e["ts"] + e["dur"]) / 1000.0,
        })
    return spans


def write_chrome_trace(path, spans, pid=1):
    events = [{"name": s["name"], "ph": "X", "pid": pid, "tid": s["job"],
               "ts": s["start"] * 1000.0,
               "dur": (s["end"] - s["start"]) * 1000.0,
               "args": {"job": s["job"], "id": s["id"],
                        "parent": s["parent"]}} for s in spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


class SpanRecorder:
    """Keeps spans in memory; they are written out once, at the end."""

    def __init__(self):
        self.spans = []

    def add(self, name, job, parent, start, end):
        self.spans.append({"name": name, "id": len(self.spans) + 1,
                           "parent": parent, "job": job,
                           "start": start, "end": end})
        return len(self.spans)


def _covered(intervals):
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover (overlapping children are counted once)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(kids)
    return out


def self_time_by_name(spans):
    """Total self time (ms) per span name."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + selfs[s["id"]]
    return totals
