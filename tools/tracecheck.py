#!/usr/bin/env python3
"""Validators for sdspc observability output (docs/OBSERVABILITY.md).

Two subcommands, both exiting 0 on success and 1 with a readable
message on the first violation:

  tracecheck.py trace FILE
      Schema-check a Chrome trace-event capture produced by
      `sdspc --trace=FILE`: well-formed JSON, a traceEvents array,
      metadata ("M") records naming the process and every track,
      per-track monotone timestamps, balanced B/E span nesting, and
      an explicit scope on every instant.  "simd-dispatch" instants
      (the fast engine recording which readiness-sweep tier it
      selected, petri/SimdDispatch.h) must additionally carry a known
      tier name in their args.  "store-publish" instants (a pass
      artifact persisted to the content-addressed disk store,
      docs/SERVICE.md) must name the pass and a nonzero byte count,
      and "request" spans (one per sdspd request) may only appear on
      the daemon's "request:N" tracks.  "pass" spans must close with a
      known "resolved" disposition; per track, every computed pass span
      but verify holds one "cache-publish" instant or none does, and no
      hit or verify span holds one (all-or-none: the cache:publish
      fault tests, not this check, pin that plain sessions publish).
      Anything Perfetto or chrome://tracing would render wrong fails
      here first.

  tracecheck.py metrics-diff A B
      Compare the "counters" objects of two `sdspc --metrics-json`
      reports and fail on any difference.  Gauges (wall time, queue
      depth) are scheduling-dependent by design and are ignored; the
      counters are the determinism surface CI pins across -j values.

  tracecheck.py faults TRACE METRICS
      Cross-check fault-injection observability (docs/ROBUSTNESS.md):
      every "fault-injected" instant in the trace must be matched by
      the fault.injected counter (totals and per-site breakdown, ':'
      mapped to '.'), and "cancelled" instants must match the
      cancel.observed gauge.  A mismatch means a fault fired without
      being recorded, or vice versa.

  tracecheck.py pnml TRACE METRICS
      Cross-check PNML interop observability (docs/INTEROP.md): the
      capture must pass `trace`; import-pnml / export-pnml spans must
      pair B/E per track, every closing record must carry a known
      "resolved" disposition, an import's pnml-parse and pnml-classify
      child spans must sit inside it (one of each in a computed import,
      at most one of each in a failed or cancelled one, none in a cache
      hit), and the computed spans must reconcile with the pnml.*
      counters — computed imports == pnml.imports, computed exports ==
      pnml.exports, failed imports >= pnml.rejects, the "bytes"
      arguments of the pnml-parse spans sum to pnml.import.bytes, and
      the structural counters (places/transitions/arcs, export bytes)
      must be consistent with the imports/exports that produced them.
"""

import json
import sys

# Tier names the engine's SimdDispatch layer can report (must match
# sdsp::simdTierName in src/petri/SimdDispatch.cpp).
SIMD_TIERS = {"scalar", "sse2", "avx2", "avx512"}


def fail(msg):
    print(f"tracecheck: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read '{path}': {e.strerror}")
    except json.JSONDecodeError as e:
        fail(f"'{path}' is not valid JSON: {e}")


def check_trace(path):
    doc = load_json(path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"'{path}': missing top-level 'traceEvents' array")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"'{path}': 'traceEvents' must be a non-empty array")

    named_tids = set()
    track_names = {}
    process_named = False
    # Per-tid state: last timestamp, the open-span stack ([name, cat,
    # cache-publish count]), and the cache-publish counts seen in closed
    # pass spans, by how they resolved ("verify" on its own).
    last_ts = {}
    open_spans = {}
    publishes = {}
    counts = {"B": 0, "E": 0, "i": 0, "simd": 0, "request": 0, "store": 0}

    for i, ev in enumerate(events):
        where = f"'{path}' event {i}"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                process_named = True
            elif ev.get("name") == "thread_name":
                named_tids.add(ev.get("tid"))
                track_names[ev.get("tid")] = \
                    ev.get("args", {}).get("name", "")
            continue
        if ph not in ("B", "E", "i"):
            fail(f"{where}: unexpected phase {ph!r}")
        counts[ph] += 1
        tid = ev.get("tid")
        ts = ev.get("ts")
        if not isinstance(tid, int) or not isinstance(ts, int):
            fail(f"{where}: integer 'tid' and 'ts' are required")
        if tid not in named_tids:
            fail(f"{where}: tid {tid} has no thread_name metadata")
        if ts < last_ts.get(tid, 0):
            fail(f"{where}: ts {ts} < {last_ts[tid]} on tid {tid} "
                 "(timestamps must be monotone per track)")
        last_ts[tid] = ts
        stack = open_spans.setdefault(tid, [])
        if ph == "B":
            stack.append([ev.get("name"), ev.get("cat"), 0])
        elif ph == "E":
            if not stack:
                fail(f"{where}: 'E' with no open span on tid {tid}")
            name, cat, held = stack.pop()
            if cat == "pass":
                how = ev.get("args", {}).get("resolved")
                if how not in PASS_DISPOSITIONS:
                    fail(f"{where}: pass span {name!r} resolved {how!r}, "
                         f"expected one of {sorted(PASS_DISPOSITIONS)}")
                kind = "verify" if name == "verify" else how
                publishes.setdefault(tid, {}).setdefault(kind, set()).add(held)
        elif ev.get("s") not in ("t", "p", "g"):
            fail(f"{where}: instant needs an explicit scope 's'")
        if ph == "i" and ev.get("name") == "cache-publish":
            passes = [f for f in stack if f[1] == "pass"]
            if not passes:
                fail(f"{where}: cache-publish instant outside a pass span")
            passes[-1][2] += 1
        if ph == "i" and ev.get("name") == "simd-dispatch":
            tier = ev.get("args", {}).get("tier")
            if tier not in SIMD_TIERS:
                fail(f"{where}: simd-dispatch instant has tier {tier!r}, "
                     f"expected one of {sorted(SIMD_TIERS)}")
            counts["simd"] += 1
        if ph == "i" and ev.get("name") == "store-publish":
            # A pass artifact reached the persistent disk store
            # (docs/SERVICE.md); the instant must identify the pass and
            # the serialized object size.
            args = ev.get("args", {})
            if not isinstance(args.get("pass"), str) or not args["pass"]:
                fail(f"{where}: store-publish instant has no 'pass' arg")
            if not isinstance(args.get("bytes"), int) or args["bytes"] < 1:
                fail(f"{where}: store-publish instant needs a positive "
                     f"'bytes' arg, got {args.get('bytes')!r}")
            counts["store"] += 1
        if ph == "B" and ev.get("name") == "request":
            # The sdspd request span lives on a per-request track.
            if not track_names.get(tid, "").startswith("request:"):
                fail(f"{where}: 'request' span on track "
                     f"{track_names.get(tid)!r} (expected a "
                     "'request:N' daemon track)")
            counts["request"] += 1

    if not process_named:
        fail(f"'{path}': no process_name metadata record")
    for tid, stack in open_spans.items():
        if stack:
            fail(f"'{path}': tid {tid} ends with unclosed span(s) "
                 f"{[f[0] for f in stack]} (B/E must balance)")
    if counts["B"] != counts["E"]:
        fail(f"'{path}': {counts['B']} 'B' events vs {counts['E']} 'E'")
    # Publishes are all-or-none per track: once in every computed pass
    # span but verify, or nowhere (cache off); hits never publish.
    for tid, held in publishes.items():
        if (held.get("computed", {0}) not in ({0}, {1})
                or held.get("hit", {0}) | held.get("verify", {0}) != {0}):
            fail(f"'{path}' track {track_names.get(tid)!r}: cache-publish "
                 f"instants per pass span, by resolution: {held}; expected "
                 "one in every computed span but verify or none in any, "
                 "and none in hit or verify spans")
    print(f"tracecheck: '{path}' ok — {len(named_tids)} track(s), "
          f"{counts['B']} span(s), {counts['i']} instant(s), "
          f"{counts['simd']} simd-dispatch, {counts['request']} "
          f"request span(s), {counts['store']} store-publish")


def load_counters(path):
    doc = load_json(path)
    if doc.get("schema") != "sdsp-metrics-v1":
        fail(f"'{path}': expected schema 'sdsp-metrics-v1', "
             f"got {doc.get('schema')!r}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"'{path}': missing 'counters' object")
    return counters


def check_metrics_diff(path_a, path_b):
    a, b = load_counters(path_a), load_counters(path_b)
    diffs = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va != vb:
            diffs.append(f"  {name}: {va} vs {vb}")
    if diffs:
        fail(f"counters differ between '{path_a}' and '{path_b}':\n"
             + "\n".join(diffs))
    print(f"tracecheck: {len(a)} counter(s) identical")


def check_faults(trace_path, metrics_path):
    doc = load_json(trace_path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"'{trace_path}': missing top-level 'traceEvents' array")

    injected = 0
    per_site = {}
    cancelled = 0
    for ev in doc["traceEvents"]:
        if not isinstance(ev, dict) or ev.get("ph") != "i":
            continue
        name = ev.get("name")
        if name == "fault-injected":
            injected += 1
            site = ev.get("args", {}).get("site")
            if not isinstance(site, str) or not site:
                fail(f"'{trace_path}': a fault-injected instant has no "
                     "'site' arg")
            per_site[site] = per_site.get(site, 0) + 1
        elif name == "cancelled":
            cancelled += 1

    mdoc = load_json(metrics_path)
    counters = load_counters(metrics_path)
    gauges = mdoc.get("gauges", {})

    total = counters.get("fault.injected", 0)
    if total != injected:
        fail(f"fault.injected counter is {total} but '{trace_path}' has "
             f"{injected} fault-injected instant(s)")
    for site, n in sorted(per_site.items()):
        key = "fault.injected." + site.replace(":", ".")
        if counters.get(key, 0) != n:
            fail(f"{key} counter is {counters.get(key, 0)} but "
                 f"'{trace_path}' has {n} firing(s) at {site}")
    site_sum = sum(v for k, v in counters.items()
                   if k.startswith("fault.injected."))
    if site_sum != total:
        fail(f"per-site fault.injected.* counters sum to {site_sum}, "
             f"expected {total}")
    observed = int(gauges.get("cancel.observed", 0))
    if observed != cancelled:
        fail(f"cancel.observed gauge is {observed} but '{trace_path}' "
             f"has {cancelled} cancelled instant(s)")
    print(f"tracecheck: faults ok — {injected} firing(s) over "
          f"{len(per_site)} site(s), {cancelled} cancellation(s)")


# How a "pass" span's closing record may say the run resolved.
PASS_DISPOSITIONS = {"computed", "hit", "failed", "cancelled"}
# The child spans of a computed import.
PNML_IMPORT_CHILDREN = ("pnml-parse", "pnml-classify")


def check_pnml(trace_path, metrics_path):
    check_trace(trace_path)
    doc = load_json(trace_path)

    # Pair import-pnml/export-pnml B/E spans per track and bucket the
    # closing records by their "resolved" disposition; count the
    # pnml-parse / pnml-classify spans each import holds.
    open_pnml = {}
    open_child = {}
    children = {}
    resolved = {"import-pnml": {}, "export-pnml": {}}
    parsed_bytes = 0
    for i, ev in enumerate(doc["traceEvents"]):
        name = ev.get("name")
        if name not in ("import-pnml", "export-pnml") + PNML_IMPORT_CHILDREN:
            continue
        where = f"'{trace_path}' event {i}"
        tid = ev.get("tid")
        if name in PNML_IMPORT_CHILDREN:
            if ev.get("ph") == "B":
                if open_pnml.get(tid) != "import-pnml" or open_child.get(tid):
                    fail(f"{where}: {name} span outside an import-pnml "
                         f"span (or nested in another) on tid {tid}")
                open_child[tid] = name
                counts = children[tid]
                counts[name] = counts.get(name, 0) + 1
            elif ev.get("ph") == "E":
                if open_child.get(tid) != name:
                    fail(f"{where}: 'E' for {name} without a matching 'B' "
                         f"on tid {tid}")
                open_child[tid] = None
                if name == "pnml-parse":
                    size = ev.get("args", {}).get("bytes")
                    if not isinstance(size, int) or size < 0:
                        fail(f"{where}: pnml-parse span carries bytes "
                             f"{size!r}, expected the document size")
                    parsed_bytes += size
            continue
        if ev.get("ph") == "B":
            if open_pnml.get(tid):
                fail(f"{where}: nested {name} span on tid {tid}")
            open_pnml[tid] = name
            children[tid] = {}
        elif ev.get("ph") == "E":
            if open_pnml.get(tid) != name:
                fail(f"{where}: 'E' for {name} without a matching 'B' "
                     f"on tid {tid}")
            if open_child.get(tid):
                fail(f"{where}: {name} closes inside its open "
                     f"{open_child[tid]} span on tid {tid}")
            open_pnml[tid] = None
            how = ev.get("args", {}).get("resolved")
            if how not in PASS_DISPOSITIONS:
                fail(f"{where}: {name} resolved {how!r}, expected one "
                     f"of {sorted(PASS_DISPOSITIONS)}")
            bucket = resolved[name]
            bucket[how] = bucket.get(how, 0) + 1
            if name == "import-pnml":
                held = [children[tid].get(c, 0) for c in PNML_IMPORT_CHILDREN]
                if how == "computed":
                    expect, ok = "one of each", held == [1, 1]
                elif how in ("failed", "cancelled"):
                    expect, ok = "at most one of each", max(held) <= 1
                else:
                    expect, ok = "none", held == [0, 0]
                if not ok:
                    fail(f"{where}: a {how} import-pnml span holds "
                         f"{held[0]} pnml-parse and {held[1]} "
                         f"pnml-classify span(s), expected {expect}")
    for tid, name in open_pnml.items():
        if name:
            fail(f"'{trace_path}': tid {tid} ends inside an open "
                 f"{name} span")

    imports = resolved["import-pnml"]
    exports = resolved["export-pnml"]
    if not imports:
        fail(f"'{trace_path}': no import-pnml spans at all")

    c = load_counters(metrics_path)
    computed_imports = imports.get("computed", 0)
    if c.get("pnml.imports", 0) != computed_imports:
        fail(f"pnml.imports is {c.get('pnml.imports', 0)} but the trace "
             f"has {computed_imports} computed import-pnml span(s)")
    computed_exports = exports.get("computed", 0)
    if c.get("pnml.exports", 0) != computed_exports:
        fail(f"pnml.exports is {c.get('pnml.exports', 0)} but the trace "
             f"has {computed_exports} computed export-pnml span(s)")
    if imports.get("failed", 0) < c.get("pnml.rejects", 0):
        fail(f"pnml.rejects is {c.get('pnml.rejects', 0)} but only "
             f"{imports.get('failed', 0)} import-pnml span(s) failed")
    if c.get("pnml.import.bytes", 0) != parsed_bytes:
        fail(f"pnml.import.bytes is {c.get('pnml.import.bytes', 0)} but "
             f"the pnml-parse spans read {parsed_bytes} byte(s)")
    # Structural counters: every computed import counts at least one
    # transition and two arcs (a net needs a transition, and arcs come
    # in producer/consumer pairs for anything cyclic); every computed
    # export writes bytes.
    if computed_imports and c.get("pnml.transitions", 0) < computed_imports:
        fail(f"pnml.transitions is {c.get('pnml.transitions', 0)} for "
             f"{computed_imports} computed import(s)")
    if computed_exports and c.get("pnml.export.bytes", 0) < computed_exports:
        fail(f"pnml.export.bytes is {c.get('pnml.export.bytes', 0)} for "
             f"{computed_exports} computed export(s)")
    print(f"tracecheck: pnml ok — imports {imports}, exports {exports}, "
          f"{parsed_bytes} byte(s) read")


def main(argv):
    if len(argv) >= 3 and argv[1] == "trace" and len(argv) == 3:
        check_trace(argv[2])
    elif len(argv) == 4 and argv[1] == "metrics-diff":
        check_metrics_diff(argv[2], argv[3])
    elif len(argv) == 4 and argv[1] == "faults":
        check_faults(argv[2], argv[3])
    elif len(argv) == 4 and argv[1] == "pnml":
        check_pnml(argv[2], argv[3])
    else:
        fail("usage: tracecheck.py trace FILE | "
             "tracecheck.py metrics-diff A B | "
             "tracecheck.py faults TRACE METRICS | "
             "tracecheck.py pnml TRACE METRICS")


if __name__ == "__main__":
    main(sys.argv)
