#!/usr/bin/env python3
"""Writes a PNML ring net, for tests and measurements at scale.

  python3 tools/make_ring_pnml.py [--double] OUT STAGES [TOKENS]

The ring has STAGES transitions t0..t{n-1} and STAGES places; place qi
sits between ti and t{i+1}, and q{n-1} holds TOKENS tokens (default 0:
a dead ring, which classification reports and nothing fires).  No node
carries a name label, so the document holds 2 + 4 * STAGES elements,
below the reader's element bound up to 262,143 stages, while the
canonical export, which names every node, holds more.

--double adds a second ring over the same transitions: place ri sits
beside qi, and r{n-1} holds TOKENS tokens too.  With one token each,
both rings are safe, but the net is one strongly connected component
holding two tokens and no place has a reverse partner, so no witness
of the safety check covers it and its sweep must run.  The document
then holds 2 + 7 * STAGES elements.
"""

import sys


def main():
    args = sys.argv[1:]
    double = "--double" in args
    if double:
        args.remove("--double")
    if len(args) not in (2, 3):
        sys.exit(__doc__)
    out, stages = args[0], int(args[1])
    tokens = int(args[2]) if len(args) == 3 else 0
    if stages < 1 or tokens < 0:
        sys.exit("make_ring_pnml: STAGES must be >= 1 and TOKENS >= 0")
    rings = ("q", "r") if double else ("q",)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n<pnml>\n'
             '<net id="ring" '
             'type="http://www.pnml.org/version-2009/grammar/ptnet">\n']
    for ring in rings:
        for i in range(stages):
            if i == stages - 1 and tokens:
                parts.append('<place id="%s%d"><initialMarking><text>%d'
                             '</text></initialMarking></place>\n'
                             % (ring, i, tokens))
            else:
                parts.append('<place id="%s%d"/>\n' % (ring, i))
    for i in range(stages):
        parts.append('<transition id="t%d"/>\n' % i)
    for ring in rings:
        arc = "" if ring == "q" else ring
        for i in range(stages):
            parts.append('<arc id="%sa%d" source="t%d" target="%s%d"/>\n'
                         '<arc id="%sb%d" source="%s%d" target="t%d"/>\n'
                         % (arc, i, i, ring, i, arc, i, ring, i,
                            (i + 1) % stages))
    parts.append('</net>\n</pnml>\n')
    with open(out, "w") as f:
        f.write("".join(parts))


if __name__ == "__main__":
    main()
