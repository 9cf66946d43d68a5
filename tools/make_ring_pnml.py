#!/usr/bin/env python3
"""Writes a PNML ring net, for tests and measurements at scale.

  python3 tools/make_ring_pnml.py OUT STAGES [TOKENS]

The ring has STAGES transitions t0..t{n-1} and STAGES places; place qi
sits between ti and t{i+1}, and q{n-1} holds TOKENS tokens (default 0:
a dead ring, which classification reports and nothing fires).  No node
carries a name label, so the document holds 2 + 4 * STAGES elements,
below the reader's element bound up to 262,143 stages, while the
canonical export, which names every node, holds more.
"""

import sys


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    out, stages = sys.argv[1], int(sys.argv[2])
    tokens = int(sys.argv[3]) if len(sys.argv) == 4 else 0
    if stages < 1 or tokens < 0:
        sys.exit("make_ring_pnml: STAGES must be >= 1 and TOKENS >= 0")
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n<pnml>\n'
             '<net id="ring" '
             'type="http://www.pnml.org/version-2009/grammar/ptnet">\n']
    for i in range(stages):
        if i == stages - 1 and tokens:
            parts.append('<place id="q%d"><initialMarking><text>%d</text>'
                         '</initialMarking></place>\n' % (i, tokens))
        else:
            parts.append('<place id="q%d"/>\n' % i)
    for i in range(stages):
        parts.append('<transition id="t%d"/>\n' % i)
    for i in range(stages):
        parts.append('<arc id="a%d" source="t%d" target="q%d"/>\n'
                     '<arc id="b%d" source="q%d" target="t%d"/>\n'
                     % (i, i, i, i, i, (i + 1) % stages))
    parts.append('</net>\n</pnml>\n')
    with open(out, "w") as f:
        f.write("".join(parts))


if __name__ == "__main__":
    main()
