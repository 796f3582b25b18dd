"""DOT-format export of context hypergraphs.

Observables become circle nodes; each context is drawn as a clique, bold
("thick") for product -identity and thin for +identity.
"""

from __future__ import annotations

import itertools
import re

from .systems import ContextSystem

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*", re.ASCII)
_KEYWORDS = {"graph", "digraph", "subgraph", "node", "edge", "strict"}


def export_dot(sys: ContextSystem, name: str = "ks_system") -> str:
    """The DOT text; ``name`` must be a plain DOT identifier, not a keyword."""
    if not _IDENTIFIER.fullmatch(name) or name.lower() in _KEYWORDS:
        raise ValueError(f"graph name {name!r} is not a DOT identifier")
    if not sys.contexts:
        raise ValueError("no contexts to export")
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for i, ob in enumerate(sys.observables):
        lines.append(f'  o{i} [label="{ob}"];')
    for ci, ctx in enumerate(sys.contexts):
        style = "bold" if ctx.sign == -1 else "solid"
        for a, b in itertools.combinations(sorted(set(ctx.members)), 2):
            lines.append(
                f'  o{a} -- o{b} [style={style}, label="c{ci}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
