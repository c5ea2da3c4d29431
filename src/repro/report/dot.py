"""Graphviz (DOT) export of Gigaflow cache contents.

Visualising the tag-chain DAG is the fastest way to understand what a
Gigaflow cache has learned: nodes are LTM rules grouped by table, edges
connect a rule to the rules (in later tables) whose tag it advances to,
and every root-to-terminal path is one covered flow class (the quantity
Table 2 counts).  A rule's ``served=`` count is the cache hits its chain
completed; a walk that dead-ends at it is not one.
"""

from __future__ import annotations

from typing import List

from ..core.gigaflow import GigaflowCache
from ..core.ltm import TAG_DONE, LtmRule


def _rule_label(rule: LtmRule) -> str:
    fields = ", ".join(rule.match.wildcard.fields_matched()) or "*"
    nxt = "DONE" if rule.next_tag == TAG_DONE else f"T{rule.next_tag}"
    return (
        f"tag T{rule.tag} → {nxt}\\nρ={rule.priority} [{fields}]\\n"
        f"installs={rule.install_count} served={rule.hit_count}"
    )


def gigaflow_to_dot(cache: GigaflowCache, name: str = "gigaflow") -> str:
    """Render the cache's rule-chain DAG as DOT source."""
    lines: List[str] = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        "  node [shape=box, fontsize=9];",
    ]
    # One cluster per LTM table, preserving pipeline order.
    for table in cache.tables:
        lines.append(f"  subgraph cluster_gf{table.index} {{")
        lines.append(
            f'    label="GF{table.index + 1} '
            f'({len(table)}/{table.capacity})";'
        )
        for rule in table:
            lines.append(
                f'    r{rule.rule_id} [label="{_rule_label(rule)}"];'
            )
        lines.append("  }")
    # Entry and terminal pseudo-nodes.
    lines.append('  entry [shape=circle, label="in"];')
    lines.append('  done [shape=doublecircle, label="out"];')
    # Edges: entry -> start-tag rules; rule -> continuations; rule -> done.
    for i, table in enumerate(cache.tables):
        for rule in table:
            if rule.tag == cache.start_tag:
                lines.append(f"  entry -> r{rule.rule_id};")
            if rule.next_tag == TAG_DONE:
                lines.append(f"  r{rule.rule_id} -> done;")
                continue
            for later in cache.tables[i + 1:]:
                for successor in later.rules_with_tag(rule.next_tag):
                    lines.append(
                        f"  r{rule.rule_id} -> r{successor.rule_id};"
                    )
    lines.append("}")
    return "\n".join(lines)


def dump_dot(cache: GigaflowCache, path: str,
             name: str = "gigaflow") -> None:
    """Write the DOT source to a file (render with ``dot -Tsvg``)."""
    with open(path, "w") as handle:
        handle.write(gigaflow_to_dot(cache, name))
