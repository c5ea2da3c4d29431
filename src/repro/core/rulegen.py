"""LTM rule generation: sub-traversal → cache entry (§4.2.3).

For a sub-traversal the generator computes:

* the matching wildcard ``ω_k`` — bitwise union of the per-table
  dependency wildcards ``W_i`` within the slice (fields rewritten by
  earlier actions inside the slice do not propagate);
* the match predicate ``M_k`` — the flow at slice entry masked by ``ω_k``;
* the actions ``α_k`` — the *commit*: set-field rewrites turning the entry
  flow into the exit flow, plus the terminal action for slices that end
  the traversal;
* the priority ``ρ_k`` — the slice length (LTM's selection criterion);
* the tags — ``τ_k`` is the slice's first vSwitch table, and the action
  implicitly advances the tag to the next expected table.

Each rule is also stamped, for revalidation, with the slice's table ids
and the generation its traversal was walked at — the walk's, never the
caller's ``generation``, which may be later.

All of these but the generation are the slice's
:meth:`~repro.pipeline.traversal.Traversal.slice_entry`, derived there
once per slice of a remembered traversal; each rule here is a fresh
:class:`~repro.core.ltm.LtmRule` around it, with its own generation,
time and id.
"""

from __future__ import annotations

from typing import Tuple

from ..pipeline.traversal import SubTraversal
from .ltm import TAG_DONE, LtmRule


def build_ltm_rule(
    sub: SubTraversal,
    generation: int = 0,
    now: float = 0.0,
) -> LtmRule:
    """Convert one sub-traversal into an LTM cache rule: a fresh rule
    around the slice's
    :meth:`~repro.pipeline.traversal.Traversal.slice_entry`."""
    traversal = sub.traversal
    match, actions, tag, priority, next_table, entry_flow, path = (
        traversal.slice_entry(sub.start, sub.stop)
    )
    rule = LtmRule(
        tag,
        match,
        priority,
        actions,
        TAG_DONE if next_table is None else next_table,
        entry_flow,
        generation,
        now,
    )
    rule.path = path
    rule.verified = traversal.generation
    return rule


def build_ltm_rules(
    partition: Tuple[SubTraversal, ...],
    generation: int = 0,
    now: float = 0.0,
) -> Tuple[LtmRule, ...]:
    """Convert an ordered partition into its ordered LTM rules."""
    return tuple([
        build_ltm_rule(sub, generation, now) for sub in partition
    ])
