"""Human-readable classification reports.

``explain(predicate)`` walks the §4 pipeline and renders every
intermediate object -- the predicate graph, each cycle with its β
analysis, the Lemma 4 contraction of the witness, the limit-set
containments the verdict implies, and the protocol recommendation -- as
markdown-ish text.  The CLI exposes it as ``python -m repro explain``.
``format_table`` renders the monospace tables of ``repro compare`` and of
the experiment benchmarks.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.classifier import (
    GROUPED_SYNC,
    Classification,
    ProtocolClass,
    classify,
)
from repro.graphs.predicate_graph import PredicateGraph
from repro.graphs.reduction import cycle_to_predicate
from repro.predicates.ast import ForbiddenPredicate

_CLASS_EXPLANATIONS = {
    ProtocolClass.TAGLESS: (
        "X_async ⊆ X_B: the forbidden pattern can never occur, so the "
        "do-nothing protocol (release on invoke, deliver on receive) "
        "already implements the specification."
    ),
    ProtocolClass.TAGGED: (
        "X_co ⊆ X_B but X_async ⊄ X_B: piggybacking information on user "
        "messages is necessary and sufficient; no control messages are "
        "needed (Theorem 3.2 / 4.3)."
    ),
    ProtocolClass.GENERAL: (
        "X_sync ⊆ X_B but X_co ⊄ X_B: no amount of tagging can implement "
        "this specification; protocols must exchange control messages "
        "(Theorems 3.3 / 4.2)."
    ),
    ProtocolClass.NOT_IMPLEMENTABLE: (
        "X_sync ⊄ X_B: some logically synchronous run violates the "
        "specification, and by Corollary 1 no inhibitory protocol of any "
        "class can exclude it."
    ),
}

_PROTOCOL_SUGGESTIONS = {
    ProtocolClass.TAGLESS: "repro.protocols.TaglessProtocol",
    ProtocolClass.TAGGED: (
        "repro.protocols.GeneratedTaggedProtocol([predicate]) -- or a "
        "hand-written special case (FifoProtocol, CausalRstProtocol, "
        "FlushChannelProtocol, KWeakerCausalProtocol)"
    ),
    ProtocolClass.GENERAL: (
        "repro.protocols.SyncCoordinatorProtocol or "
        "SyncRendezvousProtocol (their run set X_sync is contained in "
        "every implementable specification)"
    ),
}


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table with per-column widths, newline-terminated."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)]
    widths = [max(len(cell) for cell in column) for column in columns]

    def format_row(cells):
        return "  ".join(
            str(cell).ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = [format_row(headers), format_row(["-" * width for width in widths])]
    lines.extend(format_row(row) for row in rows)
    return "\n".join(lines) + "\n"


def explain(predicate: ForbiddenPredicate) -> str:
    """The full §4 walkthrough for one predicate, as text."""
    verdict = classify(predicate)
    graph = PredicateGraph(predicate)
    lines: List[str] = []

    lines.append("# Classification of %s" % (predicate.name or "the predicate"))
    lines.append("")
    lines.append("predicate: %r" % (predicate,))
    lines.append("")

    lines.append("## Predicate graph")
    lines.append("vertices: %s" % ", ".join(graph.vertices))
    for vertex in graph.vertices:
        copies = [v for v in predicate.variables if graph.vertex_of[v] == vertex]
        if len(copies) > 1:
            lines.append("  %s: broadcast copies %s" % (vertex, ", ".join(copies)))
    for edge in graph.edges:
        lines.append("  edge %r  (conjunct %d)" % (edge, edge.index + 1))
    lines.append("")

    if not verdict.guards_ok:
        lines.append("## Guards")
        lines.append(
            "the guards are unsatisfiable: no message tuple is ever "
            "constrained, so X_B = X_async."
        )
        lines.append("")

    if verdict.cycles:
        lines.append("## Cycles and β vertices")
        for report in verdict.cycles:
            marker = "  <- witness" if report is verdict.witness else ""
            cross = report.cross_site
            cross_site = " (cross-site at %s)" % list(cross) if cross else ""
            lines.append(
                "- %r: β = %s%s, order %d%s"
                % (
                    report.cycle,
                    list(report.betas) or "none",
                    cross_site,
                    report.order,
                    marker,
                )
            )
        lines.append("")
    else:
        lines.append("## Cycles")
        lines.append("the predicate graph is acyclic.")
        lines.append("")

    if verdict.reduction is not None and verdict.reduction.steps:
        lines.append("## Lemma 4 contraction of the witness cycle")
        for step in verdict.reduction.steps:
            lines.append("  %r" % (step,))
        lines.append(
            "canonical form: %r" % cycle_to_predicate(verdict.reduction.reduced)
        )
        lines.append("")

    # Synchrony orders a grouped predicate's broadcasts only when each
    # counts as one message.
    grouped_general = (
        verdict.protocol_class is ProtocolClass.GENERAL and graph.grouped
    )
    lines.append("## Verdict")
    lines.append("class: **%s**" % verdict.protocol_class.value)
    lines.append(_CLASS_EXPLANATIONS[verdict.protocol_class])
    for note in verdict.notes:
        lines.append("note: %s" % note)
    lines.append("")

    suggestion = _PROTOCOL_SUGGESTIONS.get(verdict.protocol_class)
    if grouped_general:
        suggestion = (
            "repro.broadcast.SequencerBroadcastProtocol (synchrony over "
            "unicast copies does not totally order broadcasts)"
        )
    if suggestion:
        lines.append("## Implementation")
        lines.append("use: %s" % suggestion)
        lines.append("")

    lines.append("## Limit-set containments implied")
    strength = verdict.protocol_class.strength
    lines.append(
        "X_sync ⊆ X_B: %s%s"
        % (
            "yes" if strength <= ProtocolClass.GENERAL.strength else "no",
            GROUPED_SYNC if grouped_general else "",
        )
    )
    lines.append(
        "X_co   ⊆ X_B: %s"
        % ("yes" if strength <= ProtocolClass.TAGGED.strength else "no")
    )
    lines.append(
        "X_async ⊆ X_B: %s"
        % ("yes" if strength <= ProtocolClass.TAGLESS.strength else "no")
    )
    return "\n".join(lines)
