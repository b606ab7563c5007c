"""Tests for the classification reports and the explain CLI."""

import pytest

from repro.cli import main
from repro.core.report import explain
from repro.predicates import parse_predicate
from repro.predicates.catalog import (
    CAUSAL_B2,
    EXAMPLE_1,
    SECOND_BEFORE_FIRST,
    crown,
)


class TestExplain:
    def test_tagged_report_structure(self):
        text = explain(CAUSAL_B2)
        assert "# Classification of causal-B2" in text
        assert "## Predicate graph" in text
        assert "β = ['x']" in text
        assert "**tagged**" in text
        assert "X_co   ⊆ X_B: yes" in text
        assert "X_async ⊆ X_B: no" in text
        assert "GeneratedTaggedProtocol" in text

    def test_witness_is_marked(self):
        text = explain(EXAMPLE_1)
        assert "<- witness" in text

    def test_contraction_chain_shown(self):
        text = explain(crown(3))
        # Crowns are already canonical: no contraction section, general class.
        assert "**general**" in text
        assert "SyncCoordinatorProtocol" in text

    def test_grouped_general_containment_is_qualified(self):
        from repro.broadcast.orderings import TOTAL_ORDER_VIOLATION
        from repro.core.classifier import GROUPED_SYNC, classify

        lines = explain(TOTAL_ORDER_VIOLATION).splitlines()
        assert "X_sync ⊆ X_B: yes" + GROUPED_SYNC in lines
        assert "X_sync ⊆ X_B: yes" not in lines
        (note,) = classify(TOTAL_ORDER_VIOLATION).notes
        assert "X_sync ⊆ X_B" + GROUPED_SYNC in note
        assert "SequencerBroadcastProtocol" in "\n".join(lines)

    def test_ungrouped_general_containment_is_plain(self):
        text = explain(crown(3))
        assert "X_sync ⊆ X_B: yes\n" in text
        assert "broadcast" not in text

    def test_unimplementable_report(self):
        text = explain(SECOND_BEFORE_FIRST)
        assert "acyclic" in text
        assert "**not_implementable**" in text
        assert "X_sync ⊆ X_B: no" in text
        assert "## Implementation" not in text

    def test_unsatisfiable_report(self):
        text = explain(parse_predicate("x.s < y.s & y.s < x.s", name="unsat"))
        assert "**tagless**" in text
        assert "X_async ⊆ X_B: yes" in text

    def test_guard_unsat_report(self):
        from repro.predicates.ast import Conjunct, ForbiddenPredicate, send_of
        from repro.predicates.guards import ColorGuard

        predicate = ForbiddenPredicate.build(
            [Conjunct(send_of("x"), send_of("y"))],
            guards=[ColorGuard("x", "red"), ColorGuard("x", "blue")],
            name="conflicted",
        )
        text = explain(predicate)
        assert "unsatisfiable" in text

    def test_contraction_section_for_long_cycle(self):
        predicate = parse_predicate(
            "x.s < y.s & y.s < z.s & z.r < x.r", name="chain"
        )
        text = explain(predicate)
        assert "## Lemma 4 contraction" in text
        assert "canonical form" in text


class TestExplainCli:
    def test_explain_dsl(self, capsys):
        assert main(["explain", "x.s < y.s & y.r < x.r"]) == 0
        out = capsys.readouterr().out
        assert "Predicate graph" in out and "tagged" in out

    def test_explain_catalog_name(self, capsys):
        assert main(["explain", "mobile-handoff"]) == 0
        out = capsys.readouterr().out
        assert "general" in out and "control messages" in out

    def test_explain_family(self, capsys):
        assert main(["explain", "logically-synchronous"]) == 0
        out = capsys.readouterr().out
        # One report per family member up to the arity bound.
        assert out.count("# Classification of") >= 2
