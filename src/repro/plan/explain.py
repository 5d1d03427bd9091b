"""Human-readable plan explanation, plain and ANALYZE-d.

:func:`explain_program` renders the compiled program the way the paper
narrates its plans: the chosen anchor with its estimated cardinality, then
the forwards/backwards Extend/Union operator lists derived from the affix
automata, e.g. for ``VNF(id=55)->[Connects(){1,5}]->VM(id=66)``:

    Compute VM(id=55)|Docker(id=66)
    Extend forwards by ...
    Extend backwards by ...

:class:`ExplainAnalysis` is the ``EXPLAIN ANALYZE`` counterpart: the same
plan rendering, interleaved with what one traced execution *actually did*
— rows produced per operator next to the planner's estimate, plan-cache
and memo outcomes, join strategies and per-operator wall-clock.  Rendering
with ``mask_timings=True`` replaces every volatile timing with ``?`` so
the output is byte-stable for golden-file tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.plan.operators import fuse_extend_blocks, lower_affix
from repro.plan.program import MatchProgram
from repro.util.text import indent_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.results import QueryResult
    from repro.stats.tracing import TraceContext, TraceSpan


def explain_program(program: MatchProgram, fuse_blocks: bool = True) -> str:
    """Render the operator DAG of a compiled match program."""
    lines: list[str] = [f"MATCHES {program.rpe.render()}"]
    lines.append(
        f"anchor plan ({len(program.splits)} split"
        f"{'s' if len(program.splits) != 1 else ''}, "
        f"estimated cardinality {program.anchor_cost:g})"
    )
    for index, compiled in enumerate(program.splits):
        lines.append(f"split {index}: Select[{compiled.split.anchor.render()}]")
        for direction, nfa, affix in (
            ("forwards", compiled.forward_nfa, compiled.split.suffix),
            ("backwards", compiled.backward_nfa, compiled.split.prefix),
        ):
            rendered = affix.render() if affix is not None else "ε"
            operators = lower_affix(nfa)
            if fuse_blocks:
                operators = fuse_extend_blocks(operators)
            body = "\n".join(op.render() for op in operators) or "(nothing to do)"
            lines.append(f"  extend {direction} by {rendered}:")
            lines.append(indent_block(body, "    "))
    lines.append(f"pathway length limit: {program.max_elements} elements")
    return "\n".join(lines)


#: Trace counters worth surfacing per operator in the ANALYZE rendering
#: (storage/index decisions and resilience events; prefix-matched).
_INTERESTING_COUNTERS = (
    "index.temporal.",
    "index.field",
    "index.class",
    "index.expand.",
    "executor.batch.",
    "resilience.",
)


@dataclass
class ExplainAnalysis:
    """One traced execution paired with its compiled per-variable plans.

    ``sections`` holds ``(variable name, store name, scope, program)``
    tuples in declaration order; ``trace`` the span tree the execution
    recorded; ``result`` the rows it returned (identical to an untraced
    run).  :meth:`actual_rows` and :meth:`estimated_rows` expose the
    cardinality pair the differential tests compare.
    """

    query_text: str
    sections: list[tuple[str, str, str, MatchProgram]]
    trace: "TraceContext"
    result: "QueryResult"

    def _variable_span(self, name: str, variable: str) -> "TraceSpan | None":
        root = self.trace.root
        return None if root is None else root.find(name, variable=variable)

    def actual_rows(self, variable: str) -> int | None:
        """Pathways the traced evaluation produced for *variable*."""
        span = self._variable_span("evaluate", variable)
        return None if span is None else span.attrs.get("rows_out")

    def estimated_rows(self, variable: str) -> float | None:
        """The planner's anchor-cardinality estimate for *variable*."""
        for name, _store, _scope, program in self.sections:
            if name == variable:
                return program.anchor_cost
        return None

    @property
    def root_rows(self) -> int | None:
        """``rows_out`` recorded on the root span (== len(result.rows))."""
        root = self.trace.root
        return None if root is None else root.attrs.get("rows_out")

    def render(self, mask_timings: bool = False) -> str:
        """The combined EXPLAIN ANALYZE report.

        Stable keys and orderings throughout; timings (and the trace id)
        are the only volatile parts and ``mask_timings`` hides them.
        """

        def ms(span: "TraceSpan | None") -> str:
            if span is None:
                return "?"
            return "?" if mask_timings else f"{span.elapsed * 1000:.3f}"

        lines = [f"EXPLAIN ANALYZE {self.query_text}"]
        root = self.trace.root
        for name, store_name, scope, program in self.sections:
            lines.append("")
            lines.append(f"variable {name} on store {store_name} ({scope}):")
            lines.append(explain_program(program))
            plan_span = self._variable_span("plan", name)
            if plan_span is not None:
                lines.append(
                    f"  plan: cache {plan_span.attrs.get('cache', '?')} "
                    f"[{ms(plan_span)} ms]"
                )
            evaluate_span = self._variable_span("evaluate", name)
            if evaluate_span is not None:
                attrs = evaluate_span.attrs
                estimated = attrs.get("estimated_rows", program.anchor_cost)
                execution = f"{attrs.get('execution', 'row')} execution"
                if "csr_delta_elements" in attrs:
                    execution += (
                        f", overlay {attrs['csr_delta_elements']} elements"
                        f" / {attrs['csr_delta_adjacency_nodes']} adjacency nodes"
                    )
                counters: Counter[str] = Counter()
                for span in evaluate_span.walk():  # anchor scans count on a child
                    counters.update(span.counters)
                lines.append(
                    f"  actual: {attrs.get('rows_out', '?')} pathways "
                    f"(estimated {estimated:g}) via anchor "
                    f"{attrs.get('anchor', '?')} "
                    f"({execution}) [{ms(evaluate_span)} ms]"
                )
                for key in sorted(counters):
                    if key.startswith(_INTERESTING_COUNTERS):
                        lines.append(f"    {key}: {counters[key]}")
            join_span = self._variable_span("join", name)
            if join_span is not None:
                attrs = join_span.attrs
                lines.append(
                    f"  join: {attrs.get('strategy', '?')}, "
                    f"rows in {attrs.get('rows_in', '?')} -> "
                    f"out {attrs.get('rows_out', '?')} "
                    f"({attrs.get('predicates', 0)} predicates) "
                    f"[{ms(join_span)} ms]"
                )
        lines.append("")
        if root is not None:
            for stage in ("parse", "typecheck"):
                span = root.find(stage)
                if span is not None:
                    lines.append(
                        f"{stage}: {span.attrs.get('source', '?')} [{ms(span)} ms]"
                    )
            for span in root.find_all("exists_filter"):
                lines.append(
                    f"exists filter{' (negated)' if span.attrs.get('negated') else ''}: "
                    f"rows in {span.attrs.get('rows_in', '?')} -> "
                    f"out {span.attrs.get('rows_out', '?')} [{ms(span)} ms]"
                )
            project = root.find("project")
            if project is not None:
                lines.append(
                    f"project: {project.counters.get('rows_in', 0)} bindings -> "
                    f"{project.counters.get('rows_out', 0)} rows [{ms(project)} ms]"
                )
            lines.append(
                f"result: {root.attrs.get('rows_out', '?')} rows [{ms(root)} ms total]"
            )
        return "\n".join(lines)
