"""Query execution across range variables, stores and time (Sections 3–5).

The executor is the Python program the paper's code generator emits: it
"issues queries to one or more target databases ... primarily performing
query sequence management", performs processing not available in the target
databases, and ships partial results between backends for federated joins.

Execution outline:

1. typecheck, resolve each range variable to its store and time scope;
2. compile a match program per variable and order variables by anchor cost;
3. evaluate each variable — importing the anchor from an equality join when
   the variable's own anchor is too expensive (the ``Phys`` variable of the
   paper's physical-communication-path example);
4. nested-loop join with early predicate application, temporal semantics per
   §4 (joint validity under a query-level AT range, independent validities
   under per-variable timestamps);
5. apply [NOT] EXISTS subqueries per joined binding;
6. project (Retrieve pathways / Select expressions) and apply temporal
   aggregates (FIRST/LAST TIME WHEN EXISTS, WHEN EXISTS).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import (
    BackendUnavailable,
    FederationError,
    TemporalError,
    TypeCheckError,
)
from repro.model.elements import NodeRecord
from repro.model.pathway import Pathway
from repro.plan.cache import LruCache, PlanCache
from repro.plan.planner import Planner, PlannerOptions
from repro.plan.program import MatchProgram
from repro.plan.traverse import evaluate_from_endpoints
from repro.query.ast import (
    FIRST_TIME,
    LAST_TIME,
    RETRIEVE,
    WHEN_EXISTS,
    AggregateCall,
    ComparePredicate,
    ExistsPredicate,
    FunctionCall,
    Query,
    RangeVariable,
    TemporalSpec,
    VariableRef,
)
from repro.query.functions import compare_values, evaluate_expression
from repro.query.parser import parse_query
from repro.query.results import QueryResult, ResultRow
from repro.query.typecheck import CheckedQuery, typecheck_query
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.metrics import MetricsRegistry
from repro.stats.tracing import TraceContext, current_trace, maybe_span
from repro.storage.base import GraphStore, TimeScope
from repro.temporal.interval import FOREVER, Interval, IntervalSet
from repro.temporal.validity import pathway_validity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.concurrency import SnapshotView
    from repro.core.resilience import ResiliencePolicy
    from repro.plan.explain import ExplainAnalysis

DEFAULT_STORE = "default"

#: Sentinel for join keys whose hashing would not agree with the `=`
#: semantics of :func:`compare_values`; forces the nested-loop fallback.
_UNHASHABLE = object()


def _join_key(value: object) -> object:
    """A hash-table key matching ``compare_values(a, "=", b)`` equality.

    Nodes equate by uid (also against bare uid literals, which
    ``compare_values`` normalizes the same way); the built-in scalars hash
    consistently with ``==`` across their numeric kinds.  Anything else —
    edges, collections, foreign objects — answers :data:`_UNHASHABLE`.
    """
    if isinstance(value, NodeRecord):
        return value.uid
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return _UNHASHABLE


@dataclass
class _EvaluatedVariable:
    variable: RangeVariable
    store: GraphStore
    scope: TimeScope
    program: MatchProgram | None
    extra_matcher: "object | None" = None
    pathways: list[Pathway] | None = None
    validities: list[IntervalSet] | None = None
    failed: bool = False
    failure: str = ""
    #: The store evaluation reads flow through: the catalog store under
    #: the resilience guard, additionally pinned to a snapshot when the
    #: query executes under one.  Planning always uses the live ``store``.
    eval_store: GraphStore | None = None

    @property
    def name(self) -> str:
        """The range-variable name."""
        return self.variable.name


class QueryExecutor:
    """Executes NPQL queries over a catalog of named stores."""

    def __init__(
        self,
        stores: Mapping[str, GraphStore],
        default_store: str = DEFAULT_STORE,
        planner_options: PlannerOptions | None = None,
        plan_cache: PlanCache | None = None,
        metrics: MetricsRegistry | None = None,
        resilience: "ResiliencePolicy | None" = None,
        allow_partial: bool = False,
    ):
        if default_store not in stores:
            raise FederationError(
                f"default store {default_store!r} is not in the catalog "
                f"({sorted(stores)})"
            )
        self._stores = dict(stores)
        self._default = default_store
        self._planner_options = planner_options or PlannerOptions()
        self._estimators: dict[int, CardinalityEstimator] = {}
        self._views: dict[str, str] = {}
        self._views_version = 0
        self._resilience = resilience
        self._allow_partial = allow_partial
        self._guarded: dict[int, GraphStore] = {}
        # Concurrent queries share the executor; the wrapper/estimator
        # memos below are get-or-create dicts and need exclusion.
        self._memo_lock = threading.Lock()
        if metrics is None:
            metrics = plan_cache.metrics if plan_cache is not None else MetricsRegistry()
        self.metrics = metrics
        # Careful: an empty PlanCache is falsy (it has __len__), so test
        # against None rather than truthiness.
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(metrics=metrics)
        self._parse_cache = LruCache(256, self.metrics.counters("parse"))
        self._typecheck_cache = LruCache(256, self.metrics.counters("typecheck"))

    # ------------------------------------------------------------------

    def store_for(self, variable: RangeVariable) -> GraphStore:
        """Resolve a range variable's target store from the catalog."""
        name = variable.store or self._default
        try:
            return self._stores[name]
        except KeyError:
            raise FederationError(
                f"range variable {variable.name!r} targets unknown store {name!r}"
            ) from None

    def guarded(self, store: GraphStore) -> GraphStore:
        """*store* wrapped with the configured resilience policy (memoized).

        Without a policy the raw store is returned.  Wrapping is one layer
        per store, so the circuit breaker state inside the wrapper persists
        across queries — a backend that tripped its breaker stays tripped
        until the reset window elapses, whichever query touches it next.
        """
        if self._resilience is None:
            return store
        with self._memo_lock:
            wrapper = self._guarded.get(id(store))
            if wrapper is None:
                from repro.core.resilience import ResilientStore

                wrapper = ResilientStore(
                    store,
                    self._resilience,
                    metrics=self.metrics,
                    label=self._store_label(store),
                )
                self._guarded[id(store)] = wrapper
            return wrapper

    def evaluation_store(
        self, store: GraphStore, snapshot: "SnapshotView | None" = None
    ) -> GraphStore:
        """The store evaluation reads should flow through.

        Without a snapshot this is exactly :meth:`guarded`.  Under a
        snapshot, the pin wraps *around* the memoized resilience guard:
        the pinned wrapper evaluates pathways by generic traversal, so
        every individual read it issues must pass through the guard to be
        retried on transient faults (guarding outside the pin would make
        the whole traversal one retry unit and multiply the effective
        fault rate by its read count).  Reusing the memoized guard keeps
        circuit-breaker state per-backend, not per-snapshot.
        """
        guarded = self.guarded(store)
        if snapshot is None:
            return guarded
        pin = snapshot.pin_for(store)
        if pin is None:
            # Store doesn't support snapshots (e.g. relational): read live.
            return guarded
        from repro.core.concurrency import SnapshotStore

        return SnapshotStore(
            guarded,
            pin.as_of,
            pin.data_version,
            deadline_at=snapshot.arm_deadline(),
            monotonic=snapshot.monotonic,
        )

    def _store_label(self, store: GraphStore) -> str:
        """The catalog name of *store* (for metrics), or its display name."""
        for name, candidate in sorted(self._stores.items()):
            if candidate is store:
                return name
        return store.name

    def estimator_for(self, store: GraphStore) -> CardinalityEstimator:
        """The (memoized) cardinality estimator for *store*.

        Keyed on store identity, not display name: two attached stores may
        legitimately share a name, and their statistics must not mix.
        Estimators sample counts through the resilience guard, so planning
        against a flaky backend retries rather than erroring out.
        """
        guarded = self.guarded(store)
        with self._memo_lock:
            estimator = self._estimators.get(id(store))
            if estimator is None:
                estimator = CardinalityEstimator(guarded)
                self._estimators[id(store)] = estimator
            return estimator

    def define_view(self, name: str, rpe_text: str) -> None:
        """Register a named pathway view (§3.4's non-PATHS sources).

        The RPE text is validated lazily, against the schema of whichever
        store a query's variable targets.  (Re)defining a view changes what
        typechecking produces, so cached checked queries are retired.
        """
        self._views[name.upper()] = rpe_text
        self._views_version += 1

    def view_rpe(self, name: str) -> str | None:
        """The defining RPE text of a view, or None when undefined."""
        return self._views.get(name.upper())

    def invalidate_statistics(self) -> None:
        """Drop cached cardinalities (call after bulk loads).

        Bumping every estimator's epoch retires this executor's cached
        plans lazily: their keys embed the old epoch, so the next lookup
        misses and replans.  Estimators also self-refresh against their
        store's ``data_version``, which covers writes that bypass this
        executor entirely.
        """
        for estimator in self._estimators.values():
            estimator.invalidate()

    # ------------------------------------------------------------------
    # parse & typecheck memoization
    # ------------------------------------------------------------------

    def _parse(self, text: str) -> Query:
        """Parse query text, memoized (the AST is immutable and shareable)."""
        trace = current_trace()
        cached = self._parse_cache.get(text)
        if cached is None:
            with maybe_span(trace, "parse", kind="stage") as span:
                with self.metrics.timings.measure("parse"):
                    cached = parse_query(text)
                span.set("source", "fresh")
            self._parse_cache.put(text, cached)
        else:
            with maybe_span(trace, "parse", kind="stage") as span:
                span.set("source", "memo")
        return cached

    def _catalog_state(self) -> tuple:
        """What typechecking depends on besides the query text itself:
        each store's schema (by identity and version) and the view set."""
        return (
            tuple(
                (name, id(store.schema), store.schema.version)
                for name, store in sorted(self._stores.items())
            ),
            self._views_version,
        )

    def _checked(self, query: Query | str) -> CheckedQuery:
        """Typecheck *query*, memoized on (normalized text, catalog state)."""
        if isinstance(query, str):
            query = self._parse(query)
        trace = current_trace()
        key = (query.render(), self._catalog_state())
        cached = self._typecheck_cache.get(key)
        if cached is None:
            with maybe_span(trace, "typecheck", kind="stage") as span:
                with self.metrics.timings.measure("typecheck"):
                    cached = typecheck_query(
                        query,
                        lambda var: self.store_for(var).schema,
                        view_rpe=self.view_rpe,
                    )
                span.set("source", "fresh")
            self._typecheck_cache.put(key, cached)
        else:
            with maybe_span(trace, "typecheck", kind="stage") as span:
                span.set("source", "memo")
        return cached

    # ------------------------------------------------------------------

    def execute(
        self,
        query: Query | str,
        snapshot: "SnapshotView | None" = None,
        trace: TraceContext | None = None,
    ) -> QueryResult:
        """Parse (if text), typecheck, plan, evaluate and project *query*.

        Every stage ahead of evaluation is served from caches when the
        same query template was seen before: parse and typecheck memoize
        on the query text, compiled per-variable programs come from the
        plan cache (``metrics.timings`` separates ``plan`` time from the
        enclosing ``execute`` total).

        With *snapshot*, evaluation reads are pinned to the view's
        (as-of, data-version) pair while planning still runs against the
        live catalog stores — plan-cache keys embed live store identity,
        so snapshot queries share cached plans with live queries.

        With *trace* (a fresh, unused :class:`TraceContext`), every stage
        records a span: the returned result is byte-identical to an
        untraced run, but the context afterwards carries the full span
        tree (see :mod:`repro.stats.tracing`).
        """
        if trace is None:
            return self._execute(query, snapshot)
        with trace.activate():
            with trace.span("query", kind="query") as root:
                result = self._execute(query, snapshot)
                root.set(
                    "query", query if isinstance(query, str) else query.render()
                )
                root.set("rows_out", len(result.rows))
                if result.warnings:
                    root.set("warnings", len(result.warnings))
        return result

    def _execute(
        self, query: Query | str, snapshot: "SnapshotView | None" = None
    ) -> QueryResult:
        checked = self._checked(query)
        trace = current_trace()
        with self.metrics.timings.measure("execute"):
            cache: dict = {}
            bindings = self._solve(
                checked, outer_bindings={}, cache=cache, snapshot=snapshot
            )
            dropped = [
                item
                for prepared in cache.values()
                for item in prepared
                if item.failed
            ]
            with maybe_span(trace, "project", kind="operator") as span:
                result = self._project(
                    checked, bindings, failed_names={item.name for item in dropped}
                )
                span.count("rows_in", len(bindings))
                span.count("rows_out", len(result.rows))
            if dropped:
                result.warnings = result.warnings + tuple(
                    f"variable {item.name!r} dropped: {item.failure}"
                    for item in dropped
                )
            return result

    def translate(self, query: Query | str) -> str:
        """Generate the Python program for *query* (§3.1's code generation).

        The returned source defines ``run(stores)``; executing it against
        the same stores reproduces :meth:`execute`'s rows for the covered
        query subset (see :mod:`repro.plan.codegen`).
        """
        from repro.plan.codegen import translate_query

        if isinstance(query, str):
            query = self._parse(query)
        checked = self._checked(query)
        store_names = {
            variable.name: variable.store or self._default
            for variable in query.variables
        }
        return translate_query(checked, store_names)

    def _plan_sections(self, query: Query) -> "list[tuple[RangeVariable, _EvaluatedVariable]]":
        """(variable, planned-but-not-evaluated) pairs for *query*."""
        checked = self._checked(query)
        return [
            (variable, self._prepare_variable(checked, variable))
            for variable in query.variables
        ]

    def explain(self, query: Query | str) -> str:
        """Render the per-variable plans without executing."""
        from repro.plan.explain import explain_program

        if isinstance(query, str):
            query = self._parse(query)
        sections = []
        for variable, evaluated in self._plan_sections(query):
            sections.append(
                f"variable {variable.name} on store "
                f"{evaluated.store.name} ({evaluated.scope}):\n"
                + explain_program(evaluated.program)
            )
        return "\n\n".join(sections)

    def explain_analyze(
        self,
        query: Query | str,
        snapshot: "SnapshotView | None" = None,
        trace: TraceContext | None = None,
    ) -> "ExplainAnalysis":
        """Execute *query* under tracing and pair plans with actuals.

        The result carries the estimated-vs-actual cardinality comparison
        the paper's operators only promise implicitly: each variable's
        compiled plan (with the planner's estimate) next to the rows its
        evaluation really produced, plus join strategies, cache outcomes
        and per-stage timings from the trace.
        """
        from repro.plan.explain import ExplainAnalysis

        if isinstance(query, str):
            query = self._parse(query)
        if trace is None:
            trace = TraceContext(label=query.render())
        result = self.execute(query, snapshot=snapshot, trace=trace)
        sections = [
            (
                variable.name,
                evaluated.store.name,
                str(evaluated.scope),
                evaluated.program,
            )
            for variable, evaluated in self._plan_sections(query)
        ]
        return ExplainAnalysis(
            query_text=query.render(),
            sections=sections,
            trace=trace,
            result=result,
        )

    # ------------------------------------------------------------------
    # variable evaluation
    # ------------------------------------------------------------------

    def _scope_for(self, query: Query, variable: RangeVariable) -> TimeScope:
        spec = variable.at or query.at
        return _scope_from_spec(spec)

    def _prepare_variable(
        self,
        checked: CheckedQuery,
        variable: RangeVariable,
        snapshot: "SnapshotView | None" = None,
    ) -> _EvaluatedVariable:
        store = self.store_for(variable)
        scope = self._scope_for(checked.query, variable)
        estimator = self.estimator_for(store)
        rpe = checked.bound_matches[variable.name]
        # The rendered RPE text was interned at typecheck time: reusing the
        # same str object means CPython's cached string hash makes every
        # warm key construction a lookup, not a re-hash of the source.
        rpe_text = checked.rendered_matches.get(variable.name)
        if rpe_text is None:
            rpe_text = rpe.render()
        with self.metrics.timings.measure("cache.key"):
            key = PlanCache.key_for(
                rpe_text,
                variable.store or self._default,
                store,
                estimator,
                self._planner_options,
                scope=scope,
            )
        compiled_fresh = False

        def _compile() -> MatchProgram:
            nonlocal compiled_fresh
            compiled_fresh = True
            return Planner(
                store.schema,
                estimator,
                self._planner_options,
                nfa_memo=self.plan_cache.nfa_memo,
            ).compile(rpe, bound=True, scope=scope)

        with maybe_span(current_trace(), "plan", kind="stage") as span:
            with self.metrics.timings.measure("plan"):
                program = self.plan_cache.get_or_compile(key, _compile)
            span.set("variable", variable.name)
            span.set("store", variable.store or self._default)
            span.set("cache", "miss" if compiled_fresh else "hit")
            span.set("estimated_rows", program.anchor_cost)
        extra_matcher = None
        extra = checked.extra_matches.get(variable.name)
        if extra is not None:
            from repro.rpe.match import compile_matcher

            extra_matcher = compile_matcher(extra)
        return _EvaluatedVariable(
            variable,
            store,
            scope,
            program,
            extra_matcher=extra_matcher,
            eval_store=self.evaluation_store(store, snapshot),
        )

    def _prepared_variables(
        self,
        checked: CheckedQuery,
        cache: dict,
        snapshot: "SnapshotView | None" = None,
    ) -> list[_EvaluatedVariable]:
        """Plan and evaluate every range variable of *checked*, cached.

        Variable evaluation never depends on outer bindings (anchor imports
        draw on sibling variables only), so a correlated subquery evaluates
        its MATCHES predicates once and re-joins per outer binding — the
        "query sequence management" a generated program performs.
        """
        key = id(checked)
        prepared = cache.get(key)
        if prepared is not None:
            return prepared
        query = checked.query
        prepared = []
        for variable in query.variables:
            try:
                prepared.append(
                    self._prepare_variable(checked, variable, snapshot=snapshot)
                )
            except BackendUnavailable as error:
                prepared.append(self._degraded_variable(variable, error))
        live = [item for item in prepared if not item.failed]
        # Cheap anchors first; expensive ones may import anchors from joins.
        live.sort(key=lambda item: item.program.anchor_cost)
        compare_predicates = [
            p for p in query.predicates if isinstance(p, ComparePredicate)
        ]
        evaluated_names: set[str] = set()
        for item in live:
            try:
                self._evaluate_variable(item, live, compare_predicates, evaluated_names)
            except BackendUnavailable as error:
                self._mark_failed(item, error)
            evaluated_names.add(item.name)
        prepared = live + [item for item in prepared if item.failed]
        cache[key] = prepared
        return prepared

    def _degraded_variable(
        self, variable: RangeVariable, error: BackendUnavailable
    ) -> _EvaluatedVariable:
        """Handle a backend lost before planning: degrade or raise."""
        store_name = variable.store or self._default
        if not self._allow_partial:
            raise FederationError(
                f"range variable {variable.name!r} lost backend {store_name!r}: {error}",
                variable=variable.name,
                store=store_name,
            ) from error
        self.metrics.event(f"resilience.degraded.{store_name}")
        return _EvaluatedVariable(
            variable,
            self._stores[store_name],
            TimeScope.current(),
            program=None,
            pathways=[],
            failed=True,
            failure=f"backend {store_name!r} unavailable: {error}",
        )

    def _mark_failed(
        self, item: _EvaluatedVariable, error: BackendUnavailable
    ) -> None:
        """Handle a backend lost during evaluation: degrade or raise."""
        store_name = item.variable.store or self._default
        if not self._allow_partial:
            raise FederationError(
                f"range variable {item.name!r} lost backend {store_name!r}: {error}",
                variable=item.name,
                store=store_name,
            ) from error
        self.metrics.event(f"resilience.degraded.{store_name}")
        item.failed = True
        item.failure = f"backend {store_name!r} unavailable: {error}"
        item.pathways = []

    def _solve(
        self,
        checked: CheckedQuery,
        outer_bindings: Mapping[str, Pathway],
        cache: dict,
        snapshot: "SnapshotView | None" = None,
    ) -> list[dict[str, Pathway]]:
        """Evaluate and join every range variable; returns joined bindings.

        Joint time-range validity is attached afterwards by the projector;
        here each binding dict may also carry per-pathway validity through
        the Pathway objects themselves.
        """
        query = checked.query
        prepared = self._prepared_variables(checked, cache, snapshot=snapshot)

        compare_predicates = [
            p for p in query.predicates if isinstance(p, ComparePredicate)
        ]
        exists_predicates = [
            (index, p)
            for index, p in enumerate(query.predicates)
            if isinstance(p, ExistsPredicate)
        ]

        partial: list[dict[str, Pathway]] = [dict(outer_bindings)]
        applied: set[int] = set()
        bound_names: set[str] = set(outer_bindings)

        for item in prepared:
            if item.failed:
                # Dropped variable (allow_partial): it joins nothing and
                # predicates over it are skipped below.
                continue
            assert item.pathways is not None
            bound_names.add(item.name)
            ready = [
                (index, predicate)
                for index, predicate in enumerate(compare_predicates)
                if index not in applied and predicate.variables() <= bound_names
            ]
            applied.update(index for index, _ in ready)
            partial = self._join(item, partial, ready)
            if not partial:
                break

        # Comparisons referencing only outer variables (fully correlated).
        # A predicate naming a dropped variable is unknowable; under
        # allow_partial it passes through rather than silently filtering.
        for index, predicate in enumerate(compare_predicates):
            if index in applied:
                continue
            needed = predicate.variables()
            partial = [
                b for b in partial
                if not needed <= set(b) or self._compare(predicate, b)
            ]

        for index, predicate in exists_predicates:
            sub_checked = checked.subqueries[index]
            with maybe_span(current_trace(), "exists_filter", kind="operator") as span:
                span.set("negated", predicate.negated)
                span.set("rows_in", len(partial))
                partial = [
                    binding
                    for binding in partial
                    if self._exists(sub_checked, predicate, binding, cache, snapshot)
                ]
                span.set("rows_out", len(partial))
        return partial

    # ------------------------------------------------------------------
    # joining
    # ------------------------------------------------------------------

    def _join(
        self,
        item: _EvaluatedVariable,
        partial: list[dict[str, Pathway]],
        ready: list[tuple[int, ComparePredicate]],
    ) -> list[dict[str, Pathway]]:
        """Join *item*'s pathways onto the partial bindings.

        When one of the newly-ready predicates is an equality whose sides
        split cleanly across the join — one side over *item* only, the
        other over already-bound variables — the already-bound side is
        hashed and probed once per pathway instead of once per (binding,
        pathway) pair.  Keys that cannot be hashed consistently with
        :func:`compare_values` fall back to the nested loop; either way the
        output is byte-identical to the nested loop, including order.
        """
        assert item.pathways is not None
        with maybe_span(current_trace(), "join", kind="operator") as span:
            rows_in = len(partial) * len(item.pathways)
            joined: list[dict[str, Pathway]] | None = None
            if rows_in:
                equi = self._equi_join_predicate(item, ready)
                if equi is not None:
                    joined = self._hash_join(item, partial, ready, equi)
            if joined is None:
                self.metrics.event("executor.join.nested_loop")
                strategy = "nested_loop"
                joined = []
                for binding in partial:
                    for pathway in item.pathways:
                        candidate = dict(binding)
                        candidate[item.name] = pathway
                        if all(
                            self._compare(predicate, candidate)
                            for _, predicate in ready
                        ):
                            joined.append(candidate)
            else:
                self.metrics.event("executor.join.hash")
                strategy = "hash"
            self.metrics.event("executor.join.rows_in", rows_in)
            self.metrics.event("executor.join.rows_out", len(joined))
            span.set("variable", item.name)
            span.set("strategy", strategy)
            span.set("predicates", len(ready))
            span.set("rows_in", rows_in)
            span.set("rows_out", len(joined))
        return joined

    def _equi_join_predicate(
        self,
        item: _EvaluatedVariable,
        ready: list[tuple[int, ComparePredicate]],
    ) -> tuple[object, object] | None:
        """A ``probe = build`` split of one ready equality, if any exists.

        Returns ``(probe_expr, build_expr)`` where the probe expression
        ranges over *item* alone (``source(V)``, ``id(V)``, ``V.field``)
        and the build expression over already-bound variables only.
        """
        for _, predicate in ready:
            if predicate.op != "=":
                continue
            left_vars = predicate.left.variables()
            right_vars = predicate.right.variables()
            if left_vars == {item.name} and right_vars and item.name not in right_vars:
                return predicate.left, predicate.right
            if right_vars == {item.name} and left_vars and item.name not in left_vars:
                return predicate.right, predicate.left
        return None

    def _hash_join(
        self,
        item: _EvaluatedVariable,
        partial: list[dict[str, Pathway]],
        ready: list[tuple[int, ComparePredicate]],
        equi: tuple[object, object],
    ) -> list[dict[str, Pathway]] | None:
        """Hash the bound side of *equi*, probe with *item*'s pathways.

        Returns None (caller falls back to the nested loop) as soon as any
        join key is outside the types whose hashing agrees with
        ``compare_values`` equality.  Probed candidates re-verify **all**
        ready predicates — the hash table only prunes, never decides — and
        matches are re-sorted into nested-loop order (binding position
        first, pathway index second).
        """
        probe_expr, build_expr = equi
        assert item.pathways is not None
        table: dict[object, list[tuple[int, dict[str, Pathway]]]] = {}
        for position, binding in enumerate(partial):
            key = _join_key(evaluate_expression(build_expr, binding))
            if key is _UNHASHABLE:
                return None
            table.setdefault(key, []).append((position, binding))
        matches: list[tuple[int, int, dict[str, Pathway]]] = []
        for pathway_index, pathway in enumerate(item.pathways):
            key = _join_key(evaluate_expression(probe_expr, {item.name: pathway}))
            if key is _UNHASHABLE:
                return None
            for position, binding in table.get(key, ()):
                candidate = dict(binding)
                candidate[item.name] = pathway
                if all(
                    self._compare(predicate, candidate)
                    for _, predicate in ready
                ):
                    matches.append((position, pathway_index, candidate))
        matches.sort(key=lambda entry: (entry[0], entry[1]))
        return [candidate for _, _, candidate in matches]

    def _evaluate_variable(
        self,
        item: _EvaluatedVariable,
        prepared: list[_EvaluatedVariable],
        compare_predicates: list[ComparePredicate],
        bound_names: set[str],
    ) -> None:
        store = item.eval_store if item.eval_store is not None else self.guarded(item.store)
        with maybe_span(current_trace(), "evaluate", kind="operator") as span:
            span.set("variable", item.name)
            span.set("store", item.store.name)
            span.set("scope", str(item.scope))
            # Read the ablation switch from the raw catalog store: wrappers
            # without attribute fallthrough would hide it, and backends
            # without a batch engine report "row".
            span.set(
                "execution",
                "batch" if getattr(item.store, "batch_enabled", False) else "row",
            )
            imported = None
            if item.program.anchor_cost > self._planner_options.import_threshold:
                imported = self._imported_anchor(
                    item, prepared, compare_predicates, bound_names
                )
            if imported is not None:
                end, uids = imported
                span.set("anchor", f"imported:{end}")
                span.count("anchor_seeds", len(uids))
                pathways = evaluate_from_endpoints(
                    store, item.program, item.scope, uids, end
                )
            else:
                span.set("anchor", "scan")
                pathways = store.find_pathways(item.program, item.scope)
            if item.extra_matcher is not None:
                from repro.rpe.match import matches_pathway

                pathways = [
                    p for p in pathways if matches_pathway(item.extra_matcher, p)
                ]
            if item.scope.is_range:
                window = IntervalSet([item.scope.window()])
                kept: list[Pathway] = []
                for pathway in pathways:
                    validity = pathway_validity(store, pathway, item.program.matcher)
                    # The window decides qualification; the attached range stays
                    # maximal over the whole timeline (§4's 06:30 example).
                    if not validity.intersect(window).is_empty():
                        kept.append(pathway.with_validity(validity))
                pathways = kept
            span.set("estimated_rows", item.program.anchor_cost)
            span.set("rows_out", len(pathways))
            if span:
                # How much the batch reads had to route around the sealed CSR
                # base (stores without a batch engine have no overlay).
                overlay = getattr(item.store, "csr_overlay", lambda: None)()
                if overlay is not None:
                    span.set("csr_delta_elements", overlay[0])
                    span.set("csr_delta_adjacency_nodes", overlay[1])
        item.pathways = pathways

    def _imported_anchor(
        self,
        item: _EvaluatedVariable,
        prepared: list[_EvaluatedVariable],
        compare_predicates: list[ComparePredicate],
        bound_names: set[str],
    ) -> tuple[str, list[int]] | None:
        """Find ``source(V)=target(U)``-style joins providing anchor seeds."""
        evaluated = {
            p.name: p for p in prepared if p.pathways is not None and not p.failed
        }
        for predicate in compare_predicates:
            if predicate.op != "=":
                continue
            sides = (predicate.left, predicate.right)
            if not all(isinstance(side, FunctionCall) for side in sides):
                continue
            left, right = sides  # type: ignore[assignment]
            pair = None
            if left.variable == item.name and right.variable in evaluated:
                pair = (left, right)
            elif right.variable == item.name and left.variable in evaluated:
                pair = (right, left)
            if pair is None:
                continue
            mine, theirs = pair
            if mine.function not in ("source", "target"):
                continue
            if theirs.function not in ("source", "target"):
                continue
            other = evaluated[theirs.variable]
            assert other.pathways is not None
            uids = sorted(
                {
                    (pathway.source if theirs.function == "source" else pathway.target).uid
                    for pathway in other.pathways
                }
            )
            return mine.function, uids
        return None

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------

    def _compare(self, predicate: ComparePredicate, bindings: Mapping[str, Pathway]) -> bool:
        left = evaluate_expression(predicate.left, bindings)
        right = evaluate_expression(predicate.right, bindings)
        return compare_values(left, predicate.op, right)

    def _exists(
        self,
        sub_checked: CheckedQuery,
        predicate: ExistsPredicate,
        outer_bindings: Mapping[str, Pathway],
        cache: dict,
        snapshot: "SnapshotView | None" = None,
    ) -> bool:
        rows = self._solve(sub_checked, outer_bindings, cache, snapshot=snapshot)
        found = bool(rows)
        return (not found) if predicate.negated else found

    # ------------------------------------------------------------------
    # projection & temporal post-processing
    # ------------------------------------------------------------------

    def _project(
        self,
        checked: CheckedQuery,
        bindings: list[dict[str, Pathway]],
        failed_names: "set[str] | frozenset[str]" = frozenset(),
    ) -> QueryResult:
        query = checked.query
        declared = query.declared_variables()
        query_range = query.at is not None and query.at.is_range

        rows: list[ResultRow] = []
        for binding in bindings:
            own_binding = {
                name: pathway for name, pathway in binding.items() if name in declared
            }
            validity: IntervalSet | None = None
            variable_validity: dict[str, IntervalSet] | None = None
            if query_range:
                assert query.at is not None and query.at.end is not None
                window = IntervalSet.of(query.at.start, query.at.end)
                joint = IntervalSet.always()
                for variable in query.variables:
                    if variable.at is not None:
                        continue
                    bound = own_binding.get(variable.name)
                    if bound is None:  # dropped under allow_partial
                        continue
                    pathway_val = bound.validity
                    if pathway_val is not None:
                        joint = joint.intersect(pathway_val)
                validity = joint
                # Under a joint AT all pathways must coexist at some instant
                # inside the window; the reported range stays maximal.
                if validity.intersect(window).is_empty():
                    continue
            per_var = {
                variable.name: own_binding[variable.name].validity
                for variable in query.variables
                if variable.at is not None
                and variable.at.is_range
                and variable.name in own_binding
                and own_binding[variable.name].validity is not None
            }
            if per_var:
                variable_validity = per_var  # type: ignore[assignment]
            if any(isinstance(p, AggregateCall) for p in query.projections):
                # Inner expressions are evaluated per row; the aggregation
                # itself happens after all rows are collected.
                values = tuple(
                    None
                    if isinstance(p, AggregateCall) and isinstance(p.argument, VariableRef)
                    else _maybe_evaluate(
                        p.argument if isinstance(p, AggregateCall) else p, binding
                    )
                    for p in query.projections
                )
            else:
                values = tuple(
                    _maybe_evaluate(projection, binding)
                    for projection in query.projections
                )
            rows.append(
                ResultRow(
                    values=values,
                    bindings=own_binding,
                    validity=validity,
                    variable_validity=variable_validity,
                )
            )

        rows = _dedup_rows(rows, query)
        columns = tuple(projection.render() for projection in query.projections)

        if query.temporal_op is not None:
            return _apply_temporal_aggregate(query, rows, columns)
        if any(isinstance(p, AggregateCall) for p in query.projections):
            return _apply_set_aggregates(query, rows, columns)
        rows = _order_and_limit(query, rows)
        return QueryResult(columns, rows)


def _maybe_evaluate(expression, bindings: Mapping[str, Pathway]):
    """Evaluate *expression*, or None when it names an unbound variable.

    A variable can be unbound only for degraded executions
    (``allow_partial=True``) where a backend was dropped; everywhere else
    this is exactly ``evaluate_expression``.
    """
    if not expression.variables() <= set(bindings):
        return None
    return evaluate_expression(expression, bindings)


def _order_value(value):
    """A total-order key over heterogeneous result values."""
    from repro.model.elements import ElementRecord

    if value is None:
        return (0, 0)
    if isinstance(value, ElementRecord):
        return (1, value.uid)
    if isinstance(value, bool):
        return (2, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


def _order_and_limit(query: Query, rows: list[ResultRow]) -> list[ResultRow]:
    """Apply ``Order By`` keys (stable, per direction) and ``Limit``."""
    if query.order_by:
        for key in reversed(query.order_by):
            rows = sorted(
                rows,
                key=lambda row: _order_value(
                    _maybe_evaluate(key.expression, row.bindings)
                ),
                reverse=key.descending,
            )
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def _apply_set_aggregates(
    query: Query, rows: list[ResultRow], columns: tuple[str, ...]
) -> QueryResult:
    """Collapse the result set into one aggregate row (§8 future work)."""
    import statistics

    values = []
    for index, projection in enumerate(query.projections):
        assert isinstance(projection, AggregateCall)
        if projection.function == "count":
            values.append(len(rows))
            continue
        samples = [
            row.values[index] for row in rows if row.values[index] is not None
        ]
        if not samples:
            values.append(None)
        elif projection.function == "min":
            values.append(min(samples))
        elif projection.function == "max":
            values.append(max(samples))
        elif projection.function == "sum":
            values.append(sum(samples))
        else:  # avg
            values.append(statistics.mean(samples))
    return QueryResult(columns, [ResultRow(values=tuple(values))])


def _dedup_rows(rows: list[ResultRow], query: Query) -> list[ResultRow]:
    """Retrieve results are pathway sets — drop duplicate bindings."""
    if query.mode != RETRIEVE:
        return rows
    seen: set[tuple] = set()
    deduped: list[ResultRow] = []
    for row in rows:
        key = tuple(
            (name, row.bindings[name].key()) for name in sorted(row.bindings)
        )
        if key not in seen:
            seen.add(key)
            deduped.append(row)
    return deduped


def _scope_from_spec(spec: TemporalSpec | None) -> TimeScope:
    if spec is None:
        return TimeScope.current()
    if spec.is_range:
        assert spec.end is not None
        return TimeScope.between(spec.start, spec.end)
    return TimeScope.at(spec.start)


def _apply_temporal_aggregate(
    query: Query, rows: list[ResultRow], columns: tuple[str, ...]
) -> QueryResult:
    """FIRST/LAST TIME WHEN EXISTS and WHEN EXISTS (§4 / [18])."""
    if query.at is None or not query.at.is_range:
        raise TemporalError(
            "temporal aggregates require a query-level AT '<t1>' : '<t2>' range"
        )
    union = IntervalSet.empty()
    for row in rows:
        if row.validity is not None:
            union = union.union(row.validity)
    # Aggregates ask about instants *during* the window.
    assert query.at.end is not None
    union = union.clip(Interval(query.at.start, query.at.end))
    if query.temporal_op == WHEN_EXISTS:
        value_rows = [
            ResultRow(values=((interval.start, None if interval.is_current else interval.end),))
            for interval in union
        ]
        return QueryResult(("when_exists",), value_rows)
    if query.temporal_op == FIRST_TIME:
        instant = union.first_instant()
    elif query.temporal_op == LAST_TIME:
        last = union.last_instant()
        instant = None if last is None else (None if last == FOREVER else last)
        if last == FOREVER:
            # Still satisfied at the end of the window: report the window end.
            instant = query.at.end
    else:  # pragma: no cover - parser restricts the values
        raise TypeCheckError(f"unknown temporal aggregate {query.temporal_op!r}")
    column = "first_time" if query.temporal_op == FIRST_TIME else "last_time"
    if instant is None:
        return QueryResult((column,), [])
    return QueryResult((column,), [ResultRow(values=(instant,))])
