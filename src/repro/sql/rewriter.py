"""Query canonicalisation: rewrite queries into CTE normal form.

GenEdit's pre-processing "first rewrite[s] the queries to use CTEs (WITH
clause with subqueries)" before decomposing them (§3.2.1). This module does
that rewrite:

* every derived table ``(SELECT ...) alias`` in a FROM clause is hoisted
  into a top-level CTE named after its alias;
* nested WITH clauses (CTEs defined inside subqueries or other CTEs) are
  flattened to the top level, renamed on collision;
* the result is a single top-level WITH list, dependency-ordered, whose body
  contains no derived tables.

Scalar/IN/EXISTS subqueries in expressions are left in place — they are
part of expression logic, not relational shape, and the decomposer treats
them as sub-statements.
"""

from __future__ import annotations

from . import ast_nodes as ast


def to_cte_form(query):
    """Return a new :class:`Query` in CTE normal form (input not mutated)."""
    rewriter = _CteRewriter()
    return rewriter.rewrite(ast.clone_tree(query))


class _CteRewriter:
    def __init__(self):
        self._ctes = []
        self._used_names = set()

    def rewrite(self, query):
        # Hoist existing top-level CTEs first so their names are reserved
        # before any generated ones.
        for cte in query.ctes:
            self._hoist_cte(cte, rename_map={})
        body = self._rewrite_body(query.body, rename_map={})
        return ast.Query(body=body, ctes=self._ctes)

    # -- name management -----------------------------------------------------

    def _unique_name(self, base):
        candidate = base.upper()
        suffix = 1
        while candidate in self._used_names:
            suffix += 1
            candidate = f"{base.upper()}_{suffix}"
        self._used_names.add(candidate)
        return candidate

    def _hoist_cte(self, cte, rename_map):
        inner_map = dict(rename_map)
        for nested in cte.query.ctes:
            self._hoist_cte(nested, inner_map)
            # _hoist_cte records the (possibly renamed) final name.
            inner_map[nested.name.upper()] = self._last_hoisted_name
        body = self._rewrite_body(cte.query.body, inner_map)
        final_name = self._unique_name(cte.name)
        rename_map[cte.name.upper()] = final_name
        self._ctes.append(
            ast.CommonTableExpression(
                name=final_name,
                query=ast.Query(body=body, ctes=[]),
                columns=list(cte.columns),
            )
        )
        self._last_hoisted_name = final_name

    # -- body rewriting --------------------------------------------------------

    def _rewrite_body(self, body, rename_map):
        if isinstance(body, ast.SetOperation):
            body.left = self._rewrite_body(body.left, rename_map)
            body.right = self._rewrite_body(body.right, rename_map)
            return body
        return self._rewrite_select(body, rename_map)

    def _rewrite_select(self, select, rename_map):
        if select.from_clause is not None:
            select.from_clause = self._rewrite_from(
                select.from_clause, rename_map
            )
        for node in _expression_roots(select):
            self._rewrite_expression_subqueries(node, rename_map)
        return select

    def _rewrite_from(self, node, rename_map):
        if isinstance(node, ast.TableRef):
            renamed = rename_map.get(node.name.upper())
            if renamed:
                alias = node.alias or node.name
                return ast.TableRef(name=renamed, alias=alias)
            return node
        if isinstance(node, ast.SubqueryRef):
            return self._hoist_derived(node, rename_map)
        if isinstance(node, ast.Join):
            node.left = self._rewrite_from(node.left, rename_map)
            node.right = self._rewrite_from(node.right, rename_map)
            if node.condition is not None:
                self._rewrite_expression_subqueries(node.condition, rename_map)
            return node
        return node

    def _hoist_derived(self, subquery_ref, rename_map):
        inner_map = dict(rename_map)
        for nested in subquery_ref.query.ctes:
            self._hoist_cte(nested, inner_map)
            inner_map[nested.name.upper()] = self._last_hoisted_name
        body = self._rewrite_body(subquery_ref.query.body, inner_map)
        name = self._unique_name(subquery_ref.alias or "DERIVED")
        self._ctes.append(
            ast.CommonTableExpression(
                name=name, query=ast.Query(body=body, ctes=[])
            )
        )
        return ast.TableRef(name=name, alias=subquery_ref.alias)

    def _rewrite_expression_subqueries(self, expr, rename_map):
        """Rename CTE references inside expression-level subqueries."""
        for node in expr.walk():
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
                query = node.query
                inner_map = dict(rename_map)
                for nested in list(query.ctes):
                    self._hoist_cte(nested, inner_map)
                    inner_map[nested.name.upper()] = self._last_hoisted_name
                query.ctes = []
                query.body = self._rewrite_body(query.body, inner_map)


def _expression_roots(select):
    """Every expression attached directly to a SELECT block."""
    roots = [item.expr for item in select.items]
    if select.where is not None:
        roots.append(select.where)
    roots.extend(select.group_by)
    if select.having is not None:
        roots.append(select.having)
    roots.extend(item.expr for item in select.order_by)
    return roots


# ---------------------------------------------------------------------------
# Execution-time logical rewrite: constant folding + predicate pushdown
# ---------------------------------------------------------------------------
#
# ``optimize_for_execution`` is the executor's pre-execution pass. It returns
# a NEW tree (parse-cache ASTs are shared across executors and must never be
# mutated) that is behaviour-identical to the input for every query the
# engine can run — including which rows can raise. Two rewrites:
#
# * constant folding: literal-only subtrees in WHERE/HAVING/join conditions
#   collapse to a Literal. Only deterministic, environment-free node types
#   participate, and a subtree whose evaluation raises is left unfolded.
#   Select items are never folded (output names come from ``to_sql`` of the
#   expression) and neither are GROUP BY/ORDER BY entries (integer literals
#   there are ordinals).
#
# * predicate pushdown: WHERE conjuncts that provably (a) touch exactly one
#   base-table binding, (b) can never raise, and (c) sit in a prefix of the
#   AND chain whose earlier conjuncts also never raise, are moved into a
#   derived-table wrapper around that base table. Join-kind rules keep
#   null-extension semantics intact: a conjunct only descends the left arm
#   of LEFT joins, the right arm of RIGHT joins, either arm of INNER/CROSS,
#   and never crosses a FULL join.

#: Node types that participate in constant folding — all deterministic and
#: environment-free. FunctionCall is deliberately excluded so clock-like
#: scalar functions can never be frozen at rewrite time.
_FOLDABLE = (
    ast.Literal, ast.UnaryOp, ast.BinaryOp, ast.Cast, ast.Between,
    ast.InList, ast.IsNull, ast.Like,
)

_SAFE_COMPARISONS = frozenset(("=", "<>", "<", ">", "<=", ">="))


def optimize_for_execution(query, database):
    """Rewrite ``query`` for faster execution against ``database``.

    The result is memoized on the query node keyed by database identity and
    version — parse-cache sharing means the same AST serves generation,
    self-correction, and the EX metric, so the rewrite is paid once per
    (query, catalog state).
    """
    cached = getattr(query, "_optimized_plan", None)
    if (
        cached is not None
        and cached[0] == database.name
        and cached[1] == database.version
    ):
        return cached[2]
    from time import perf_counter

    from ..engine.stats import add_time

    started = perf_counter()
    cte_names = _collect_cte_names(query)
    optimized = _Optimizer(database, cte_names).rewrite_query(query)
    add_time("rewrite_s", perf_counter() - started)
    try:
        query._optimized_plan = (database.name, database.version, optimized)
    except AttributeError:  # pragma: no cover - nodes are plain objects
        pass
    return optimized


def _collect_cte_names(query):
    """Upper-case names of every CTE anywhere in the tree.

    A TableRef whose name matches any CTE may resolve to that CTE at
    execution time (scopes chain), so the optimizer refuses to treat it as
    the catalog table of the same name.
    """
    names = set()
    for node in query.walk():
        if isinstance(node, ast.CommonTableExpression):
            names.add(node.name.upper())
    return names


class _Optimizer:
    def __init__(self, database, cte_names):
        self.database = database
        self.cte_names = cte_names

    # -- tree rebuilding -----------------------------------------------------

    def rewrite_query(self, query):
        ctes = [
            ast.CommonTableExpression(
                name=cte.name,
                query=self.rewrite_query(cte.query),
                columns=list(cte.columns),
            )
            for cte in query.ctes
        ]
        return ast.Query(body=self.rewrite_body(query.body), ctes=ctes)

    def rewrite_body(self, body):
        if isinstance(body, ast.SetOperation):
            return ast.SetOperation(
                op=body.op,
                left=self.rewrite_body(body.left),
                right=self.rewrite_body(body.right),
                all=body.all,
                order_by=body.order_by,
                limit=body.limit,
            )
        return self.rewrite_select(body)

    def rewrite_select(self, select):
        from_clause = self._rewrite_from_subqueries(select.from_clause)
        where = _fold(select.where)
        having = _fold(select.having)
        if where is not None and isinstance(from_clause, ast.Join):
            from_clause, where = self._push_predicates(from_clause, where)
        if (
            from_clause is select.from_clause
            and where is select.where
            and having is select.having
        ):
            return select
        return ast.Select(
            items=select.items,
            from_clause=from_clause,
            where=where,
            group_by=select.group_by,
            having=having,
            order_by=select.order_by,
            limit=select.limit,
            offset=select.offset,
            distinct=select.distinct,
        )

    def _rewrite_from_subqueries(self, node):
        if node is None or isinstance(node, ast.TableRef):
            return node
        if isinstance(node, ast.SubqueryRef):
            return ast.SubqueryRef(
                query=self.rewrite_query(node.query), alias=node.alias
            )
        if isinstance(node, ast.Join):
            left = self._rewrite_from_subqueries(node.left)
            right = self._rewrite_from_subqueries(node.right)
            condition = _fold(node.condition)
            if (
                left is node.left and right is node.right
                and condition is node.condition
            ):
                return node
            return ast.Join(
                left=left, right=right, kind=node.kind, condition=condition
            )
        return node

    # -- predicate pushdown --------------------------------------------------

    def _push_predicates(self, from_clause, where):
        tables, all_known = self._catalog_bindings(from_clause)
        if not tables:
            return from_clause, where
        conjuncts = _and_chain(where)
        remaining = []
        prefix_safe = True
        changed = False
        for conjunct in conjuncts:
            binding = None
            safe = _safe_single_binding(conjunct, tables, all_known)
            if safe is not None and prefix_safe:
                binding = safe
            if binding is not None:
                pushed = self._push_into(from_clause, binding, conjunct)
                if pushed is not None:
                    from_clause = pushed
                    changed = True
                    continue
            remaining.append(conjunct)
            if safe is None:
                # A conjunct we cannot prove non-raising: anything after it
                # must stay put, or rows it would raise on could vanish.
                prefix_safe = False
        if not changed:
            return from_clause, where
        where = _fold_and(remaining)
        return from_clause, where

    def _catalog_bindings(self, node, tables=None, known=None):
        """Map binding -> Table for real catalog tables in the FROM tree.

        Returns ``(tables, all_known)`` where ``all_known`` is False when any
        binding is a CTE, derived table, or unknown — in that case
        unqualified column references cannot be resolved safely.
        """
        if tables is None:
            tables = {}
            known = [True]
        if isinstance(node, ast.TableRef):
            name = node.name.upper()
            if name in self.cte_names:
                known[0] = False
            else:
                try:
                    table = self.database.table(node.name)
                except Exception:
                    known[0] = False
                else:
                    tables[node.binding_name.upper()] = table
        elif isinstance(node, ast.Join):
            self._catalog_bindings(node.left, tables, known)
            self._catalog_bindings(node.right, tables, known)
        else:
            known[0] = False
        return tables, known[0]

    def _push_into(self, node, binding, conjunct):
        """Wrap the TableRef bound as ``binding`` with a filter, or None."""
        if isinstance(node, ast.TableRef):
            if node.binding_name.upper() != binding:
                return None
            if node.name.upper() in self.cte_names:
                return None
            inner = ast.Select(
                items=[ast.SelectItem(expr=ast.Star())],
                from_clause=ast.TableRef(name=node.name, alias=node.alias),
                where=conjunct,
            )
            return ast.SubqueryRef(
                query=ast.Query(body=inner), alias=node.binding_name
            )
        if isinstance(node, ast.SubqueryRef):
            return None
        if isinstance(node, ast.Join):
            kind = node.kind
            if kind == "FULL":
                return None
            if kind in ("INNER", "CROSS", "LEFT"):
                pushed = self._push_into(node.left, binding, conjunct)
                if pushed is not None:
                    return ast.Join(
                        left=pushed, right=node.right,
                        kind=kind, condition=node.condition,
                    )
            if kind in ("INNER", "CROSS", "RIGHT"):
                pushed = self._push_into(node.right, binding, conjunct)
                if pushed is not None:
                    return ast.Join(
                        left=node.left, right=pushed,
                        kind=kind, condition=node.condition,
                    )
        return None


def _and_chain(expr):
    """Flatten an AND tree into its conjuncts, in evaluation order."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _and_chain(expr.left) + _and_chain(expr.right)
    return [expr]


def _fold_and(conjuncts):
    """Left-associatively rebuild an AND chain (None when empty)."""
    if not conjuncts:
        return None
    folded = conjuncts[0]
    for conjunct in conjuncts[1:]:
        folded = ast.BinaryOp(op="AND", left=folded, right=conjunct)
    return folded


def _safe_single_binding(conjunct, tables, all_known):
    """The single catalog binding a provably-non-raising conjunct touches.

    Returns the upper-case binding name, or None when the conjunct is not
    one of the safe shapes, resolves ambiguously, touches an unknown
    relation, or could raise at evaluation time (DATE-column comparisons
    against non-date literals, LIKE on non-text columns).
    """
    shape = _safe_shape(conjunct)
    if shape is None:
        return None
    ref, literals, kind = shape
    resolved = _resolve_ref(ref, tables, all_known)
    if resolved is None:
        return None
    binding, column = resolved
    if kind == "like":
        if column.type != "TEXT":
            return None
        if not all(
            value is None or isinstance(value, str) for value in literals
        ):
            return None
    elif kind == "compare":
        if column.type == "DATE":
            for value in literals:
                if value is None:
                    continue
                if not isinstance(value, str) or _parses_as_date(value) is None:
                    return None
    return binding


def _safe_shape(conjunct):
    """Decompose a conjunct into (column ref, literal values, kind)."""
    if isinstance(conjunct, ast.BinaryOp):
        if conjunct.op not in _SAFE_COMPARISONS:
            return None
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            return left, [right.value], "compare"
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            return right, [left.value], "compare"
        return None
    if isinstance(conjunct, ast.IsNull):
        if isinstance(conjunct.expr, ast.ColumnRef):
            return conjunct.expr, [], "is_null"
        return None
    if isinstance(conjunct, ast.InList):
        if not isinstance(conjunct.expr, ast.ColumnRef):
            return None
        if not all(isinstance(item, ast.Literal) for item in conjunct.items):
            return None
        return (
            conjunct.expr,
            [item.value for item in conjunct.items],
            "compare",
        )
    if isinstance(conjunct, ast.Between):
        if not isinstance(conjunct.expr, ast.ColumnRef):
            return None
        if not (
            isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)
        ):
            return None
        return (
            conjunct.expr,
            [conjunct.low.value, conjunct.high.value],
            "compare",
        )
    if isinstance(conjunct, ast.Like):
        if not isinstance(conjunct.expr, ast.ColumnRef):
            return None
        if not isinstance(conjunct.pattern, ast.Literal):
            return None
        return conjunct.expr, [conjunct.pattern.value], "like"
    return None


def _resolve_ref(ref, tables, all_known):
    """Resolve a ColumnRef to ``(binding, Column)`` against catalog tables."""
    name = ref.name.upper()
    if ref.table is not None:
        binding = ref.table.upper()
        table = tables.get(binding)
        if table is None or not table.has_column(name):
            return None
        return binding, table.column(name)
    if not all_known:
        return None
    matches = [
        (binding, table) for binding, table in tables.items()
        if table.has_column(name)
    ]
    if len(matches) != 1:
        return None
    binding, table = matches[0]
    return binding, table.column(name)


def _parses_as_date(text):
    import datetime

    try:
        return datetime.date.fromisoformat(text[:10])
    except ValueError:
        return None


def _fold(expr):
    """Collapse literal-only subtrees of ``expr`` (None passes through)."""
    if expr is None:
        return None
    folded, _is_const = _fold_node(expr)
    return folded


def _fold_node(node):
    """Return ``(possibly-folded node, is_literal_constant)``."""
    if isinstance(node, ast.Literal):
        return node, True
    if not isinstance(node, _FOLDABLE):
        rebuilt = _rebuild_with_folded_children(node)
        return rebuilt, False
    rebuilt, all_const = _fold_children(node)
    if not all_const:
        return rebuilt, False
    value = _try_evaluate_constant(rebuilt)
    if value is _FOLD_FAILED:
        return rebuilt, False
    return ast.Literal(value=value), True


_FOLD_FAILED = object()


def _try_evaluate_constant(node):
    from ..engine.errors import ExecutionError
    from ..engine.evaluator import Environment, Evaluator

    try:
        return Evaluator(None).evaluate(node, Environment({}))
    except ExecutionError:
        return _FOLD_FAILED


def _fold_children(node):
    """Fold each foldable child; returns (rebuilt, every-child-constant)."""
    if isinstance(node, ast.UnaryOp):
        operand, const = _fold_node(node.operand)
        if operand is node.operand:
            return node, const
        return ast.UnaryOp(op=node.op, operand=operand), const
    if isinstance(node, ast.BinaryOp):
        left, left_const = _fold_node(node.left)
        right, right_const = _fold_node(node.right)
        if left is node.left and right is node.right:
            return node, left_const and right_const
        return (
            ast.BinaryOp(op=node.op, left=left, right=right),
            left_const and right_const,
        )
    if isinstance(node, ast.Cast):
        expr, const = _fold_node(node.expr)
        if expr is node.expr:
            return node, const
        return ast.Cast(expr=expr, target_type=node.target_type), const
    if isinstance(node, ast.Between):
        expr, c1 = _fold_node(node.expr)
        low, c2 = _fold_node(node.low)
        high, c3 = _fold_node(node.high)
        if expr is node.expr and low is node.low and high is node.high:
            return node, c1 and c2 and c3
        return (
            ast.Between(
                expr=expr, low=low, high=high, negated=node.negated
            ),
            c1 and c2 and c3,
        )
    if isinstance(node, ast.InList):
        expr, const = _fold_node(node.expr)
        items = []
        changed = expr is not node.expr
        for item in node.items:
            folded, item_const = _fold_node(item)
            const = const and item_const
            changed = changed or folded is not item
            items.append(folded)
        if not changed:
            return node, const
        return (
            ast.InList(expr=expr, items=items, negated=node.negated),
            const,
        )
    if isinstance(node, ast.IsNull):
        expr, const = _fold_node(node.expr)
        if expr is node.expr:
            return node, const
        return ast.IsNull(expr=expr, negated=node.negated), const
    if isinstance(node, ast.Like):
        expr, c1 = _fold_node(node.expr)
        pattern, c2 = _fold_node(node.pattern)
        if expr is node.expr and pattern is node.pattern:
            return node, c1 and c2
        return (
            ast.Like(expr=expr, pattern=pattern, negated=node.negated),
            c1 and c2,
        )
    return node, False


def _rebuild_with_folded_children(node):
    """Fold inside non-foldable containers (AND/OR handled by BinaryOp)."""
    if isinstance(node, ast.CaseExpression):
        operand = _fold(node.operand)
        whens = [
            (_fold(condition), _fold(result))
            for condition, result in node.whens
        ]
        default = _fold(node.default)
        changed = operand is not node.operand or default is not node.default
        if not changed:
            changed = any(
                condition is not original[0] or result is not original[1]
                for (condition, result), original in zip(whens, node.whens)
            )
        if not changed:
            return node
        return ast.CaseExpression(
            operand=operand, whens=whens, default=default
        )
    if isinstance(node, ast.FunctionCall):
        args = [_fold(arg) for arg in node.args]
        if all(new is old for new, old in zip(args, node.args)):
            return node
        return ast.FunctionCall(
            name=node.name, args=args, distinct=node.distinct
        )
    # Subqueries, column refs, windows, stars: left untouched.
    return node
