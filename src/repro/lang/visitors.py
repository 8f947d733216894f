"""Traversal and rewriting utilities over the AST.

:class:`NodeVisitor` / :class:`NodeTransformer` follow the familiar
``ast``-module pattern.  On top of them the module provides the small
rewriters every SLMS pass needs:

* :func:`substitute_index` — replace a loop index ``i`` with ``i + k``
  (the core of kernel/prologue/epilogue generation), folding constants
  so ``A[i + 2 - 2]`` prints as ``A[i]``;
* :func:`substitution_template` — the shape a loop-index substitution
  has for every index value (the schedule validator's row templates);
* :func:`rename_scalar` — variable renaming for MVE and multi-def
  scalar renaming;
* def/use sets and operation counting for the dependence analysis and
  the bad-case filter.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.lang.ast_nodes import (
    ARITH_OPS,
    ArrayRef,
    Assign,
    BinOp,
    Break,
    Call,
    Continue,
    Decl,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    IntLit,
    Node,
    ParGroup,
    Program,
    Stmt,
    Ternary,
    UnaryOp,
    Var,
    While,
)


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant, pre-order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.children())


class NodeVisitor:
    """Dispatches ``visit_<ClassName>`` methods; default recurses."""

    def visit(self, node: Node):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node):
        for child in node.children():
            self.visit(child)


class NodeTransformer:
    """Rebuilds the tree bottom-up; ``visit_<ClassName>`` may return a
    replacement node.  The input tree is never mutated."""

    def visit(self, node: Node) -> Node:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node) -> Node:
        if isinstance(node, (IntLit, FloatLit, Var)):
            return node.clone()
        if isinstance(node, ArrayRef):
            return ArrayRef(node.name, [self.visit(i) for i in node.indices], node.loc)
        if isinstance(node, BinOp):
            return BinOp(node.op, self.visit(node.left), self.visit(node.right), node.loc)
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, self.visit(node.operand), node.loc)
        if isinstance(node, Ternary):
            return Ternary(
                self.visit(node.cond), self.visit(node.then), self.visit(node.els), node.loc
            )
        if isinstance(node, Call):
            return Call(node.name, [self.visit(a) for a in node.args], node.loc)
        if isinstance(node, Decl):
            init = self.visit(node.init) if node.init is not None else None
            return Decl(node.type, node.name, node.dims, init, node.loc)
        if isinstance(node, Assign):
            return Assign(self.visit(node.target), self.visit(node.value), node.op, node.loc)
        if isinstance(node, ExprStmt):
            return ExprStmt(self.visit(node.expr), node.loc)
        if isinstance(node, If):
            return If(
                self.visit(node.cond),
                [self.visit(s) for s in node.then],
                [self.visit(s) for s in node.els],
                node.loc,
            )
        if isinstance(node, For):
            return For(
                self.visit(node.init) if node.init is not None else None,
                self.visit(node.cond) if node.cond is not None else None,
                self.visit(node.step) if node.step is not None else None,
                [self.visit(s) for s in node.body],
                node.loc,
            )
        if isinstance(node, While):
            return While(self.visit(node.cond), [self.visit(s) for s in node.body], node.loc)
        if isinstance(node, ParGroup):
            return ParGroup([self.visit(s) for s in node.stmts], node.loc)
        if isinstance(node, Program):
            return Program([self.visit(s) for s in node.body], node.loc)
        return node.clone()


# ---------------------------------------------------------------------------
# Collection helpers
# ---------------------------------------------------------------------------


def collect_vars(node: Node) -> Set[str]:
    """Names of every scalar variable mentioned anywhere in the subtree."""
    return {n.name for n in walk(node) if isinstance(n, Var)}


def collect_array_refs(node: Node) -> List[ArrayRef]:
    """Every array reference in the subtree, in traversal order."""
    return [n for n in walk(node) if isinstance(n, ArrayRef)]


def collect_calls(node: Node) -> List[Call]:
    """Every function call in the subtree."""
    return [n for n in walk(node) if isinstance(n, Call)]


def used_scalars(stmt: Stmt) -> Set[str]:
    """Scalar names *read* by a statement.

    For ``x = e`` the target is not a use; for ``x += e`` it is.  Scalars
    inside array subscripts count as uses.
    """
    if isinstance(stmt, Assign):
        used: Set[str] = set()
        used |= collect_vars(stmt.expanded_value())
        if isinstance(stmt.target, ArrayRef):
            for idx in stmt.target.indices:
                used |= collect_vars(idx)
        return used
    if isinstance(stmt, If):
        used = collect_vars(stmt.cond)
        for s in stmt.then:
            used |= used_scalars(s)
        for s in stmt.els:
            used |= used_scalars(s)
        return used
    if isinstance(stmt, ExprStmt):
        return collect_vars(stmt.expr)
    if isinstance(stmt, ParGroup):
        used = set()
        for s in stmt.stmts:
            used |= used_scalars(s)
        return used
    if isinstance(stmt, Decl):
        return collect_vars(stmt.init) if stmt.init is not None else set()
    # Loops and control statements: conservatively everything mentioned.
    return collect_vars(stmt)


def defined_scalars(stmt: Stmt) -> Set[str]:
    """Scalar names *written* by a statement."""
    if isinstance(stmt, Assign):
        return {stmt.target.name} if isinstance(stmt.target, Var) else set()
    if isinstance(stmt, If):
        defined: Set[str] = set()
        for s in stmt.then:
            defined |= defined_scalars(s)
        for s in stmt.els:
            defined |= defined_scalars(s)
        return defined
    if isinstance(stmt, ParGroup):
        defined = set()
        for s in stmt.stmts:
            defined |= defined_scalars(s)
        return defined
    if isinstance(stmt, Decl):
        return {stmt.name} if not stmt.dims else set()
    if isinstance(stmt, (For, While)):
        defined = set()
        for child in stmt.children():
            if isinstance(child, Stmt):
                defined |= defined_scalars(child)
        return defined
    return set()


# ---------------------------------------------------------------------------
# Rewriters
# ---------------------------------------------------------------------------


class _IndexSubstituter(NodeTransformer):
    def __init__(self, var: str, replacement: Expr):
        self.var = var
        self.replacement = replacement

    def visit_Var(self, node: Var) -> Expr:
        if node.name == self.var:
            return self.replacement.clone()
        return node.clone()


def _fold_binop(op: str, left: Expr, right: Expr, loc) -> Expr:
    """Fold a binary node whose children are *already folded*."""
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        if op == "+":
            return IntLit(left.value + right.value, loc)
        if op == "-":
            return IntLit(left.value - right.value, loc)
        if op == "*":
            return IntLit(left.value * right.value, loc)
    # (v + a) + b  ->  v + (a+b)
    if (
        op in ("+", "-")
        and isinstance(right, IntLit)
        and isinstance(left, BinOp)
        and left.op in ("+", "-")
        and isinstance(left.right, IntLit)
    ):
        a = left.right.value if left.op == "+" else -left.right.value
        b = right.value if op == "+" else -right.value
        total = a + b
        if total == 0:
            return left.left
        if total > 0:
            return BinOp("+", left.left, IntLit(total), loc)
        return BinOp("-", left.left, IntLit(-total), loc)
    if op in ("+", "-") and isinstance(right, IntLit) and right.value == 0:
        return left
    if op == "+" and isinstance(left, IntLit) and left.value == 0:
        return right
    return BinOp(op, left, right, loc)


def _fold(expr: Expr) -> Expr:
    """Constant-fold integer +/-/* so shifted indices stay readable."""
    if isinstance(expr, BinOp):
        return _fold_binop(expr.op, _fold(expr.left), _fold(expr.right), expr.loc)
    if isinstance(expr, (Var, IntLit, FloatLit)):
        return expr
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.name, [_fold(i) for i in expr.indices], expr.loc)
    if isinstance(expr, UnaryOp):
        inner = _fold(expr.operand)
        if expr.op == "-" and isinstance(inner, IntLit):
            return IntLit(-inner.value, expr.loc)
        return UnaryOp(expr.op, inner, expr.loc)
    if isinstance(expr, Ternary):
        return Ternary(_fold(expr.cond), _fold(expr.then), _fold(expr.els), expr.loc)
    if isinstance(expr, Call):
        return Call(expr.name, [_fold(a) for a in expr.args], expr.loc)
    return expr


class _Folder(NodeTransformer):
    def visit(self, node: Node) -> Node:
        if isinstance(node, Expr):
            return _fold(node)
        return self.generic_visit(node)


def fold_constants(node: Node) -> Node:
    """Return a copy with integer constant arithmetic folded."""
    return _Folder().visit(node)


def _subst_fold(expr: Expr, var: str, replacement: Expr) -> Expr:
    """``_fold`` of the ``var`` → ``replacement`` substitution of
    ``expr``, in a single bottom-up pass.

    Structurally identical to
    ``_fold(_IndexSubstituter(var, replacement).visit(expr))`` — the
    substitution only touches ``Var`` leaves and ``_fold`` is bottom-up,
    so folding substituted children before the parent is the same tree
    the two-pass pipeline builds.  Like ``_fold``, untouched leaves are
    shared with the input, never mutated.
    """
    if isinstance(expr, Var):
        return _fold(replacement.clone()) if expr.name == var else expr
    if isinstance(expr, (IntLit, FloatLit)):
        return expr
    if isinstance(expr, BinOp):
        return _fold_binop(
            expr.op,
            _subst_fold(expr.left, var, replacement),
            _subst_fold(expr.right, var, replacement),
            expr.loc,
        )
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            expr.name, [_subst_fold(i, var, replacement) for i in expr.indices], expr.loc
        )
    if isinstance(expr, UnaryOp):
        inner = _subst_fold(expr.operand, var, replacement)
        if expr.op == "-" and isinstance(inner, IntLit):
            return IntLit(-inner.value, expr.loc)
        return UnaryOp(expr.op, inner, expr.loc)
    if isinstance(expr, Ternary):
        return Ternary(
            _subst_fold(expr.cond, var, replacement),
            _subst_fold(expr.then, var, replacement),
            _subst_fold(expr.els, var, replacement),
            expr.loc,
        )
    if isinstance(expr, Call):
        return Call(
            expr.name, [_subst_fold(a, var, replacement) for a in expr.args], expr.loc
        )
    return expr


class _SubstFolder(NodeTransformer):
    def __init__(self, var: str, replacement: Expr):
        self.var = var
        self.replacement = replacement

    def visit(self, node: Node) -> Node:
        if isinstance(node, Expr):
            return _subst_fold(node, self.var, self.replacement)
        return self.generic_visit(node)


def substitute_index(node: Node, var: str, offset: int) -> Node:
    """Return a copy of ``node`` with loop index ``var`` shifted by ``offset``.

    ``substitute_index(A[i-1] = A[i+1], "i", 2)`` gives ``A[i+1] = A[i+3]``.
    Constants are folded after substitution so indices stay canonical.
    """
    if offset == 0:
        return fold_constants(node)
    replacement: Expr
    if offset > 0:
        replacement = BinOp("+", Var(var), IntLit(offset))
    else:
        replacement = BinOp("-", Var(var), IntLit(-offset))
    return _SubstFolder(var, replacement).visit(node)


def substitute_expr(node: Node, var: str, replacement: Expr) -> Node:
    """Return a copy with every ``Var(var)`` replaced by ``replacement``,
    folding constants as it rebuilds (one fused pass)."""
    return _SubstFolder(var, replacement).visit(node)


class AffineLeaf(IntLit):
    """An integer leaf ``a·v + b`` of a :func:`substitution_template`.

    ``value`` holds the leaf at the instance last set with :meth:`at`,
    so the template reads like the folded tree of that instance.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        super().__init__(b)
        self.a = a
        self.b = b

    def at(self, v: int) -> None:
        self.value = self.a * v + self.b


class _NoTemplate(Exception):
    """The folded shape depends on the substituted value."""


def substitution_template(node: Node, var: Optional[str]) -> Optional[Node]:
    """The tree shape ``substitute_expr(node, var, IntLit(v))`` has for
    every integer ``v``, or ``None`` when no single shape exists.

    Every maximal subtree that is integer ``+ - *`` / unary ``-`` over
    ``var`` and literals folds to one ``IntLit``; when it is affine in
    ``var`` (and not constant) it becomes an :class:`AffineLeaf`.  The
    shape is value-independent unless such a leaf sits under a ``+``/``-``
    node (the other operand is then not a literal, and the zero and
    reassociation rules of :func:`_fold_binop` inspect the leaf's value)
    or is not affine (``i * i``); both give ``None``, as do loops and
    declarations.  With ``var`` ``None`` the template is
    ``fold_constants(node)``.
    """
    try:
        return _template(node, var)
    except _NoTemplate:
        return None


def _template(node: Node, var: Optional[str]) -> Node:
    if isinstance(node, Expr):
        return _template_leaf(_template_expr(node, var))
    if isinstance(node, Assign):
        return Assign(
            _template(node.target, var), _template(node.value, var), node.op, node.loc
        )
    if isinstance(node, ExprStmt):
        return ExprStmt(_template(node.expr, var), node.loc)
    if isinstance(node, If):
        return If(
            _template(node.cond, var),
            [_template(s, var) for s in node.then],
            [_template(s, var) for s in node.els],
            node.loc,
        )
    if isinstance(node, ParGroup):
        return ParGroup([_template(s, var) for s in node.stmts], node.loc)
    if isinstance(node, (Break, Continue)):
        return node
    raise _NoTemplate


def _template_leaf(folded) -> Expr:
    if isinstance(folded, tuple):
        a, b = folded
        return AffineLeaf(a, b) if a else IntLit(b)
    return folded


def _template_expr(expr: Expr, var: Optional[str]):
    """:func:`_subst_fold` over a symbolic ``var``: ``(a, b)`` for an
    integer subtree worth ``a·var + b``, else the folded node."""
    if isinstance(expr, Var):
        return (1, 0) if expr.name == var else expr
    if isinstance(expr, IntLit):
        return (0, expr.value)
    if isinstance(expr, BinOp):
        left = _template_expr(expr.left, var)
        right = _template_expr(expr.right, var)
        if isinstance(left, tuple) and isinstance(right, tuple) and expr.op in ("+", "-", "*"):
            (a1, b1), (a2, b2) = left, right
            if expr.op == "+":
                return (a1 + a2, b1 + b2)
            if expr.op == "-":
                return (a1 - a2, b1 - b2)
            if a1 and a2:
                raise _NoTemplate
            return (a1 * b2 + a2 * b1, b1 * b2)
        left, right = _template_leaf(left), _template_leaf(right)
        if expr.op in ("+", "-") and (
            isinstance(left, AffineLeaf) or isinstance(right, AffineLeaf)
        ):
            raise _NoTemplate
        return _fold_binop(expr.op, left, right, expr.loc)
    if isinstance(expr, UnaryOp):
        inner = _template_expr(expr.operand, var)
        if expr.op == "-" and isinstance(inner, tuple):
            return (-inner[0], -inner[1])
        return UnaryOp(expr.op, _template_leaf(inner), expr.loc)
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            expr.name,
            [_template_leaf(_template_expr(i, var)) for i in expr.indices],
            expr.loc,
        )
    if isinstance(expr, Ternary):
        return Ternary(
            _template_leaf(_template_expr(expr.cond, var)),
            _template_leaf(_template_expr(expr.then, var)),
            _template_leaf(_template_expr(expr.els, var)),
            expr.loc,
        )
    if isinstance(expr, Call):
        return Call(
            expr.name,
            [_template_leaf(_template_expr(a, var)) for a in expr.args],
            expr.loc,
        )
    return expr


class _ScalarRenamer(NodeTransformer):
    def __init__(self, mapping: Dict[str, str]):
        self.mapping = mapping

    def visit_Var(self, node: Var) -> Var:
        return Var(self.mapping.get(node.name, node.name), node.loc)


def rename_scalar(node: Node, old: str, new: str) -> Node:
    """Return a copy with scalar ``old`` renamed to ``new`` (arrays untouched)."""
    return _ScalarRenamer({old: new}).visit(node)


def rename_scalars(node: Node, mapping: Dict[str, str]) -> Node:
    """Rename several scalars at once."""
    return _ScalarRenamer(dict(mapping)).visit(node)


# ---------------------------------------------------------------------------
# Operation counting (used by the §4 bad-case filter and machine models)
# ---------------------------------------------------------------------------


def count_ops(node: Node) -> Dict[str, int]:
    """Count load/store/arithmetic operations in a subtree.

    Returns a dict with keys ``"load"``, ``"store"``, ``"arith"``,
    ``"mul"``, ``"div"``, ``"addr_arith"``, ``"call"``.  Array reads count
    as loads, array writes as stores.  Arithmetic *inside array
    subscripts* is address computation — the paper's §4 AO count excludes
    it (its swap-loop example has AO=1, the single ``*2``) — so it is
    reported separately as ``addr_arith``.
    """
    counts = {
        "load": 0,
        "store": 0,
        "arith": 0,
        "mul": 0,
        "div": 0,
        "addr_arith": 0,
        "call": 0,
    }

    def count_addr(expr: Expr) -> None:
        for n in walk(expr):
            if isinstance(n, BinOp) and n.op in ARITH_OPS:
                counts["addr_arith"] += 1

    def visit_expr(expr: Expr) -> None:
        # Manual stack walk so array subscripts route to count_addr.
        stack: List[Expr] = [expr]
        while stack:
            n = stack.pop()
            if isinstance(n, ArrayRef):
                counts["load"] += 1
                for idx in n.indices:
                    count_addr(idx)
                continue
            if isinstance(n, BinOp) and n.op in ARITH_OPS:
                counts["arith"] += 1
                if n.op == "*":
                    counts["mul"] += 1
                elif n.op in ("/", "%"):
                    counts["div"] += 1
            elif isinstance(n, Call):
                counts["call"] += 1
            stack.extend(c for c in n.children() if isinstance(c, Expr))

    def visit_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            visit_expr(stmt.expanded_value())
            if isinstance(stmt.target, ArrayRef):
                counts["store"] += 1
                # Compound ops re-read the target: expanded_value() already
                # cloned it as a load, so only the store itself is added here.
                if stmt.op is None:
                    for idx in stmt.target.indices:
                        count_addr(idx)
        elif isinstance(stmt, If):
            visit_expr(stmt.cond)
            for s in stmt.then:
                visit_stmt(s)
            for s in stmt.els:
                visit_stmt(s)
        elif isinstance(stmt, ExprStmt):
            visit_expr(stmt.expr)
        elif isinstance(stmt, ParGroup):
            for s in stmt.stmts:
                visit_stmt(s)
        elif isinstance(stmt, (For, While)):
            if isinstance(stmt, While):
                visit_expr(stmt.cond)
            for s in stmt.body:
                visit_stmt(s)
        elif isinstance(stmt, Decl) and stmt.init is not None:
            visit_expr(stmt.init)

    if isinstance(node, Program):
        for s in node.body:
            visit_stmt(s)
    elif isinstance(node, Stmt):
        visit_stmt(node)
    else:
        visit_expr(node)  # type: ignore[arg-type]
    return counts
