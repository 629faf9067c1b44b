"""Typability of many environments at once, as boolean tensors.

For exhaustive comparisons the per-program question is "does any
environment and triple with tiers <= cap type this program", over hundreds
of thousands of programs that share almost all their subtrees.  Answering
it by per-environment recursion repeats work; instead each distinct subtree
gets one boolean tensor indexed by every knob at once:

    commands     axes (g_1, .., g_k, tier, inner, outer)
    expressions  axes (g_1, .., g_k, inner, outer, result)

where g_i ranges over the tier of the i-th stock variable and every axis
has cap+1 points.  A cell is True when the judgement holds.  Tensors are
kept in broadcastable form, so subtrees that ignore a variable pay nothing
for its axis.

Tensors are small and the calls many, so the cost per node is mostly
the number of numpy calls.  The axis orders and the tensors that do not
depend on a program (variables, nullary operators, skip, the tier side
conditions) are built once per engine.  What is left per node:

    unary operator   AND, running OR down the result axis, and one more
                     AND for a positive operator
    assignment       AND, `any` over the result axis, transpose, AND
    sequence         AND
    conditional      transpose, two ANDs, running OR up the tier axis (the
                     lifting rule)
    loop             broadcast, diagonal (the body's tier = inner), two
                     transposes, an index, two ANDs, running OR; sealing
                     takes the diagonal where the premises' outer channel
                     equals the loop tier, a transpose and a running OR,
                     written into outer 0

The tensors say exactly what `bruteforce.derivable` says judgement by
judgement; tests check that on sampled family programs at caps 2 and 3.
Only the fragment the exhaustive family needs is supported: no oracle
calls, operators of arity at most one.  `cmd_mask` and `expr_mask`
recurse once per nesting level and per `;` link, two frames a command, so
at the default recursion limit they take about 490 levels of commands and
990 of nested operator applications.
"""

from __future__ import annotations

import numpy as np

from .operators import DEFAULT_REGISTRY, Positive, Registry
from .syntax import (
    Assign,
    Cmd,
    Expr,
    If,
    OpApp,
    OracleCall,
    Program,
    Seq,
    Skip,
    Var,
    While,
)


class BulkTyping:
    """Tensor-valued typability summaries over a fixed variable stock."""

    def __init__(
        self,
        cap: int,
        var_names: tuple[str, ...] = ("x", "y", "z"),
        registry: Registry | None = None,
    ) -> None:
        self.cap = cap
        self.d = cap + 1
        self.vars = tuple(var_names)
        self.var_axis = {name: i for i, name in enumerate(self.vars)}
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        n = len(self.vars)
        self.ndim = n + 3
        # Positional axes after the gamma block: commands use (t, in, out),
        # expressions use (in, out, result).
        a, b, c = self.ax_a, self.ax_b, self.ax_c = n, n + 1, n + 2
        # `transpose` orders, built once.  The first rebases an expression
        # tensor so its result tier sits on the command tier axis and the
        # channels line up; the second swaps the last two axes of a tensor
        # one axis short, which brings a diagonal (appended last) back to
        # the tier position.
        gammas = tuple(range(n))
        self._expr_to_cmd = gammas + (c, a, b)
        self._swap_last = gammas + (b, a)

        # Constant tensors.  On command axes a and c are the tier and the
        # outer channel; on expression axes they are the inner channel and
        # the result.
        grids = []
        for axis in range(self.ndim):
            shape = [1] * self.ndim
            shape[axis] = self.d
            grids.append(np.arange(self.d).reshape(shape))
        self._everything = np.ones((1,) * self.ndim, dtype=bool)
        self._is_var = {v: grids[i] == grids[c] for v, i in self.var_axis.items()}
        self._at_most_inner = grids[c] <= grids[a]
        self._below_inner = grids[c] < grids[a]
        # An assignment's target tier is at most the value's result tier,
        # and at most the command tier.
        self._target_fits = {
            v: (grids[i] <= grids[c], grids[i] <= grids[a])
            for v, i in self.var_axis.items()
        }
        # The plain loop rule's side condition 1 <= loop tier <= outer.
        self._plain_loop = (grids[a] >= 1) & (grids[a] <= grids[c])

        # Keyed by id(node); each entry keeps its node alive, so that the
        # id cannot pass to another node while the entry exists.
        self._expr_memo: dict[int, tuple[Expr, np.ndarray]] = {}
        self._cmd_memo: dict[int, tuple[Cmd, np.ndarray]] = {}

    @staticmethod
    def _or_upto(m: np.ndarray, axis: int) -> np.ndarray:
        """Cell i becomes OR of cells 0..i: absorbs the lifting rule."""
        return np.logical_or.accumulate(m, axis=axis)

    @staticmethod
    def _or_from_last(m: np.ndarray) -> np.ndarray:
        """Along the last axis, cell i becomes OR of cells i..end: results
        may drop below an argument tier."""
        return np.logical_or.accumulate(m[..., ::-1], axis=-1)[..., ::-1]

    def expr_mask(self, e: Expr) -> np.ndarray:
        hit = self._expr_memo.get(id(e))
        if hit is not None:
            return hit[1]
        if isinstance(e, Var):
            mask = self._is_var[e.name]
        elif isinstance(e, OpApp):
            spec = self.registry.lookup(e.op)
            positive = isinstance(spec.classification, Positive)
            if spec.arity == 0:
                mask = self._below_inner if positive else self._at_most_inner
            elif spec.arity == 1:
                arg = self.expr_mask(e.args[0])
                mask = self._or_from_last(arg & self._at_most_inner)
                if positive:
                    mask = mask & self._below_inner
            else:
                raise NotImplementedError(
                    f"bulk summaries cover arity <= 1, not {e.op}"
                )
        elif isinstance(e, OracleCall):
            raise NotImplementedError("bulk summaries cover oracle-free programs")
        else:
            raise TypeError(f"not an expression: {e!r}")
        self._expr_memo[id(e)] = (e, mask)
        return mask

    def cmd_mask(self, c: Cmd) -> np.ndarray:
        hit = self._cmd_memo.get(id(c))
        if hit is not None:
            return hit[1]
        mask = self._build_cmd(c)
        self._cmd_memo[id(c)] = (c, mask)
        return mask

    def _build_cmd(self, c: Cmd) -> np.ndarray:
        a, b_ax, c_ax = self.ax_a, self.ax_b, self.ax_c
        if isinstance(c, Skip):
            return self._everything
        if isinstance(c, Assign):
            below_value, below_tier = self._target_fits[c.target]
            fits = self.expr_mask(c.value) & below_value
            some = fits.any(axis=c_ax, keepdims=True)
            return some.transpose(self._expr_to_cmd) & below_tier
        if isinstance(c, Seq):
            return self.cmd_mask(c.first) & self.cmd_mask(c.rest)
        if isinstance(c, If):
            guard = self.expr_mask(c.guard).transpose(self._expr_to_cmd)
            both = guard & self.cmd_mask(c.then) & self.cmd_mask(c.orelse)
            return self._or_upto(both, a)
        if isinstance(c, While):
            # Plain rule: guard at the loop tier, body channels (tier, out),
            # and 1 <= loop tier <= the outer channel.  The tier in two roles
            # makes the body slice a diagonal, which `diagonal` appends
            # last: (gammas, out, loop tier), swapped to (gammas, loop tier,
            # out) and given back an inner axis.
            body = self.cmd_mask(c.body)
            full = body.shape[:a] + (self.d, self.d) + body.shape[c_ax:]
            body_diag = np.broadcast_to(body, full).diagonal(0, a, b_ax)
            body_plain = body_diag.transpose(self._swap_last)
            guard = self.expr_mask(c.guard).transpose(self._expr_to_cmd)
            premises = guard & body_plain[..., None, :] & self._plain_loop
            plain = self._or_upto(premises, a)

            # Sealing rule, conclusion outer tier 0: the guard's outer
            # channel and all three body channels equal the loop tier, which
            # is where the plain premises meet outer = loop tier.  The plain
            # rule leaves outer 0 empty, so sealing fills it.
            sealed = premises.diagonal(0, a, c_ax).transpose(self._swap_last)
            plain[..., 0] = self._or_upto(sealed, a)
            return plain
        raise TypeError(f"not a command: {c!r}")

    def typable(self, program: Program) -> bool:
        """Does any environment and triple with tiers <= cap type it?"""
        return bool(self.cmd_mask(program.body).any())
