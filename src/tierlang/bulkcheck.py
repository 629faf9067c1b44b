"""Typability of many environments at once, as boolean tensors.

For exhaustive comparisons the per-program question is "does any
environment and triple with tiers <= cap type this program", over hundreds
of thousands of programs that share almost all their subtrees.  Answering
it by per-environment recursion repeats work; instead each distinct subtree
gets one boolean tensor indexed by every knob at once:

    commands     axes (g_1, .., g_k, tier, inner, outer)
    expressions  axes (g_1, .., g_k, inner, outer, result)

where g_i ranges over the tier of the i-th stock variable and every axis
has cap+1 points.  A cell is True when the judgement holds.  The typing
rules become a handful of numpy operations per node (pointwise AND,
running OR along a tier axis for the lifting rule, diagonals where a rule
reuses one tier in two roles), and tensors are kept in broadcastable form
so subtrees that ignore a variable pay nothing for its axis.

The tensors say exactly what `bruteforce.derivable` says judgement by
judgement; tests check that on random programs.  Only the fragment the
exhaustive family needs is supported: no oracle calls, operators of arity
at most one.
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
        self.ax_a = n
        self.ax_b = n + 1
        self.ax_c = n + 2
        self._grids: dict[int, np.ndarray] = {}
        self._expr_memo: dict[int, np.ndarray] = {}
        self._cmd_memo: dict[int, np.ndarray] = {}

    def _grid(self, axis: int) -> np.ndarray:
        g = self._grids.get(axis)
        if g is None:
            shape = [1] * self.ndim
            shape[axis] = self.d
            g = np.arange(self.d).reshape(shape)
            self._grids[axis] = g
        return g

    def _material(self, m: np.ndarray, *axes: int) -> np.ndarray:
        """View with the given axes broadcast to full length, as diagonals
        and running ORs need them."""
        shape = list(m.shape)
        for ax in axes:
            shape[ax] = self.d
        return np.broadcast_to(m, shape)

    @staticmethod
    def _or_upto(m: np.ndarray, axis: int) -> np.ndarray:
        """Cell i becomes OR of cells 0..i: absorbs the lifting rule."""
        return np.logical_or.accumulate(m, axis=axis)

    @staticmethod
    def _or_from(m: np.ndarray, axis: int) -> np.ndarray:
        """Cell i becomes OR of cells i..end: results may drop below an
        argument tier."""
        rev = np.flip(m, axis=axis)
        return np.flip(np.logical_or.accumulate(rev, axis=axis), axis=axis)

    def expr_mask(self, e: Expr) -> np.ndarray:
        hit = self._expr_memo.get(id(e))
        if hit is not None:
            return hit
        inner, result = self._grid(self.ax_a), self._grid(self.ax_c)
        if isinstance(e, Var):
            mask = self._grid(self.var_axis[e.name]) == result
        elif isinstance(e, OpApp):
            spec = self.registry.lookup(e.op)
            positive = isinstance(spec.classification, Positive)
            if spec.arity == 0:
                mask = result < inner if positive else result <= inner
            elif spec.arity == 1:
                arg = self.expr_mask(e.args[0])
                ok = arg & (result <= inner)
                mask = self._or_from(self._material(ok, self.ax_c), self.ax_c)
                if positive:
                    mask = mask & (result < inner)
            else:
                raise NotImplementedError(
                    f"bulk summaries cover arity <= 1, not {e.op}"
                )
        elif isinstance(e, OracleCall):
            raise NotImplementedError("bulk summaries cover oracle-free programs")
        else:
            raise TypeError(f"not an expression: {e!r}")
        self._expr_memo[id(e)] = mask
        return mask

    def _expr_as_cmd_axes(self, m: np.ndarray) -> np.ndarray:
        """Rebase an expression tensor so its result tier sits on the
        command tier axis and the channels line up."""
        a, b, c = self.ax_a, self.ax_b, self.ax_c
        return np.moveaxis(m, (a, b, c), (b, c, a))

    def cmd_mask(self, c: Cmd) -> np.ndarray:
        hit = self._cmd_memo.get(id(c))
        if hit is not None:
            return hit
        tier = self._grid(self.ax_a)
        mask = self._build_cmd(c, tier)
        self._cmd_memo[id(c)] = mask
        return mask

    def _build_cmd(self, c: Cmd, tier: np.ndarray) -> np.ndarray:
        a, b_ax, c_ax = self.ax_a, self.ax_b, self.ax_c
        if isinstance(c, Skip):
            return np.ones((1,) * self.ndim, dtype=bool)
        if isinstance(c, Assign):
            target = self._grid(self.var_axis[c.target])
            value = self.expr_mask(c.value)
            fits = value & (target <= self._grid(c_ax))
            some = fits.any(axis=c_ax, keepdims=True)
            return self._expr_as_cmd_axes(some) & (target <= tier)
        if isinstance(c, Seq):
            return self.cmd_mask(c.first) & self.cmd_mask(c.rest)
        if isinstance(c, If):
            guard = self._expr_as_cmd_axes(self.expr_mask(c.guard))
            both = guard & self.cmd_mask(c.then) & self.cmd_mask(c.orelse)
            return self._or_upto(self._material(both, a), a)
        if isinstance(c, While):
            guard = self.expr_mask(c.guard)
            body = self.cmd_mask(c.body)
            positive = self._grid(a) >= 1

            # Plain rule: guard at the loop tier, body channels (tier, out),
            # and the loop tier at most the outer channel.  The tier in two
            # roles makes the body slice a diagonal.
            body_diag = np.diagonal(self._material(body, a, b_ax), axis1=a, axis2=b_ax)
            # Diagonal moves to the last axis: now (gammas, out, loop tier).
            body_plain = np.expand_dims(
                np.moveaxis(body_diag, (a, a + 1), (b_ax, a)), b_ax
            )
            guard_plain = self._expr_as_cmd_axes(guard)
            plain = guard_plain & body_plain & positive & (
                self._grid(a) <= self._grid(c_ax)
            )
            plain = self._or_upto(self._material(plain, a), a)

            # Sealing rule, conclusion outer tier 0: guard's outer channel
            # and all three body channels equal the loop tier.
            guard_diag = np.diagonal(
                self._material(guard, b_ax, c_ax), axis1=b_ax, axis2=c_ax
            )
            guard_seal = np.moveaxis(guard_diag, (a, a + 1), (b_ax, a))
            body_seal = np.diagonal(
                self._material(body_diag, a, a + 1), axis1=a, axis2=a + 1
            )
            body_seal = np.expand_dims(body_seal, b_ax)
            sealed = guard_seal & body_seal & np.squeeze(positive, c_ax)
            sealed = self._or_upto(self._material(sealed, a), a)
            seal_full = np.expand_dims(sealed, c_ax) & (self._grid(c_ax) == 0)

            return plain | seal_full
        raise TypeError(f"not a command: {c!r}")

    def typable(self, program: Program) -> bool:
        """Does any environment and triple with tiers <= cap type it?"""
        return bool(self.cmd_mask(program.body).any())
