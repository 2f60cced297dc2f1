"""Minimal reverse-mode autodiff over numpy arrays, scoped to the taggers' needs.

Values are computed eagerly; every operation records a backward closure on a
:class:`Tape`. Activations are whole sequences, ``(T, d)`` matrices with one
row per position, or single ``(d,)`` vectors; weights are matrices, and no op
broadcasts beyond what its docstring says. The ops are the ones the two
taggers call, and no others. The recurrent layers (:meth:`Tape.lstm`,
:meth:`Tape.gru`) and the CRF (:meth:`Tape.crf_nll`) are each one fused op
with a hand-written backward, over packed sequences: the rows of several
consecutive sequences advance together, longest first, so each step is one
``(n_s, d) @ w`` product over the sequences still running, and a training
batch goes through each layer once. Identity packings are read in place:
one sequence, or sequences of one row each, need no sort and no gather. A
recurrence reads its gate pre-activations, which the caller computes with
one :meth:`Tape.affine` GEMM ahead of it, so the input projection and its
gradients are written once. It returns its state after every row, in row
order, and a sequence's final state is one of those rows, which the caller
gathers, so every op records one node. Since a batch passes through each
layer once, a weight's gradient is one ``Xᵀ·G`` product over every row of
the batch, added as soon as its op's backward runs. :meth:`Tape.backward`
on a scalar loss is one reverse pass that sums each node's gradient in one
list, by node index; a parameter's entry in that list is its gradient. A
table read through :meth:`Tape.lookup` gets one row-sparse block, a
:class:`RowGradient` of its sorted distinct row ids and their summed
gradients, so the optimizer can skip rows that never appeared in a batch.
Inference runs the same ops on a :class:`ForwardTape`, which records
nothing, so a pass keeps only the values still in use.

Parameters must not be mutated while a tape built on them is still in use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np


class Parameters:
    """Named, shaped arrays of reals; the full state of a model.

    64-bit by default: the finite-difference checks and the pinned float64
    loss build through this default. ``nestner train`` and
    :func:`~nestner.models.load_model` choose 32-bit, the precision a
    checkpoint stores. Names are unique and shapes fixed once added.
    """

    def __init__(self, dtype=np.float64):
        self._arrays: dict[str, np.ndarray] = {}
        self.dtype = np.dtype(dtype)

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        """Register a copy of ``value`` in this store's dtype. The values
        come from outside (a checkpoint, a caller), so a non-finite one is a
        ``ValueError``."""
        self._check_new(name)
        arr = np.array(value, dtype=self.dtype)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in parameter {name}")
        self._arrays[name] = arr
        return arr

    def uniform(
        self, name: str, shape: tuple[int, ...], rng: np.random.Generator, fan_in: int | None = None
    ) -> np.ndarray:
        """uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)); fan_in defaults to shape[0].

        The float64 draw is stored as drawn, or cast once to a narrower
        dtype, with no copy and no finiteness pass: a draw bounded by at most
        1 is finite by construction."""
        fan = fan_in if fan_in is not None else shape[0]
        bound = (1.0 / max(fan, 1)) ** 0.5
        self._check_new(name)
        drawn = rng.uniform(-bound, bound, size=shape)
        arr = drawn if drawn.dtype == self.dtype else drawn.astype(self.dtype)
        self._arrays[name] = arr
        return arr

    def _check_new(self, name: str) -> None:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter name: {name}")

    def zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.add(name, np.zeros(shape))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def load_state(self, other: "Parameters") -> None:
        """Overwrite array contents in place from another store with equal names."""
        if set(self._arrays) != set(other._arrays):
            raise ValueError("parameter stores have different names")
        for name, arr in self._arrays.items():
            np.copyto(arr, other._arrays[name])


@dataclass(frozen=True)
class RowGradient:
    """The gradient of a table used via lookups: sorted distinct row ``ids``
    and their summed gradients ``values``, one row each."""

    ids: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


class Gradients:
    """Per-parameter gradients of one backward pass.

    ``dense`` holds full-shape arrays for parameters used as whole tensors;
    ``rows`` holds a :class:`RowGradient` for parameters used via lookups.
    Anything absent from both was untouched and its gradient is exactly zero.
    """

    def __init__(self):
        self.dense: dict[str, np.ndarray] = {}
        self.rows: dict[str, RowGradient] = {}

    def touched(self, name: str) -> bool:
        return name in self.dense or name in self.rows

    def materialize(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Full-shape gradient array (zeros where untouched)."""
        out = np.zeros(shape, dtype=dtype)
        if name in self.dense:
            out += self.dense[name]
        if name in self.rows:
            out[self.rows[name].ids] += self.rows[name].values
        return out

    def nonfinite_names(self) -> list[str]:
        arrays = [*self.dense.items(), *((name, r.values) for name, r in self.rows.items())]
        return sorted({name for name, g in arrays if not np.all(np.isfinite(g))})


class Var:
    """A node on the tape: an eagerly computed array plus a backward closure."""

    __slots__ = ("value", "idx", "_back")

    def __init__(self, value: np.ndarray, idx: int, back: Callable | None):
        self.value = value
        self.idx = idx
        self._back = back

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def _acc(grads: list, var: Var, g: np.ndarray) -> None:
    cur = grads[var.idx]
    grads[var.idx] = g if cur is None else cur + g


def _acc_product(grads: list, w: Var, x: np.ndarray, g: np.ndarray) -> None:
    """Add ``xᵀ·g``, the gradient of ``x @ w``, to ``w``'s gradient."""
    _acc(grads, w, x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))


def _row_ids(op: str, rows: Sequence[int]) -> np.ndarray:
    """``rows`` as intp ids; a bare int or any other non-1-d ``rows`` is an error naming ``op``."""
    ids = np.asarray(rows, dtype=np.intp)
    if ids.ndim != 1:
        raise ValueError(f"{op}: rows must be a 1-d sequence of ints, got {rows!r}")
    return ids


def _log_matmul(v: np.ndarray, log_w: np.ndarray, exp_w: np.ndarray, w_max: np.ndarray):
    """``log(exp(v) @ exp(log_w))`` for the rows of ``v`` (n, k): one matrix
    product in exp space, with each row of ``v`` shifted by its maximum and
    ``exp_w = exp(log_w - w_max)`` shifted per column. An entry whose sum
    falls below ``tiny / eps``, where terms may have underflowed, is
    recomputed as an exact logsumexp."""
    m = v.max(axis=1, keepdims=True)
    s = np.exp(v - m) @ exp_w
    info = np.finfo(s.dtype)
    low = s < info.tiny / info.eps
    if not low.any():
        return np.log(s) + (m + w_max)
    out = np.empty_like(s)
    out[~low] = np.log(s[~low]) + (m + w_max)[~low]
    rows, cols = np.nonzero(low)
    scores = v[rows] + log_w[:, cols].T
    top = scores.max(axis=1)
    out[low] = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
    return out


class _Packing(NamedTuple):
    """Consecutive sequences of a block's rows, laid out to advance together.

    The ``n_seq`` sequences run longest first (``order``), so those still
    running at step s are a prefix and step s is the packed positions
    ``bounds[s]:bounds[s + 1]``, one per running sequence. ``rows`` maps each
    packed position to its row of the block.

    A recurrence keeps its states in one buffer: the initial states in
    running order, then the state written at each packed position. Step 0
    reads the first ``bounds[1]`` rows and step s the states of step s-1's
    first ``bounds[s + 1] - bounds[s]`` positions, so every read is a view.
    A recurrence returns the states written, ``buffer[n_seq:]``, put back
    in block row order. Identity packings are read in place: for one
    sequence, or for sequences of one row each, ``rows`` and ``order`` are
    slices and packing makes no sort and no gather.
    """

    rows: np.ndarray | slice
    bounds: Sequence[int]
    order: np.ndarray | slice
    n_seq: int

    def unpacked(self, values: np.ndarray) -> np.ndarray:
        """Packed rows of ``values`` put back in block row order."""
        if isinstance(self.rows, slice):
            return values[self.rows]  # a view: an identity packing, maybe reversed
        out = np.empty_like(values)
        out[self.rows] = values
        return out

    def previous(self) -> np.ndarray:
        """The packed position each position after step 0 follows."""
        b = self.bounds
        return np.concatenate(
            [np.arange(lo, lo + hi - nxt) for lo, nxt, hi in zip(b, b[1:], b[2:])]
            + [np.zeros(0, dtype=np.intp)]
        )

    def reads(self) -> np.ndarray | slice:
        """The state buffer row that each packed position reads."""
        if isinstance(self.rows, slice):
            return slice(0, self.bounds[-1])
        return np.concatenate((np.arange(self.bounds[1]), self.n_seq + self.previous()))


def _pack(n_rows: int, lengths: Sequence[int] | None, reverse: bool) -> _Packing:
    """How the rows of ``lengths`` sequences advance together (all ``n_rows``
    rows as one sequence without ``lengths``); ``reverse`` reads each
    sequence last row to first. The lengths alone choose the layout:
    identity packings, one sequence or ``n_rows`` sequences of one row, are
    read in place, and any other lengths are sorted and gathered."""
    n_seq = 1 if lengths is None else len(lengths)
    if n_seq == 1:
        assert lengths is None or lengths[0] == n_rows, (lengths, n_rows)
        rows = slice(None, None, -1) if reverse else slice(None)
        return _Packing(rows, range(n_rows + 1), slice(None), 1)
    if n_seq == n_rows and set(lengths) == {1}:
        return _Packing(slice(None), [0, n_rows], slice(None), n_seq)
    lens = np.array(lengths, dtype=np.intp)
    assert lens.sum() == n_rows and (lens >= 0).all(), (lens, n_rows)
    order = np.argsort(-lens, kind="stable")
    sorted_lens = lens[order]
    step = np.arange(sorted_lens.max(initial=0))[:, None]
    running = step < sorted_lens
    starts = (np.cumsum(lens) - lens)[order]
    rows = (starts + (sorted_lens - 1 - step if reverse else step))[running]
    bounds = np.concatenate(([0], np.cumsum(running.sum(axis=1))))
    return _Packing(rows, bounds.tolist(), order, n_seq)


@functools.lru_cache(maxsize=None)
def _lstm_gate_affine(hidden: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (1, 4*hidden) ``scale`` and ``shift``, with
    ``tanh(a * scale) * scale + shift`` the LSTM gate activations:
    sigmoid(a) = 0.5 * tanh(a / 2) + 0.5 on the input, forget and output
    gates, plain tanh on the cell input. They are 2-d because numpy
    broadcasts a (1, d) operand over rows faster than a (d,) one."""
    scale = np.full((1, 4 * hidden), 0.5, dtype=dtype)
    scale[:, 2 * hidden : 3 * hidden] = 1.0
    shift = np.full((1, 4 * hidden), 0.5, dtype=dtype)
    shift[:, 2 * hidden : 3 * hidden] = 0.0
    scale.setflags(write=False)
    shift.setflags(write=False)
    return scale, shift


class Tape:
    """Records a computation over `params` for one backward pass.

    Backward closures hold the Vars and arrays they need but never the tape,
    so a finished graph has no reference cycle and is freed as soon as its
    last Var is dropped.
    """

    def __init__(self, params: Parameters):
        self.params = params
        self.dtype = params.dtype
        self.nodes: list[Var] = []
        self._param_vars: dict[str, Var] = {}
        self._lookups: list[tuple[str, np.ndarray, Var]] = []

    def _new(self, value: np.ndarray, back: Callable | None) -> Var:
        var = Var(value, len(self.nodes), back)
        self.nodes.append(var)
        return var

    # ------------------------------------------------------------------ leaves

    def const(self, value) -> Var:
        """A constant input; no gradient flows into it."""
        return self._new(np.asarray(value, dtype=self.dtype), None)

    def param(self, name: str) -> Var:
        """The whole named parameter array (dense gradient)."""
        var = self._param_vars.get(name)
        if var is None:
            var = self._new(self.params[name], None)
            self._param_vars[name] = var
        return var

    def lookup(self, name: str, rows: Sequence[int]) -> Var:
        """Rows of a named table, a (len(rows), d) matrix, with a row-sparse
        gradient."""
        ids = _row_ids("lookup", rows)
        var = self._new(self.params[name][ids], None)
        self._lookups.append((name, ids, var))
        return var

    # -------------------------------------------------------------- arithmetic

    def scale(self, a: Var, k: float) -> Var:
        # numpy 1.x promotes a 0-d float32 loss times a Python float (the
        # trainer's batch mean) to float64; NEP 50 keeps float32
        k = self.dtype.type(k)

        def back(g, grads):
            _acc(grads, a, g * k)

        return self._new(a.value * k, back)

    def affine(self, x: Var, w: Var, b: Var) -> Var:
        """x @ w + b with x (d,) or (T, d), w (d, k), b (k,)."""
        assert w.value.ndim == 2 and x.shape[-1] == w.shape[0] and b.shape == (w.shape[1],)

        def back(g, grads):
            _acc(grads, x, g @ w.value.T)
            _acc_product(grads, w, x.value, g)
            _acc(grads, b, g if g.ndim == 1 else g.sum(axis=0))

        return self._new(x.value @ w.value + b.value, back)

    # ------------------------------------------------------------- activations

    def tanh(self, a: Var) -> Var:
        y = np.tanh(a.value)

        def back(g, grads):
            _acc(grads, a, g * (1.0 - y * y))

        return self._new(y, back)

    # ---------------------------------------------------------- shape and rows

    def concat(self, items: Sequence[Var]) -> Var:
        """Join along the last axis: vectors end to end, (T, d_i) matrices side by side."""
        offsets = list(itertools.accumulate((v.shape[-1] for v in items), initial=0))

        def back(g, grads):
            for v, start, stop in zip(items, offsets, offsets[1:]):
                _acc(grads, v, g[..., start:stop])

        return self._new(np.concatenate([v.value for v in items], axis=-1), back)

    def stack(self, items: Sequence[Var]) -> Var:
        """(d,) vectors as the rows of a (len(items), d) matrix."""

        def back(g, grads):
            for v, row in zip(items, g):
                _acc(grads, v, row)

        return self._new(np.stack([v.value for v in items]), back)

    def gather(self, m: Var, rows: Sequence[int]) -> Var:
        """Rows of a (T, d) matrix, as a (len(rows), d) matrix (repeats allowed)."""
        assert m.value.ndim == 2
        ids = _row_ids("gather", rows)

        def back(g, grads):
            full = np.zeros(m.shape, dtype=g.dtype)
            np.add.at(full, ids, g)
            _acc(grads, m, full)

        return self._new(m.value[ids], back)

    # -------------------------------------------------------------- reductions

    def softmax_cross_entropy(self, logits: Var, targets) -> Var:
        """Summed -log softmax(row)[target], fused for stability: over the rows
        of (T, k) logits with T targets, or over one (k,) vector with one."""
        z = logits.value.reshape(-1, logits.shape[-1])
        target = np.reshape(targets, -1)
        assert len(target) == z.shape[0]
        rows = np.arange(len(target))
        m = z.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
        loss = (lse - z[rows, target]).sum()

        def back(g, grads):
            p = np.exp(z - lse[:, None])
            p[rows, target] -= 1.0
            _acc(grads, logits, (g * p).reshape(logits.shape))

        return self._new(np.asarray(loss, dtype=self.dtype), back)

    def dropout(self, a: Var, mask: np.ndarray) -> Var:
        """Apply a precomputed (already scaled) dropout mask."""
        assert mask.shape == a.shape

        def back(g, grads):
            _acc(grads, a, g * mask)

        return self._new(a.value * mask, back)

    # --------------------------------------------------------------------- CRF

    def crf_nll(
        self,
        emissions: Var,
        trans: Var,
        path: Sequence[int] | None = None,
        lengths: Sequence[int] | None = None,
    ) -> Var:
        """Summed negative log-likelihood of the gold paths of linear-chain
        CRF sequences, or their summed log Z when no path is given.

        ``emissions`` is (L, k); ``lengths`` splits its rows into consecutive
        sequences of at least one row each (all L rows are one sequence
        without it), and ``path`` holds the L gold labels in the same order.
        ``trans`` is (k+2, k+2): row k holds start transitions and column k+1
        stop transitions. The sequences advance together as in :meth:`gru`,
        so each forward step is one (n_s, k) x (k, k) product in exp space
        (:func:`_log_matmul`, exact per entry where terms underflow), and the
        transition block is exponentiated once per call. Backward runs the
        backward algorithm the same way and takes the gradient from the
        marginals. The expected transition counts of every step of every
        sequence are one (k, P) x (P, k) GEMM, each row scaled by its
        sequence's log Z, while the transition block spans less than half the
        dtype's exponent range, so that no factor of a count can overflow or
        underflow unnoticed; wider blocks sum the k x k step marginals one
        step at a time. No per-token k x k scores are kept.
        """
        e = emissions.value
        a = trans.value
        n, k = e.shape
        assert a.shape == (k + 2, k + 2)
        pack = _pack(n, lengths, reverse=False)
        bounds = pack.bounds
        first = bounds[1]  # every sequence's first row is in step 0
        assert n >= 1 and first == pack.n_seq, "every sequence needs a row"
        ends = np.cumsum([n] if lengths is None else lengths)
        last_rows = pack.unpacked(np.arange(n))[ends - 1]  # packed, by sequence
        inner = a[:k, :k]
        col_max = inner.max(axis=0)
        exp_cols = np.exp(inner - col_max)
        e_p = e[pack.rows]  # packed order
        alpha = np.empty_like(e_p)
        alpha[:first] = e_p[:first] + a[k, :k]
        for lo, hi, nxt in zip(bounds, bounds[1:], bounds[2:]):
            alpha[hi:nxt] = _log_matmul(alpha[lo : lo + nxt - hi], inner, exp_cols, col_max)
            alpha[hi:nxt] += e_p[hi:nxt]
        last = alpha[last_rows] + a[:k, k + 1]
        m = last.max(axis=1, keepdims=True)
        log_z = m[:, 0] + np.log(np.exp(last - m).sum(axis=1))  # by sequence
        value = log_z.sum()
        if path is not None:
            p = np.asarray(path, dtype=np.intp)
            assert p.shape == (n,)
            starts = np.concatenate(([0], ends[:-1]))
            inside = np.ones(n - 1, dtype=bool)  # row t and t+1 are in one sequence
            inside[ends[:-1] - 1] = False
            before, after = p[:-1][inside], p[1:][inside]
            value = value - (
                a[k, p[starts]].sum() + e[np.arange(n), p].sum()
                + inner[before, after].sum() + a[p[ends - 1], k + 1].sum()
            )

        def back(g, grads):
            row_max = inner.max(axis=1)
            exp_rows_t = np.exp(inner.T - row_max)
            beta = np.empty_like(alpha)
            beta[last_rows] = a[:k, k + 1]
            for lo, hi, nxt in reversed(list(zip(bounds, bounds[1:], bounds[2:]))):
                beta[lo : lo + nxt - hi] = _log_matmul(
                    e_p[hi:nxt] + beta[hi:nxt], inner.T, exp_rows_t, row_max
                )
            # each packed position's slot in its step is its sequence's place in running order
            slot = np.arange(len(e_p)) - np.repeat(bounds[:-1], np.diff(bounds))
            log_z_at = log_z[pack.order][slot][:, None]
            d_e = np.exp(alpha + beta - log_z_at)
            d_a = np.zeros_like(a)
            d_a[k, :k] = d_e[:first].sum(axis=0)
            d_a[:k, k + 1] = d_e[last_rows].sum(axis=0)
            if len(e_p) > first:
                # sum over steps of exp(alpha[t-1, i] + inner[i, j] + v[t, j] - log_z), v = e + beta
                prev = alpha[pack.previous()]
                nxt = e_p[first:] + beta[first:]
                if np.ptp(inner) < -0.5 * np.log(np.finfo(a.dtype).tiny):
                    # every factor shifted to at most 1; the last is at most exp(ptp(inner))
                    m_prev = prev.max(axis=1, keepdims=True)
                    m_next = nxt.max(axis=1, keepdims=True)
                    shift = m_prev + m_next - log_z_at[first:]
                    top = shift.max()
                    counts = np.exp(prev - m_prev).T @ (np.exp(nxt - m_next) * np.exp(shift - top))
                    d_a[:k, :k] = np.exp(inner + top) * counts
                else:
                    nxt -= log_z_at[first:]
                    for t in range(len(prev)):
                        d_a[:k, :k] += np.exp(prev[t][:, None] + inner + nxt[t])
            d_rows = pack.unpacked(d_e)
            if path is not None:
                d_rows[np.arange(n), p] -= 1.0
                np.add.at(d_a, (k, p[starts]), -1.0)
                np.add.at(d_a, (before, after), -1.0)
                np.add.at(d_a, (p[ends - 1], k + 1), -1.0)
            _acc(grads, emissions, g * d_rows)
            _acc(grads, trans, g * d_a)

        return self._new(np.asarray(value, dtype=self.dtype), back)

    # --------------------------------------------------------------- recurrent

    def lstm(
        self,
        p: Var,
        wh: Var,
        h0: Var | None = None,
        c0: Var | None = None,
        reverse: bool = False,
        lengths: Sequence[int] | None = None,
    ) -> tuple[Var, np.ndarray]:
        """LSTMs over packed sequences; returns their state sequences ``(H, C)``.

        ``p`` (L, 4*hidden) holds the gate pre-activations ``x @ wx + b`` of
        every row, made by one :meth:`affine` ahead of the recurrence, so
        only ``h @ wh`` runs per step. ``lengths`` splits its rows into
        consecutive sequences, whose states start at the rows of ``h0`` and
        ``c0`` (N, hidden), zeros where omitted. ``H`` (L, hidden) holds the
        state after reading each row, in the rows' order, and ``C`` the cell
        states in the same layout, as a plain array that takes no gradient.
        A sequence's final state is the row of ``H`` after its last row is
        read, and a caller gathers it from there; an empty sequence has no
        row. Without ``lengths`` the rows are one sequence, whose initial
        states may be (hidden,) vectors. Gate layout along the 4*hidden axis
        is [input|forget|cell|output]. The sequences advance together as in
        :meth:`gru`, one ``(n_s, hidden) @ wh`` product per step, and
        identity packings are read in place. Backward finds the gate
        pre-activation gradients ``dP``, sends them to ``p`` and adds
        ``dwh = H_prevᵀ·dP``, one GEMM over every row of every sequence, to
        ``wh``'s gradient. With
        ``reverse`` each sequence is read last row to first, so its final
        state is at its first row; row t of ``H`` is still the state after
        reading row t.
        """
        hidden = wh.shape[0]
        assert p.value.ndim == 2
        cell = slice(2 * hidden, 3 * hidden)
        forget = slice(hidden, 2 * hidden)
        out_gate = slice(3 * hidden, 4 * hidden)
        pack = _pack(len(p.value), lengths, reverse)
        bounds, n_seq = pack.bounds, pack.n_seq
        total = bounds[-1]
        proj = p.value[pack.rows]
        dtype = proj.dtype
        scale, shift = _lstm_gate_affine(hidden, dtype)
        hs = np.empty((n_seq + total, hidden), dtype=dtype)  # state buffers, see _Packing
        cs = np.empty((n_seq + total, hidden), dtype=dtype)
        for states, v in ((hs, h0), (cs, c0)):
            states[:n_seq] = 0.0 if v is None else v.value.reshape(n_seq, hidden)[pack.order]
        acts = np.empty((total, 4 * hidden), dtype=dtype)
        tanh_c = np.empty((total, hidden), dtype=dtype)
        w_h = wh.value
        read = 0  # the buffer row where the states the step reads start
        for lo, hi in zip(bounds, bounds[1:]):
            n = hi - lo
            act = np.matmul(hs[read : read + n], w_h, out=acts[lo:hi])
            act += proj[lo:hi]
            act *= scale
            np.tanh(act, out=act)
            act *= scale
            act += shift
            c = np.multiply(act[:, forget], cs[read : read + n], out=cs[n_seq + lo : n_seq + hi])
            c += act[:, :hidden] * act[:, cell]
            squashed = np.tanh(c, out=tanh_c[lo:hi])
            np.multiply(act[:, out_gate], squashed, out=hs[n_seq + lo : n_seq + hi])
            read = n_seq + lo

        def back(g, grads):
            # gradients of the state buffers, in their layout
            d_hs = np.zeros((n_seq + total, hidden), dtype=dtype)
            d_hs[n_seq:] = g[pack.rows]
            d_cs = np.zeros((n_seq + total, hidden), dtype=dtype)
            deriv = acts * (1.0 - acts)
            deriv[:, cell] = 1.0 - acts[:, cell] ** 2
            out_deriv = acts[:, out_gate] * (1.0 - tanh_c * tanh_c)
            d_pre = np.empty((total, 4 * hidden), dtype=dtype)
            w_h_t = w_h.T
            for s in range(len(bounds) - 2, -1, -1):
                lo, hi = bounds[s], bounds[s + 1]
                read = n_seq + bounds[s - 1] if s else 0
                dh, act, dp = d_hs[n_seq + lo : n_seq + hi], acts[lo:hi], d_pre[lo:hi]
                dc = d_cs[n_seq + lo : n_seq + hi] + dh * out_deriv[lo:hi]
                np.multiply(dc, act[:, cell], out=dp[:, :hidden])
                np.multiply(dc, cs[read : read + hi - lo], out=dp[:, forget])
                np.multiply(dc, act[:, :hidden], out=dp[:, cell])
                np.multiply(dh, tanh_c[lo:hi], out=dp[:, out_gate])
                dp *= deriv[lo:hi]
                dc *= act[:, forget]
                d_hs[read : read + hi - lo] += dp @ w_h_t
                d_cs[read : read + hi - lo] += dc
            _acc(grads, p, pack.unpacked(d_pre))
            _acc_product(grads, wh, hs[pack.reads()], d_pre)
            for v, d_states in ((h0, d_hs), (c0, d_cs)):
                if v is not None:
                    d_init = np.empty((n_seq, hidden), dtype=dtype)
                    d_init[pack.order] = d_states[:n_seq]
                    _acc(grads, v, d_init.reshape(v.shape))

        return self._new(pack.unpacked(hs[n_seq:]), back), pack.unpacked(cs[n_seq:])

    def gru(
        self,
        p: Var,
        wh: Var,
        reverse: bool = False,
        lengths: Sequence[int] | None = None,
    ) -> Var:
        """GRUs from a zero state over packed sequences; returns their state sequences.

        ``p`` (L, 3*hidden) holds the input pre-activations ``x @ wx + b``
        of every row, made by one :meth:`affine` ahead of the recurrence.
        ``lengths`` splits its rows into consecutive sequences (all L rows
        are one sequence without it). ``H`` (L, hidden) holds the state
        after reading each row, in the rows' order, and a sequence's final
        state is one of its rows, as in :meth:`lstm`. Gate layout along the
        3*hidden axis is [update|reset|candidate] and h' = z*h + (1-z)*n,
        so a saturated update gate keeps the old state. The sequences
        advance together, longest first, so those still running at step s
        are a prefix and each step is one ``(n_s, hidden) @ wh`` product.
        Backward sends ``dP`` to ``p`` and adds ``wh``'s gradient as one
        GEMM, as in :meth:`lstm`. ``reverse`` reads each sequence last row
        to first. Identity packings are read in place, as in :meth:`lstm`.
        """
        hidden = wh.shape[0]
        assert p.value.ndim == 2
        gates = slice(0, 2 * hidden)
        cand = slice(2 * hidden, 3 * hidden)
        pack = _pack(len(p.value), lengths, reverse)
        bounds, n_seq = pack.bounds, pack.n_seq
        total = bounds[-1]
        proj = p.value[pack.rows]
        dtype = proj.dtype
        hs = np.empty((n_seq + total, hidden), dtype=dtype)  # laid out as in lstm
        hs[:n_seq] = 0.0
        zr = np.empty((total, 2 * hidden), dtype=dtype)  # update | reset gates
        cands = np.empty((total, hidden), dtype=dtype)
        phs = np.empty((total, 3 * hidden), dtype=dtype)  # h @ wh at each position
        w_h = wh.value
        read = 0
        for lo, hi in zip(bounds, bounds[1:]):
            h_old = hs[read : read + hi - lo]
            px = proj[lo:hi]
            ph = np.matmul(h_old, w_h, out=phs[lo:hi])
            gate = zr[lo:hi]
            np.tanh(0.5 * (px[:, gates] + ph[:, gates]), out=gate)
            gate += 1.0
            gate *= 0.5
            np.tanh(px[:, cand] + gate[:, hidden:] * ph[:, cand], out=cands[lo:hi])
            z = gate[:, :hidden]
            h_new = np.multiply(z, h_old, out=hs[n_seq + lo : n_seq + hi])
            h_new += (1.0 - z) * cands[lo:hi]
            read = n_seq + lo

        def back(g, grads):
            h_prev = hs[pack.reads()]
            d_hs = np.zeros((n_seq + total, hidden), dtype=dtype)
            d_hs[n_seq:] = g[pack.rows]
            gate_deriv = zr * (1.0 - zr)
            cand_deriv = (1.0 - zr[:, :hidden]) * (1.0 - cands * cands)
            keep_minus_cand = h_prev - cands
            d_px = np.empty((total, 3 * hidden), dtype=dtype)
            d_ph = np.empty((total, 3 * hidden), dtype=dtype)
            w_h_t = w_h.T
            for s in range(len(bounds) - 2, -1, -1):
                lo, hi = bounds[s], bounds[s + 1]
                dh, dpx, dph = d_hs[n_seq + lo : n_seq + hi], d_px[lo:hi], d_ph[lo:hi]
                np.multiply(dh, cand_deriv[lo:hi], out=dpx[:, cand])
                np.multiply(dpx[:, cand], zr[lo:hi, hidden:], out=dph[:, cand])
                np.multiply(dh, keep_minus_cand[lo:hi], out=dpx[:, :hidden])
                np.multiply(dpx[:, cand], phs[lo:hi, cand], out=dpx[:, hidden : 2 * hidden])
                dpx[:, gates] *= gate_deriv[lo:hi]
                dph[:, gates] = dpx[:, gates]
                if s:  # the zero initial state takes no gradient
                    read = n_seq + bounds[s - 1]
                    d_hs[read : read + hi - lo] += dh * zr[lo:hi, :hidden] + dph @ w_h_t
            _acc(grads, p, pack.unpacked(d_px))
            _acc_product(grads, wh, h_prev, d_ph)

        return self._new(pack.unpacked(hs[n_seq:]), back)

    # ---------------------------------------------------------------- backward

    def backward(self, loss: Var) -> Gradients:
        """Reverse-mode gradients of a scalar loss over this tape."""
        assert loss.value.shape == (), "loss must be a scalar"
        partials: list[np.ndarray | None] = [None] * len(self.nodes)
        partials[loss.idx] = np.asarray(1.0, dtype=self.dtype)
        for var in reversed(self.nodes):
            g = partials[var.idx]
            if var._back is not None and g is not None:
                var._back(g, partials)
        grads = Gradients()
        for name, var in self._param_vars.items():
            g = partials[var.idx]
            if g is not None:
                grads.dense[name] = g
        looked_up: dict[str, tuple[list, list]] = {}
        for name, ids, var in self._lookups:
            g = partials[var.idx]
            if g is not None:
                id_parts, g_parts = looked_up.setdefault(name, ([], []))
                id_parts.append(ids)
                g_parts.append(g)
        for name, (id_parts, g_parts) in looked_up.items():
            ids, inverse = np.unique(np.concatenate(id_parts), return_inverse=True)
            if len(ids):
                values = np.zeros((len(ids), g_parts[0].shape[1]), dtype=g_parts[0].dtype)
                np.add.at(values, inverse, np.concatenate(g_parts))
                grads.rows[name] = RowGradient(ids, values)
        return grads


class ForwardTape(Tape):
    """A :class:`Tape` that records nothing, for inference: every op computes
    its value with the same code, and its Var keeps no backward closure and
    no place on the tape."""

    def _new(self, value: np.ndarray, back: Callable | None) -> Var:
        return Var(value, -1, None)

    def lookup(self, name: str, rows: Sequence[int]) -> Var:
        return self._new(self.params[name][_row_ids("lookup", rows)], None)

    def backward(self, loss: Var) -> Gradients:
        raise TypeError("a ForwardTape records nothing to differentiate")


def dropout_mask(rng: np.random.Generator, shape, rate: float, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout mask of ``shape`` (an int or a tuple): kept entries
    scaled by 1/(1-rate). One (T, d) mask draws the same numbers from ``rng``
    as T masks of size d in a row."""
    if rate <= 0.0:
        return np.ones(shape, dtype=dtype)
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / (1.0 - rate)


# ------------------------------------------------------------- gradient check


@dataclass
class GradCheckReport:
    """Per-parameter max relative error of reverse-mode vs finite differences."""

    max_rel_err: dict[str, float]
    tolerance: float
    epsilon: float = 1e-5

    @property
    def passed(self) -> bool:
        return all(err < self.tolerance for err in self.max_rel_err.values())

    @property
    def failures(self) -> list[str]:
        return sorted(n for n, err in self.max_rel_err.items() if err >= self.tolerance)

    def __str__(self) -> str:
        lines = []
        for name in sorted(self.max_rel_err):
            err = self.max_rel_err[name]
            status = "ok" if err < self.tolerance else "FAIL"
            lines.append(f"{name:<40} {err:12.3e}  {status}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def grad_check(
    loss_fn: Callable[[Tape], Var],
    params: Parameters,
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    ``loss_fn`` must be deterministic (no dropout) and build a scalar loss on
    the tape it is given. The error per parameter is the norm ratio
    ``|g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8)`` with the euclidean norm
    over the parameter's elements, which stays below float64
    finite-difference noise for a correct gradient and reaches order one for
    a broken one.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    tape = Tape(params)
    grads = tape.backward(loss_fn(tape))
    report: dict[str, float] = {}
    for name, arr in params.items():
        ad = grads.materialize(name, arr.shape, params.dtype)
        fd = np.zeros_like(arr)
        flat = arr.reshape(-1)
        fd_flat = fd.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            up = float(loss_fn(Tape(params)).value)
            flat[k] = orig - epsilon
            down = float(loss_fn(Tape(params)).value)
            flat[k] = orig
            fd_flat[k] = (up - down) / (2.0 * epsilon)
        denom = max(float(np.linalg.norm(ad)), float(np.linalg.norm(fd)), 1e-8)
        report[name] = float(np.linalg.norm(ad - fd)) / denom
    return GradCheckReport(report, tolerance, epsilon)
