"""Top-1 expert routing and its auxiliary losses.

A router maps each frame's concatenated (shared embedding, hidden state)
pair to a softmax over experts; only the argmax expert runs, and its output
is scaled by the winning probability so the routing decision stays on the
gradient path. A layer routes all frames of a packed batch at once (token
dispatch, as in GShard and the Switch Transformer): one ``T.routed_ffn``
node sorts the frames by expert, runs the two matmuls once per used expert
and everything else once over all rows, applies the gates and adds the
result, times the residual factor, to the residual stream. It reads each
of the experts' six parameters as one [E, ...] leaf of views of the arena
(``nn.stacked_parameters``), built once per layer, and adds every
expert's gradient into the arena, an exact zero for an expert without
frames. The sparsity and mean-importance losses below act on the layer's
router distributions over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import FeedForward, Module, Parameter, stacked_parameters, uniform_init


@dataclass
class RoutingRecord:
    """Routing outcome of one routed layer for all frames of a batch.

    ``p`` stays in the computation graph (the batch losses read it);
    ``selected`` and ``gates`` are plain arrays for instrumentation.
    """

    p: object
    selected: np.ndarray

    @property
    def gates(self):
        """Winning probability per frame, read off ``p`` at ``selected``."""
        return self.p.data[np.arange(self.frames), self.selected]

    @property
    def frames(self):
        return self.selected.shape[0]

    def utilization(self, n_experts):
        """Frame count per expert, length n_experts."""
        return np.bincount(self.selected, minlength=n_experts)


class Router(Module):
    """Linear route scores r = W_r . concat(e_c, o_prev), no bias."""

    def __init__(self, d_emb, d_att, n_experts):
        super().__init__()
        self.n_experts = n_experts
        self.weight = Parameter((d_emb + d_att, n_experts), uniform_init(d_emb + d_att))

    def route(self, e_c, o_prev):
        if e_c.data.shape[0] != o_prev.data.shape[0]:
            raise T.ShapeMismatch("route", e_c.data.shape, o_prev.data.shape)
        logits = T.matmul(T.concat_last([e_c, o_prev]), self.weight)
        p = T.softmax_last(logits)
        # np.argmax takes the first maximum, i.e. ties break to lowest index.
        return RoutingRecord(p=p, selected=np.argmax(p.data, axis=-1))


class RoutedFFN(Module):
    """The second macaron FFN slot: dense, or dispatched across experts in
    one ``T.routed_ffn`` node, each used expert with its own parameters and
    dropout streams; an expert without frames gets an exact zero gradient.

    Dense mode (router None) still stores its single FFN under
    ``experts.0`` so parameter names line up exactly with a one-expert
    routed model.
    """

    def __init__(self, d, d_ff, n_experts=1, d_emb=None, dropout=0.0, routed=False):
        super().__init__()
        self.router = Router(d_emb, d, n_experts) if routed else None
        self.experts = [FeedForward(d, d_ff, dropout) for _ in range(n_experts if routed else 1)]
        # [E, ...] views of the experts' parameters; a tuple, not walked
        self._stacked = None

    def forward(self, x, e_c=None, frozen_selected=None, c=1.0):
        """Returns (``x + c * f(x)``, RoutingRecord or None); `c` is the
        residual factor, 0.5 in a macaron block.

        ``frozen_selected`` pins the per-frame expert choice (gates are
        still computed from the live router) so gradient checks can hold the
        discrete decision fixed while probabilities stay differentiable.
        """
        if self.router is None:
            return self.experts[0].forward(x, c), None
        if e_c is None:
            raise ValueError("routed layer requires the shared embedding e_c")
        record = self.router.route(e_c, x)
        if frozen_selected is not None:
            record.selected = np.asarray(frozen_selected, dtype=np.int64)
        if self._stacked is None:  # an expert's parameters are named in T.ffn's order
            self._stacked = tuple(stacked_parameters(group) for group in zip(
                *[e.named_parameters().values() for e in self.experts]))
        counts = record.utilization(len(self.experts))
        used = np.flatnonzero(counts)
        masks = [self.experts[e].operands(counts[e])[6:] for e in used]
        masks = [_dispatch_mask([m[k] for m in masks], counts[used]) for k in (0, 1)]
        return T.routed_ffn(x, c, record.p, record.selected, *self._stacked, *masks), record


def _dispatch_mask(masks, counts):
    """One ``(keep, scale)`` mask over the dispatched rows from the used
    experts' masks, each for its `counts` rows: the keep arrays in expert
    order (all kept for an expert that draws none) and one scale per row
    (1 for such an expert); None when none draws one."""
    if all(m is None for m in masks):
        return None
    width = next(m for m in masks if m is not None)[0].shape[1]
    return (np.concatenate([np.ones((n, width), dtype=bool) if m is None else m[0]
                            for m, n in zip(masks, counts)]),
            np.repeat([1.0 if m is None else m[1] for m in masks], counts)[:, None])


def sparsity_loss(P):
    """Mean over frames of the L1 norm of the L2-unit-normalized rows.

    One-hot rows give the minimum 1; uniform rows give the maximum sqrt(n).
    """
    if P.data.shape[0] == 0:
        raise ValueError("sparsity loss needs at least one frame")
    row_l1 = T.reduce_sum(P, axis=1)
    row_l2 = T.power(T.reduce_sum(T.mul(P, P), axis=1), 0.5)
    return T.reduce_mean(T.mul(row_l1, T.power(row_l2, -1.0)))


def mean_importance_loss(P, n_experts):
    """n times the sum of squared per-expert mean probabilities.

    Uniform column means give the minimum 1; total collapse onto one expert
    gives the maximum n.
    """
    if P.data.shape[0] == 0:
        raise ValueError("mean importance loss needs at least one frame")
    m = T.reduce_mean(P, axis=0)
    return T.scale(T.reduce_sum(T.mul(m, m)), float(n_experts))


def moe_loss(L_s, L_m, L_e, alpha, beta, gamma):
    """Weighted auxiliary objective: alpha*L_s + beta*L_m + gamma*L_e.

    Terms may be graph tensors or plain floats; a zero-weighted term may be
    passed as None and contributes nothing.
    """
    total = T.Tensor(0.0)
    for weight, term in ((alpha, L_s), (beta, L_m), (gamma, L_e)):
        if term is None:
            if weight != 0.0:
                raise ValueError("a weighted loss term is missing")
            continue
        term = term if isinstance(term, T.Tensor) else T.Tensor(float(term))
        total = T.add(total, T.scale(term, weight))
    return total


def utilization_entropy(counts):
    """Shannon entropy (nats) of an expert-utilization histogram."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    q = counts[counts > 0] / total
    return float(-(q * np.log(q)).sum())
