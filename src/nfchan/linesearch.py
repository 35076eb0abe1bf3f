"""Line searches of the off-grid polish.

The polish (:func:`~nfchan.estimation._cyclic_polish`) moves one
coordinate of one path at a time, each by a safeguarded Newton ascent
(:func:`newton_ascent`) on the energy the path's atom captures from its
peeled data as that coordinate moves:

    s(x) = sum_k |c_k(x)|^2 / (M N F),   c_k = <atom_k(x), peeled_k>,

summed over a problem's placements k.  The ascent reads ``s``, ``s'``
and ``s''``.  Every factor of the first-order atom is ``exp(-2j pi f
tau)``, so moving a coordinate multiplies each element pair's conjugated
atom by ``exp(2j pi f dtau)``, ``dtau`` the pair's delay offset from
where the path started, and ``c' = sum 2j pi f tau' conj(atom) peeled``,
``c'' = sum (2j pi f tau'' + (2j pi f tau')^2) conj(atom) peeled``.  An
angle moves a receive delay ``tau_r = -u(x).d / c`` or a transmit delay
``tau_t``, with ``tau' = -u'(x).d / c`` and ``tau'' = -tau``; the delay
coordinate has ``tau' = 1`` and ``tau'' = 0``.

Angles (:class:`AngleLines`).  When a path's turn comes, ``y =
conj(atom) peeled`` is formed once per element row (placement, receive
element, transmit element), with ``u`` each tone's offset from the comb
centre ``f_c`` over the half-span ``f_h``, so ``f = f_c + f_h u`` and
``|u| <= 1``.  Then

    sum_f exp(2j pi f dtau) u^q y_f
        = exp(2j pi f_c dtau) sum_p (2j pi f_h dtau)^p / p! M_{p+q},

with tone moments ``M_p = sum_f u^p y_f``, all of them one GEMM over
the element rows of ``y``, and ``M_{p+1}``, ``M_{p+2}`` give the f- and
f^2-weighted sums.  Each aoa or aod evaluation then costs a few small
array operations per element row, with no phasor block and no tone
product.  ``dtau`` is the receive plus transmit offset, so the aod
search sees the aoa its pass has already moved.  The series has ``n``
terms, the fewest whose remainder ``(2 pi f_h dtau_max)^n / n!`` is at
most ``2**-60`` (:func:`series_length`), ``dtau_max`` bounding ``|u(x) -
u(x0)| |d| / c`` over both angle windows and the largest element
displacement: 11-14 terms in the sweep's polish, 9-11 in the
refinement, 7-8 in the subset polish on the presets.

The terms grow before they cancel, so one series over a wide reach
``2 pi f_h dtau_max`` loses digits: against the direct sum it leaves
none at a reach near 170 (a 16 m track at 4 GHz bandwidth with 0.5 rad
windows).  A reach above 2 splits the comb into the fewest blocks of
equal length whose reach is at most 2, each with its own centre and
its own moments, and the blocks' sums are added; the rounding then
stays near that of the direct sum for any window.  Where the blocks'
terms would outnumber the tones, each tone is its own block and the
one term left is its phasor.  The presets' reaches stay below 0.3, so
they run one block.

Delay (:func:`delay_line`).  A delay window of one to three half-bins
turns the band by up to 4.7 rad, where the series would need 37
terms and cancel, while its moving factor is one phasor per problem;
the delay keeps a direct score: the peeled data contracted with the
fixed receive and transmit factors once, and each evaluation one
phasor row times that contraction and its first two tone moments.
"""

import math

import numpy as np

from .channel import SPEED_OF_LIGHT, comb_phasors

# An ascent stops once a step would move less than this fraction of its
# window, or after this many steps.
NEWTON_TOL = 1e-7
NEWTON_MAX_STEPS = 30
# An angle and the angle whose unit vector is its derivative.
_QUARTER_TURN = np.array([0.0, np.pi / 2])
# Logarithm of the largest first dropped term of a phasor series.
_LOG_SERIES_TOL = -60.0 * math.log(2.0)
# Largest reach of one tone block's series; a wider reach splits the
# comb into blocks, each about its own centre.
_BLOCK_REACH = 2.0


def series_length(reach):
    """Fewest terms ``n`` of ``exp(z) = sum z^p / p!`` whose remainder
    bound ``reach^n / n!`` is at most ``2**-60``, for ``|z| <= reach``;
    1 when ``reach`` is 0.  The bound is followed by its logarithm, which
    stays finite where ``reach^n / n!`` itself would overflow."""
    if reach <= 0.0:
        return 1
    n, log_term = 1, math.log(reach)
    while log_term > _LOG_SERIES_TOL:
        n += 1
        log_term += math.log(reach / n)
    return n


class AngleLines:
    """Aoa and aod line scores of the paths of a polish batch from tone
    moments, one expansion per path update.

    Built once per polish call from its
    :class:`~nfchan.estimation._PolishBatch` ``batch``, tone comb
    ``comb`` and angle windows ``steps[:2]``, which fix the tone blocks
    (``blocks`` of them) and the series length ``terms``.
    :meth:`expand` takes one path's atom, peeled data and angles;
    :meth:`score` then gives the line score of either angle.
    """

    def __init__(self, batch, comb, steps):
        self._batch = batch
        f = comb.n
        disp = [np.sqrt((d * d).sum(-1)).max() for d in (batch.rx, batch.tx)]
        # the most the band turns an element pair's phase per Hz of
        # half-span: an angle window w moves a unit vector by at most
        # min(w, 2)
        turn = 2.0 * np.pi / SPEED_OF_LIGHT * sum(
            min(max(w, 0.0), 2.0) * d for w, d in zip(steps, disp))
        reach = turn * (f - 1) / 2 * comb.spacing
        # tones per block: as many as keep a block's reach within
        # _BLOCK_REACH, or one where the blocks' terms would outnumber
        # the tones
        size = -(-f // min(f, max(1, math.ceil(reach / _BLOCK_REACH))))
        n = series_length(turn * (size - 1) / 2 * comb.spacing)
        if -(-f // size) * n > f:
            size, n = 1, 1
        half = (size - 1) / 2
        self.terms, self.blocks = n, -(-f // size)
        # per block: its tones, (L, n + 2) powers u^p, complex for one
        # zgemm against y, and its centre f_c
        self._powers, centres = [], []
        for lo in range(0, f, size):
            mid = (min(f - lo, size) - 1) / 2
            u = (np.arange(min(f - lo, size)) / half - mid / half if size > 1
                 else np.zeros(1))
            self._powers.append((slice(lo, lo + size),
                                 np.vander(u, n + 2, increasing=True).astype(complex)))
            centres.append(comb.start + (lo + mid) * comb.spacing)
        self._fc = np.array(centres).reshape(-1, 1, 1)
        self._fh = half * comb.spacing
        # (B, 1, 1, 1, 1): 2j pi f_c of each block, per unit of delay
        self._carriers = 2j * np.pi * self._fc.reshape(-1, 1, 1, 1, 1)
        # (n - 1, 1, 1, 1, 1): the ratios 2j pi f_h / p of successive
        # series terms, per unit of delay
        self._ratios = (2j * np.pi * self._fh / np.arange(1, n)
                        ).reshape(-1, 1, 1, 1, 1)

    def expand(self, atom, peeled, angles, out):
        """Moments of ``y = conj(atom) peeled`` for one path whose
        stacked atom is ``atom`` and whose angles are the (S, 2)
        ``angles``; ``y`` is written into ``out``, an array of the data's
        shape that is not read after."""
        batch, n, y = self._batch, self.terms, out
        np.conjugate(atom, out=y)
        np.multiply(y, peeled, out=y)
        rows = y.reshape(-1, y.shape[-1])
        m = np.empty((len(rows), self.blocks, n + 2), dtype=complex)
        for b, (tones, powers) in enumerate(self._powers):
            np.matmul(rows[:, tones], powers, out=m[:, b])
        m = m.transpose(1, 2, 0)  # (B, n + 2, S k M N)
        fc, fh = self._fc, self._fh
        # sum_f f^q u^p y_f for q = 0, 1, 2, per block
        mw = np.stack([m[:, :n], fc * m[:, :n] + fh * m[:, 1:n + 1],
                       fc * fc * m[:, :n] + 2.0 * fc * fh * m[:, 1:n + 1]
                       + fh * fh * m[:, 2:]])
        self._mw = mw.reshape((3, self.blocks * n, batch.size, -1) + y.shape[1:3])
        self._start = [batch.delay(c, angles[:, c, None], range(batch.size))[:, 0]
                       for c in range(2)]

    def score(self, coord, angles):
        """Line score ``score(x, idx)`` of the aoa (``coord`` 0) or aod
        (1) of the path last expanded, the other angle at ``angles[:, 1
        - coord]``: for problems ``idx`` at values ``x`` (n,), the
        arrays ``(s, s', s'')``."""
        batch, n, size = self._batch, self.terms, self._batch.size
        other = 1 - coord
        shift = (batch.delay(other, angles[:, other, None], range(size))[:, 0]
                 - self._start[other])
        # the other angle's offset as (S, k, M, 1) or (S, 1, 1, N)
        shift = shift[:, None, None] if coord == 0 else shift[..., None]
        # contract the series and the elements the weights do not
        # depend on: (3, n, k, M) for the aoa, (3, n, k, N) for the aod
        sums = "pnkmr,qpnkmr->qnkm" if coord == 0 else "pnkmr,qpnkmr->qnkr"
        mnf = batch.y[0].size

        def evaluate(x, idx):
            full = len(idx) == size
            both = batch.delay(coord, x[:, None] + _QUARTER_TURN, idx)
            tau, dtau = both[:, 0], both[:, 1]
            move = tau - self._start[coord][idx]
            move = move[..., None] if coord == 0 else move[:, None, None]
            d = move + (shift if full else shift[idx])  # (n, k, M, N)
            # w[b, p] = exp(2j pi f_c,b d) (2j pi f_h d)^p / p!
            w = np.empty((self.blocks * n,) + d.shape, dtype=complex)
            wb = w.reshape((self.blocks, n) + d.shape)
            np.exp(d * self._carriers, out=wb[:, 0])
            np.multiply(d, self._ratios, out=wb[:, 1:])
            np.cumprod(wb, axis=1, out=wb)
            g = np.einsum(sums, w, self._mw if full else self._mw[:, :, idx])
            if coord == 1:
                tau, dtau = tau[:, None], dtau[:, None]
            d1 = 2j * np.pi * dtau
            c = np.empty((3,) + g.shape[1:3], dtype=complex)
            g[0].sum(axis=-1, out=c[0])
            np.sum(d1 * g[1], axis=-1, out=c[1])
            np.sum(d1 * d1 * g[2] - 2j * np.pi * tau * g[1], axis=-1, out=c[2])
            return _scores(c, mnf)

        return evaluate


def delay_line(batch, comb, factors, peeled):
    """Delay line score of a path whose conjugated stacked factors are
    ``factors = [r, t, e]`` (``e`` is not read), against ``peeled``:
    ``score(x, idx)`` gives the arrays ``(s, s', s'')`` of problems
    ``idx`` at delays ``x`` (n,)."""
    m, n, f = peeled.shape[1:]
    r, t, _ = factors
    s = batch.size
    h = np.einsum("snf,sknf->skf", t,
                  np.einsum("kmf,kmnf->knf", r, peeled).reshape(s, -1, n, f))
    # (F, 3): 1, 2j pi f and (2j pi f)^2, the weights of c, c' and c''
    w = 2j * np.pi * comb.tones()
    weights = np.stack([np.ones(f), w, w * w], axis=1)

    def evaluate(x, idx):
        hx = h if len(idx) == s else h[idx]
        c = (comb_phasors(-x[:, None], -2j * np.pi, comb) * hx) @ weights
        return _scores(np.moveaxis(c, -1, 0).copy(), m * n * f)

    return evaluate


def _scores(c, mnf):
    """``(s, s', s'')`` of the (3, n, k) correlations ``c`` and their
    first two derivatives: ``s = sum_k |c_k|^2 / mnf``, ``s' = 2 Re
    sum_k conj(c_k) c'_k / mnf`` and ``s'' = 2 sum_k (|c'_k|^2 + Re
    conj(c_k) c''_k) / mnf``, all from one product of their float
    views."""
    v = c.view(float)
    p = np.einsum("ank,bnk->abn", v, v)
    return p[0, 0] / mnf, p[0, 1] * (2.0 / mnf), (p[1, 1] + p[0, 2]) * (2.0 / mnf)


def newton_ascent(score, center, step):
    """Safeguarded Newton ascents of independent problems in lockstep,
    each of its ``score`` inside its ``center +- step``.

    ``score(x, idx)`` gives the arrays ``(s, s', s'')`` of the problems
    listed in ``idx`` at the points ``x``; ``center`` is the (S,)
    starting points and ``step`` one window half-width or one per
    problem.  The control runs per problem on Python floats, and only
    the scoring is batched: numpy calls on one to three problems cost
    more than the float arithmetic they replace.  Each problem on its
    own: from its current point, a Newton step on ``(s, s', s'')`` when
    ``s'' < 0``, else a step to its window's edge in the direction of
    ``s'``; the target is clamped to the window and the step halved
    until the score is not worse.  Starting at ``center`` and moving
    only uphill, it never returns a point scoring below ``center``.  A
    problem stops once its step would move less than ``NEWTON_TOL *
    step`` and is scored no further, so each returns exactly what it
    would alone.  Returns the (S,) end points.
    """
    x = np.array(center, dtype=float).tolist()
    step = np.full(len(x), step).tolist()
    lo = [c - w for c, w in zip(x, step)]
    hi = [c + w for c, w in zip(x, step)]
    tol = [NEWTON_TOL * w for w in step]

    def scored(idx, at):
        """Per-problem triples (s, s', s'') at points ``at``."""
        return zip(*(v.tolist() for v in score(np.array(at), idx)))

    live = list(range(len(x)))
    state = list(scored(live, x))
    dx = [0.0] * len(x)
    for _ in range(NEWTON_MAX_STEPS):
        for i in live:
            _, d1, d2 = state[i]
            target = x[i] - d1 / d2 if d2 < 0 else (hi[i] if d1 > 0 else lo[i])
            dx[i] = min(max(target, lo[i]), hi[i]) - x[i]
        search = [i for i in live if abs(dx[i]) > tol[i]]
        while search:
            trials = scored(search, [x[i] + dx[i] for i in search])
            halved = []
            for i, trial in zip(search, trials):
                if trial[0] >= state[i][0]:
                    x[i] += dx[i]
                    state[i] = trial
                else:
                    dx[i] /= 2.0
                    if abs(dx[i]) > tol[i]:
                        halved.append(i)
            search = halved
        live = [i for i in live if abs(dx[i]) > tol[i]]
        if not live:
            break
    return np.array(x)
