"""Upper bounds on the sweep's row scores from tone-block moments.

The sweep (:class:`~nfchan.estimation.ScoreEngine`) prunes its (aoa,
aod) rows by branch and bound, and this module gives every row's bound.
Every delay factor has unit modulus, so by Cauchy-Schwarz over tones a
row's scores are at most ``sum_{k,f} |t|^2 / (M N)``, with ``t = sum_e
exp(2j pi f T_e) x_e`` the residual contracted with the row's filters at
one placement k and tone f: ``e = (m, n)`` runs over the ``E = M N``
element pairs, ``x_e`` is their residual and ``T_e = tau_r[a,k,m] +
tau_t[b,n]``.  Over ordered pairs,

    |t|^2 = sum_{e,e'} exp(2j pi f dtau) x_e conj(x_e'),

where ``dtau = T_e - T_e' = dr + dt`` is a receive difference ``dr =
tau_r[a,k,m] - tau_r[a,k,m']`` plus a transmit difference ``dt =
tau_t[b,n] - tau_t[b,n']``, at most the two apertures over ``c``: a
fraction of a delay bin, so these phasors turn slowly over the tones.
The tones are cut into ``G`` equal blocks of ``Lb`` (zero-padded to ``G
Lb``).  About a block's centre ``f_g``, with offset ``o = f - f_g``,

    exp(2j pi f dtau) = Phi_g (1 + 2j pi o dtau + rho),
    Phi_g = exp(2j pi f_g dtau),  |rho| <= 2 pi^2 o^2 dtau^2,

so a block's sum is ``Phi_g (S0 + 2j pi dtau S1)``, with moments ``S0 =
sum x_e conj(x_e')`` and ``S1 = sum o x_e conj(x_e')`` over the block,
plus a remainder of modulus at most ``2 pi^2 dtau^2 sum o^2 |x_e| |x_e'|
<= pi^2 dtau^2 (Q_e + Q_e')``, where ``Q_e = sum o^2 |x_e|^2``.  Taking
every remainder at its largest gives the bound times ``M N``:

    sum_{k,g,e,e'} Re[Phi_g (S0 + 2j pi dtau S1)]
        + 2 pi^2 sum_{k,e,e'} dtau^2 Q_e,

with ``Q_e`` summed over all tones.  The pairs ``e = e'`` give the
residual's energy, and the bound exceeds the Cauchy-Schwarz one by at
most twice its last term.  The moments of every placement and block are
two batched (E, Lb) @ (Lb, E) matmuls.  ``Phi_g`` and ``dtau`` split
into a receive factor of (a, k, m, m') and a transmit factor of (b, n,
n'), so one batched matmul per block contracts the moments with the
receive side over placements and receive pairs, and one real GEMM over
blocks and transmit pairs gives every (A, B) bound.  The last term
splits through ``dtau^2 = dr^2 + 2 dr dt + dt^2`` in the same way.
Nothing runs per tone and row, nor per arrival angle.

``G`` is the fewest blocks for which ``pi (Lb - 1) df max|dtau|``, the
largest phase a phasor turns away from its block's centre, stays within
0.1 rad: 4 on room-20x10 and track-experiment at 512 tones, and 8 on
room-20x10-fs1ghz, whose tones lie twice as far apart.  The remainder
keeps the bound valid at any ``G``; the rule keeps it tight, within a
few parts in 10^4 of the largest bound on the presets' coarse sweeps.

Rounding: a bound sums ``Lb`` products per moment, then ``2 K M^2`` in
the receive contraction and ``4 G N^2`` in the GEMM, and the moduli of
its terms add up to about ``E`` times the residual's energy.  A bound
far below that energy therefore carries rounding of the energy's size,
not of its own, which :attr:`RowBounds.margin` covers.
"""

import numpy as np


class RowBounds:
    """Bounds on the scores of every (aoa, aod) row of a sweep dictionary.

    Built from the rows' receive (A, K, M) and transmit (B, N) delay
    offsets ``tau_r`` and ``tau_t`` and the :class:`~nfchan.channel.ToneComb`
    ``comb``; calling it on a (K, M, N, F) residual gives the (A, B)
    bounds.  It holds the pair phasors at the block centres, (A, K, M, M)
    and (B, N, N) numbers per block, not per tone.  ``blocks`` is ``(G,
    Lb)``.  ``margin`` is the bounds' absolute rounding per unit of
    residual energy, ``2 (n + 4 phi) eps``: ``n`` counts the products
    along a bound's sums, and ``phi`` is the largest phase of a receive
    or transmit phasor, which the filters and the bound each round to a
    few ``eps phi``.
    """

    def __init__(self, tau_r, tau_t, comb):
        f = comb.n
        a, k, m = tau_r.shape
        b, n = tau_t.shape
        dr = tau_r[..., :, None] - tau_r[..., None, :]  # (A, K, M, M)
        dt = tau_t[..., :, None] - tau_t[..., None, :]  # (B, N, N)
        turn = np.pi * comb.spacing * (np.abs(dr).max() + np.abs(dt).max())
        longest = f if turn * (f - 1) <= 0.1 else 1 + int(0.1 / turn)
        g = -(-f // longest)
        lb = -(-f // g)
        self.blocks = (g, lb)
        half = (lb - 1) / 2
        self._offsets = (np.arange(lb) - half) * comb.spacing
        centres = comb.start + (np.arange(g) * lb + half) * comb.spacing
        # Receive side (G, A, 2 K M M): exp(2j pi f_g dr), then the same
        # times 2j pi dr.
        ph = np.exp(2j * np.pi * centres[:, None, None, None, None] * dr)
        self._rx = np.concatenate([ph, 2j * np.pi * dr * ph],
                                  axis=2).reshape(g, a, -1)
        # Transmit side (B, 2 G 2 N N), conjugated float view: per block
        # exp(2j pi f_g dt), then the same times 2j pi dt.
        ph = np.exp(2j * np.pi * centres[:, None, None] * dt[:, None])
        ph = np.concatenate([ph, 2j * np.pi * dt[:, None] * ph], axis=2)
        self._tx = np.conjugate(ph).reshape(b, -1).view(float)
        # The remainder 2 pi^2 sum dtau^2 Q_e over ordered pairs, with
        # dtau^2 = dr^2 + 2 dr dt + dt^2 summed over m' and n'.
        w = 2.0 * np.pi ** 2
        self._rem = (n * w * (dr ** 2).sum(-1).reshape(a, -1),
                     2.0 * w * dr.sum(-1).reshape(a, -1),
                     dt.sum(-1), m * w * (dt ** 2).sum(-1))
        phase = 2.0 * np.pi * (comb.start + (f - 1) * comb.spacing) * (
            np.abs(tau_r).max() + np.abs(tau_t).max())
        terms = lb + 2 * k * m * m + 4 * g * n * n
        self.margin = 2.0 * (terms + 4.0 * phase) * np.finfo(float).eps

    def __call__(self, residual):
        """(A, B) upper bounds on every score of each (aoa, aod) row."""
        k, m, n, f = residual.shape
        g, lb = self.blocks
        kmm, nn = k * m * m, n * n
        x = residual.reshape(k, m * n, f)
        if g * lb > f:
            x = np.concatenate([x, np.zeros((k, m * n, g * lb - f))], axis=2)
        y = x.reshape(k, m * n, g, lb).transpose(0, 2, 1, 3)  # (K, G, E, Lb)
        # yh holds conj(x), then o conj(x): S0, S1 and Q_e = sum |o x_e|^2.
        yh = y.conj()
        s0 = y @ yh.swapaxes(2, 3)
        yh *= self._offsets
        s1 = y @ yh.swapaxes(2, 3)
        v = yh.view(float)
        q = np.einsum("kgex,kgex->ke", v, v).reshape(k, m, n)
        # The moments as (G, K M M', N N'), stacked [[S0, S1], [S1, 0]]
        # against the receive side's [phasors, phasors times 2j pi dr].
        s0, s1 = np.stack([s0, s1]).reshape(2, k, g, m, n, m, n).transpose(
            0, 2, 1, 3, 5, 4, 6).reshape(2, g, kmm, nn)
        s = np.block([[s0, s1], [s1, np.zeros_like(s1)]])
        u = np.ascontiguousarray((self._rx @ s).transpose(1, 0, 2))
        out = u.reshape(len(u), -1).view(float) @ self._tx.T
        r2, r1, t1, t2 = self._rem
        out += (r2 @ q.sum(axis=2).ravel())[:, None]
        out += (r1 @ q.reshape(k * m, n)) @ t1.T
        out += t2 @ q.sum(axis=(0, 1))
        return out / (m * n)
