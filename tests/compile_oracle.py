"""The first compile of a constraint family, kept as a test oracle.

Each family is written out constraint by constraint: a name formatted at
build, a tuple of ``(position, sign)`` terms, a reduction and a target.
The party-factor basis is formed whole, as rows over all positions, and a
reduction's kept basis rows are the ones that the dense product
``coef[zero] @ basis.T`` of its zero-target coefficient rows does not
annihilate.  :mod:`steercert.constraints` compiles the same family from
arrays without forming the basis or the coefficient matrix; the tests
check that both give the same arrays, to the last bit.
"""

import itertools
from collections import namedtuple

import numpy as np

from steercert.constraints import (Reduction, _contraction, _normalized, _party_factor,
                                   _party_major)

Constraint = namedtuple("Constraint", "name terms reduction target",
                        defaults=(Reduction.NONE, None))


def _merge(n, inside, v_in, outside, v_out) -> tuple:
    v = [0] * n
    for i, vi in zip(inside, v_in):
        v[i] = vi
    for i, vi in zip(outside, v_out):
        v[i] = vi
    return tuple(v)


def _ranges(sizes, parties):
    return itertools.product(*(range(sizes[i]) for i in parties))


def _total(scen, x, sign) -> list:
    return [((a, x), sign) for a in scen.outcome_vectors()]


def full_ns(scen) -> list:
    n = scen.n_parties
    constraints = []
    for size in range(1, n):
        for inside in itertools.combinations(range(n), size):
            outside = tuple(i for i in range(n) if i not in inside)
            outs = list(_ranges(scen.settings, outside))
            a_outs = list(_ranges(scen.outcomes, outside))
            for a_in in _ranges(scen.outcomes, inside):
                for x_in in _ranges(scen.settings, inside):
                    summed = []
                    for x_out in outs:
                        x = _merge(n, inside, x_in, outside, x_out)
                        summed.append([(_merge(n, inside, a_in, outside, a_out), x)
                                       for a_out in a_outs])
                    base = [(pos, 1.0) for pos in summed[0]]
                    for x_out, other in zip(outs[1:], summed[1:]):
                        constraints.append(Constraint(
                            f"marginal I={inside} a={a_in} x={x_in}: "
                            f"settings {outs[0]} vs {x_out}",
                            tuple(base + [(pos, -1.0) for pos in other])))
    setting_list = list(scen.setting_vectors())
    for x in setting_list:
        constraints.append(Constraint(f"total trace at x={x}", tuple(_total(scen, x, 1.0)),
                                      Reduction.TRACE, 1.0))
    x0 = setting_list[0]
    for x in setting_list[1:]:
        constraints.append(Constraint(f"total at x={x0} vs x={x}",
                                      tuple(_total(scen, x0, 1.0) + _total(scen, x, -1.0))))
    return constraints


def output_trace_condition(scen) -> Constraint:
    d_in = scen.trusted_dims[1]
    x0 = next(iter(scen.setting_vectors()))
    return Constraint("output trace of total vs maximally mixed input",
                      tuple(_total(scen, x0, 1.0)), Reduction.OUTPUT_TRACE,
                      np.eye(d_in) / d_in)


def asym_ns(scen) -> list:
    (m1, m2), (k1, k2) = scen.settings, scen.outcomes
    constraints = []
    for b in range(k2):
        for y in range(m2):
            for x in range(1, m1):
                constraints.append(Constraint(
                    f"sum over a at b={b} y={y}: x=0 vs x={x}",
                    tuple([(((a, b), (0, y)), 1.0) for a in range(k1)]
                          + [(((a, b), (x, y)), -1.0) for a in range(k1)])))
    for a in range(k1):
        for x in range(m1):
            for y in range(1, m2):
                constraints.append(Constraint(
                    f"traced sum over b at a={a} x={x}: y=0 vs y={y}",
                    tuple([(((a, b), (x, 0)), 1.0) for b in range(k2)]
                          + [(((a, b), (x, y)), -1.0) for b in range(k2)]),
                    Reduction.OUTPUT_TRACE))
    for xy in itertools.product(range(m1), range(m2)):
        if xy != (0, 0):
            constraints.append(Constraint(
                f"total at (0,0) vs {xy}",
                tuple(_total(scen, (0, 0), 1.0) + _total(scen, xy, -1.0))))
    constraints.append(output_trace_condition(scen))
    return constraints


def factor_basis(scen) -> np.ndarray:
    """The Kronecker product of the party factors, as rows over all
    positions in ``scen.positions()`` order."""
    basis = np.ones((1, 1))
    for m, k in zip(scen.settings, scen.outcomes):
        basis = np.kron(basis, _party_factor(m, k))
    return basis[:, _party_major(scen)]


def terms(scen, constraints) -> tuple:
    """``(constraint, position, sign)`` arrays, grouped by reduction in
    first-use order, in constraint order within a group."""
    flat = [(i, pos, sign)
            for reduction in dict.fromkeys(c.reduction for c in constraints)
            for i, c in enumerate(constraints) if c.reduction is reduction
            for pos, sign in c.terms]
    rows, positions, signs = zip(*flat)
    return np.array(rows), scen.indices(positions), np.array(signs)


def certificate(scen, constraints) -> tuple:
    """``(blocks, kernel, hits, kept)``: the blocks ``(reduction, rows,
    targets)`` of the certificate rows, the kernel rows, the places in the
    party-factor basis of each block's rows (``None`` for a targeted block)
    and of the kernel's rows."""
    basis = factor_basis(scen)
    rows, positions, signs = terms(scen, constraints)
    coef = np.zeros((len(constraints), len(basis)))
    np.add.at(coef, (rows, positions), signs)
    blocks, hits, kept = [], [], np.ones(len(basis), dtype=bool)
    for reduction in dict.fromkeys(c.reduction for c in constraints):
        zero = [i for i, c in enumerate(constraints)
                if c.reduction is reduction and c.target is None]
        targeted = [i for i, c in enumerate(constraints)
                    if c.reduction is reduction and c.target is not None]
        if zero:
            hit = np.any(coef[zero] @ basis.T != 0, axis=0)
            blocks.append((reduction, _normalized(basis[hit]), None))
            hits.append(np.flatnonzero(hit))
            if reduction is Reduction.NONE:
                kept = ~hit
        if targeted:
            blocks.append((reduction, coef[targeted],
                           tuple(constraints[i].target for i in targeted)))
            hits.append(None)
    return tuple(blocks), _normalized(basis[kept]), tuple(hits), np.flatnonzero(kept)


def contractions(scen, hits, kept) -> tuple:
    """``(party_major, factors, per_block)`` from the :func:`certificate`'s
    hits and kept rows."""
    factors = [_normalized(_party_factor(m, k))
               for m, k in zip(scen.settings, scen.outcomes)]
    return _party_major(scen), tuple(p.T for p in factors), tuple(
        None if hit is None else _contraction(factors, hit, kept) for hit in hits)


def segments(scen, constraints) -> tuple:
    """Per reduction, in first-use order: ``(reduction, chosen, span, starts,
    targets)``."""
    rows = terms(scen, constraints)[0]
    reductions = [c.reduction for c in constraints]
    counts = np.bincount(rows, minlength=len(constraints))
    out, end = [], 0
    for reduction in dict.fromkeys(reductions):
        chosen = np.flatnonzero([r is reduction for r in reductions])
        start, end = end, end + int(counts[chosen].sum())
        starts = np.cumsum(counts[chosen]) - counts[chosen]
        given = [constraints[i].target for i in chosen]
        targets = None
        if any(t is not None for t in given):
            shape = np.shape(next(t for t in given if t is not None))
            targets = np.array([np.zeros(shape) if t is None else t for t in given])
        out.append((reduction, chosen, slice(start, end), starts, targets))
    return tuple(out)
