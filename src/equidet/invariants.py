"""The invariant suite shared by ``selfcheck`` and ``verify-relations``.

Each check is a predicate ``check(rng, r, d)`` on one seeded random input;
``run_property`` runs it over many.  Only those two commands load this module
(and with it ``witnesses`` and ``equilibrium``), so a one-shot ``det`` never
compiles it.
"""

from __future__ import annotations

import random
from itertools import combinations

# called through their modules: this module is imported after the other layers, so a module
# attribute rebound before then (the benchmark's tracer wraps them) is seen, and so is its undoing
from . import combinat, detmap, equilibrium, witnesses


def _vanishing(rng, r, d) -> bool:
    cfg = witnesses.random_configuration(r, d, 5, rng)
    clique = sorted(rng.sample(range(1, r * d + 1), r + 1))
    shared = tuple(rng.randint(-5, 5) for _ in range(d))
    for sub in combinations(clique, r):
        cfg = cfg.with_slot(sub, shared)
    return detmap.det_sr(cfg) == 0


def _relations(rng, r, d) -> bool:
    q = r * d
    cfg = witnesses.random_configuration(r, d, 5, rng)
    if not detmap.check_dependence_relations(cfg, witnesses.random_coefficients(r, q, 5, rng)):
        return False
    forces = witnesses.random_force_system(r, d, q, 5, rng)
    lam = witnesses.random_coefficients(r, q, 5, rng)
    return detmap.check_dependence_relations(forces, lam) and equilibrium.row_dependence_holds(forces)


def _multilinearity(rng, r, d) -> bool:
    cfg = witnesses.random_configuration(r, d, 5, rng)
    slot = rng.choice(combinat.subsets_colex(r * d, r))
    u = tuple(rng.randint(-5, 5) for _ in range(d))
    w = tuple(rng.randint(-5, 5) for _ in range(d))
    alpha, beta = rng.randint(-4, 4), rng.randint(-4, 4)
    mixed = tuple(alpha * a + beta * b for a, b in zip(u, w))
    lhs = detmap.det_sr(cfg.with_slot(slot, mixed))
    rhs = alpha * detmap.det_sr(cfg.with_slot(slot, u)) + beta * detmap.det_sr(cfg.with_slot(slot, w))
    return lhs == rhs


def _scaling(rng, r, d) -> bool:
    cfg = witnesses.random_configuration(r, d, 5, rng)
    slot = rng.choice(combinat.subsets_colex(r * d, r))
    c = rng.choice((-3, -2, 2, 3, 5))
    scaled = cfg.with_slot(slot, tuple(c * x for x in cfg.get(slot)))
    return detmap.det_sr(scaled) == c * detmap.det_sr(cfg)


def _consistency(rng, r, d) -> bool:
    report = equilibrium.theorem_consistency(witnesses.random_force_system(r, d, r * d, 5, rng))
    return report.consistent and report.reduced_matches_full


def run_property(check, r: int, d: int, seed: int, trials: int) -> bool:
    """One invariant predicate ``check(rng, r, d)``, checked on ``trials``
    seeded random inputs."""
    if min(r, d, trials) < 1:
        raise ValueError(f"need r >= 1, d >= 1 and trials >= 1, got r={r}, d={d}, trials={trials}")
    rng = random.Random(seed)
    return all(check(rng, r, d) for _ in range(trials))


_SELFCHECK = (
    ("vanishing (r=2, d=2)", _vanishing, 2, 2),
    ("vanishing (r=3, d=2)", _vanishing, 3, 2),
    ("dependence relations (r=2, d=2)", _relations, 2, 2),
    ("dependence relations (r=3, d=2)", _relations, 3, 2),
    ("multilinearity (r=2, d=2)", _multilinearity, 2, 2),
    ("slot scaling (r=2, d=2)", _scaling, 2, 2),
    ("theorem consistency (r=2, d=2)", _consistency, 2, 2),
    ("theorem consistency (r=3, d=2)", _consistency, 3, 2),
)
