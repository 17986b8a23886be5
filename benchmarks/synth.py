"""Seeded synthetic structures of any chart dimension m >= 2.

The clock form, observer, frame, Gram matrix and the full data triple
(gravity, every Coriolis entry, every spatial torsion entry) all depend on
position.  Validity is exact by construction, not sampled: only the time
component of the clock form is nonzero, so frame fields with no time
component lie in its kernel and the observer's time component 1/O_0 makes
O(z) = 1.  The perturbations are small enough that the frame stays near the
coordinate frame and the Gram matrix stays diagonally dominant in the box.

The seed picks only coefficient values, never which coordinates a term
uses, and every coefficient is bounded away from 0 so that no term folds
away.  Expression trees, and with them the cost of evaluating the
connection, are the same for every seed.
"""

from __future__ import annotations

import itertools

import numpy as np

from newcart.scenario import load_scenario_text


class _Terms:
    """Small position-dependent terms c*u*v; (u, v) cycle over fixed pairs.

    The cycle starts at (t, x1), so the clock form depends on space and is
    not closed: the connection then needs torsion.
    """

    def __init__(self, rng, names):
        self._rng = rng
        pairs = list(itertools.combinations_with_replacement(names, 2))
        self._pairs = itertools.cycle(pairs[1:] + pairs[:1])

    def coeff(self, scale):
        return float(self._rng.choice([-1.0, 1.0]) * self._rng.uniform(0.5 * scale, scale))

    def __call__(self, scale):
        u, v = next(self._pairs)
        return f"{self.coeff(scale):.3f}*{u}*{v}"


def synthetic_text(m, seed):
    """Scenario file text of the synthetic structure (m, seed)."""
    if m < 2:
        raise ValueError("chart dimension must be at least 2")
    n = m - 1
    names = ["t"] + [f"x{i}" for i in range(1, m)]
    term = _Terms(np.random.default_rng([m, seed]), names)

    clock = f"1 + {term(0.1)}"
    z = [f"1/({clock})"] + [term(0.1) for _ in range(n)]
    # E_a = (1 + f_a) d_a, and E_1 also leans on d_2: the frame is not
    # orthogonal, yet sparse enough that the adapted basis stays cheap to invert
    frame = []
    for a in range(n):
        comps = ["0"] * m
        comps[1 + a] = f"1 + {term(0.1)}"
        frame.append(comps)
    if n > 1:
        frame[0][2] = term(0.1)

    lines = ["[spacetime]", f"dim = {m}", "coords = " + ", ".join(names),
             f"name = synthetic_m{m}_s{seed}",
             "description = seeded synthetic structure, position-dependent throughout",
             "[omega]", "O = " + ", ".join([clock] + ["0"] * n),
             "[observer]", "z = " + ", ".join(z),
             "[frame]"]
    lines += [f"E{a + 1} = " + ", ".join(comps) for a, comps in enumerate(frame)]
    lines.append("[metric]")
    for a in range(n):
        for b in range(a, n):
            entry = f"1 + {term(0.05)}" if a == b else f"{term.coeff(0.05):.3f}"
            lines.append(f"h{a + 1}{b + 1} = {entry}")
    lines += ["[gravity]",
              "G = " + ", ".join(f"{term.coeff(1.0):.3f} + {term(0.3)}" for _ in range(n)),
              "[coriolis]"]
    lines += [f"w{a + 1}{b + 1} = {term(0.3)}" for a in range(n) for b in range(a + 1, n)]
    lines.append("[theta]")
    lines += [f"T{a + 1}_{i}{j} = {term(0.2)}"
              for a in range(n) for i in range(m) for j in range(i + 1, m)]
    lines += ["[domain]", "box = " + ", ".join(["0 1"] + ["-1 1"] * n),
              "samples = 12", f"seed = {seed}"]
    return "\n".join(lines) + "\n"


def synthetic_scenario(m, seed):
    """The synthetic structure (m, seed), parsed as a scenario."""
    return load_scenario_text(synthetic_text(m, seed), name=f"synthetic_m{m}")
