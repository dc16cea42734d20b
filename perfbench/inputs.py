"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain text or numpy
arrays; the program under test only ever sees these generated inputs.
"""

from __future__ import annotations

import numpy as np

TERMS = ("ITD", "ED", "MD", "ALBD", "NAAD")

# paper-sized survey: three stakeholder groups, answers centred per term
PAPER_GROUPS = (("Patient", "P"), ("Physiotherapist", "F"), ("Surgeon", "S"))
PAPER_PARTICIPANTS = 40
PAPER_POOL = 20
TERM_CENTRES = {"ITD": 8.5, "ED": 7.0, "MD": 5.0, "ALBD": 3.0, "NAAD": 1.5}

# ROADMAP-sized panel survey: 20 groups x 500 participants x 5 terms
PANEL_GROUPS = 20
PANEL_PARTICIPANTS = 500

GAMMA_INTERVALS = 20_000

SAMPLED_POINTS = 100_001


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _survey_csv(rows) -> str:
    lines = ["group,participant_id,term,l,r"]
    lines.extend(f"{g},{p},{t},{l:.2f},{r:.2f}" for g, p, t, l, r in rows)
    return "\n".join(lines) + "\n"


def paper_survey(seed: int, index: int) -> str:
    """One 600-row survey: 3 groups x 40 participants x 5 terms on [0, 10]."""
    rng = _rng(seed, 1, index)
    rows = []
    for g, (group, prefix) in enumerate(PAPER_GROUPS):
        for p in range(1, PAPER_PARTICIPANTS + 1):
            for term in TERMS:
                half = rng.uniform(0.25, 1.5)
                centre = rng.normal(TERM_CENTRES[term] + 0.3 * (g - 1), 1.0)
                centre = min(max(centre, half), 10.0 - half)
                rows.append((group, f"{prefix}{p:03d}", term, centre - half, centre + half))
    return _survey_csv(rows)


def paper_pool(seed: int) -> list[str]:
    return [paper_survey(seed, i) for i in range(PAPER_POOL)]


def panel_survey(seed: int) -> str:
    """50k-row survey: endpoints uniform on [0, 10], rounded to 0.01."""
    rng = _rng(seed, 2)
    n = PANEL_GROUPS * PANEL_PARTICIPANTS * len(TERMS)
    ends = np.sort(np.round(rng.uniform(0.0, 10.0, size=(n, 2)), 2), axis=1)
    rows = []
    i = 0
    for g in range(1, PANEL_GROUPS + 1):
        for p in range(1, PANEL_PARTICIPANTS + 1):
            for term in TERMS:
                rows.append((f"G{g:02d}", f"R{p:04d}", term, ends[i, 0], ends[i, 1]))
                i += 1
    return _survey_csv(rows)


def interval_pairs(seed: int, n: int, stream: int = 3) -> np.ndarray:
    """n sorted (l, r) pairs uniform on [0, 100], rounded to 0.001."""
    rng = _rng(seed, stream, n)
    return np.sort(np.round(rng.uniform(0.0, 100.0, size=(n, 2)), 3), axis=1)


def interval_lines(pairs: np.ndarray) -> str:
    return "".join(f"{l:.3f},{r:.3f}\n" for l, r in pairs)


def sampled_grid(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Noisy two-bump membership on a uniform 100,001-point grid over [0, 20]."""
    rng = _rng(seed, 4)
    xs = np.linspace(0.0, 20.0, SAMPLED_POINTS)
    bumps = np.exp(-((xs - 7.0) ** 2) / 4.0) + 0.6 * np.exp(-((xs - 13.0) ** 2) / 2.0)
    mus = np.clip(bumps + rng.normal(0.0, 0.03, xs.size), 0.0, 1.0)
    return xs, mus
