"""Benchmark inputs: the recorded point catalogue and its seeded selection.

The catalogue (``catalogue.json``) is drawn once by ``make_catalogue.py`` and
records, for every point, a digest of the exact output the program produced
when the catalogue was made.  A run never draws parameters itself: the
``--seed`` only chooses and orders catalogue points, so the same seed gives
the same inputs and every input has a recorded digest to check against.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

CATALOGUE = Path(__file__).with_name("catalogue.json")

CASES = ("l2", "l1", "j1", "j2", "extj")
CLI_ELLS = (1, 2, 3)
DEEP_ELLS = (1, 2, 3, 4)
DEEP_FAMILY = 17  # family indices 0..16 per exact-deep point

# The five REPRESENTATIVE points of exopoly.verify, restated so that the
# benchmark's inputs do not depend on the code under test.
REPRESENTATIVE = (
    ("l2", 1, "-2", None),
    ("l1", 1, "1/2", None),
    ("j1", 1, "1/2", "-2"),
    ("j2", 1, "-2", "1/2"),
    ("extj", 2, "-5/2", "-5/2"),
)

# Admissible points where the current numeric layers fail (exit code 2).
# They stay in every cli-mix run so that the defects show in fail_ratio.
KNOWN_FAILING = (
    ("l1", 0, "-1", None),     # critical coupling g = -1/4 at x = 0
    ("j1", 0, "2", "-1/2"),    # wave function does not vanish at x = pi/2
)


def cli_args(point) -> list[str]:
    case, ell, alpha, beta = point
    args = ["--case", case, "--ell", str(ell), "--alpha", alpha]
    if beta is not None:
        args += ["--beta", beta]
    return args


def point_key(point) -> str:
    case, ell, alpha, beta = point
    return f"{case}:{ell}:{alpha}:{beta}"


def digest(parts) -> str:
    """Short sha256 of a JSON-serializable structure of exact values."""
    text = json.dumps(parts, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def construct_digest(report: dict) -> str:
    """Digest of the exact fields of a ``construct`` JSON report: the
    deforming function and each level's energy and coefficients."""
    return digest([
        report["xi_coefficients"],
        [[lv["level"], lv["energy"], lv["coefficients"]] for lv in report["levels"]],
    ])


def poly_family_digest(polys) -> str:
    """Digest of exact polynomials given as sequences of Fractions."""
    return digest([[str(c) for c in p] for p in polys])


def load_catalogue() -> dict:
    with open(CATALOGUE) as fh:
        return json.load(fh)


def as_point(entry) -> tuple:
    return (entry["case"], entry["ell"], entry["alpha"], entry["beta"])


def cli_schedule(catalogue: dict, seed: int) -> list[tuple]:
    """The cli-mix cycle for one seed: the two known failing points, the five
    representative points and one seeded draw per case, interleaved so that
    a run cut short still mixes fixed and drawn points."""
    rng = random.Random(seed)
    draws = []
    for i, case in enumerate(CASES):
        # ell rotates with the seed, so every run draws a similar ell mix
        ell = CLI_ELLS[(i + seed) % len(CLI_ELLS)]
        pool = [e for e in catalogue["cli_draws"] if e["case"] == case and e["ell"] == ell]
        draws.append(as_point(rng.choice(pool)))
    rng.shuffle(draws)
    fixed = list(KNOWN_FAILING[:1]) + [REPRESENTATIVE[0]] + list(KNOWN_FAILING[1:]) \
        + list(REPRESENTATIVE[1:])
    order = []
    for i in range(max(len(fixed), len(draws))):
        if i < len(fixed):
            order.append(fixed[i])
        if i < len(draws):
            order.append(draws[i])
    return order


def deep_schedule(catalogue: dict, seed: int) -> list[list[dict]]:
    """exact-deep rounds for one seed.  Each round holds one point per
    (case, ell) pair, so every round does a comparable amount of work; the
    seed permutes each pair's pool and the order inside each round."""
    rng = random.Random(seed)
    buckets = {}
    for entry in catalogue["deep"]:
        buckets.setdefault((entry["case"], entry["ell"]), []).append(entry)
    keys = sorted(buckets)
    for key in keys:
        rng.shuffle(buckets[key])
    depth = min(len(b) for b in buckets.values())
    rounds = []
    for r in range(depth):
        batch = [buckets[key][r] for key in keys]
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds
