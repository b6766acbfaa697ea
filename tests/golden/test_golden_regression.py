"""Golden-regression gate: pinned-seed outputs on yelp-small.

Estimator refactors (oracle swaps, engine changes, cache reshuffles)
must not silently drift algorithm outputs.  These tests replay
``Dysim`` (both oracles), ``AdaptiveDysim`` and two baselines on a
small pinned-seed yelp instance and compare seed groups *exactly* and
sigmas to float tolerance against committed fixtures.

Regenerating (only after an intentional behavior change)::

    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/golden -q

then commit the updated ``fixtures/*.json`` together with the change
that motivated it — the diff documents exactly what moved.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.baselines import run_bgrd, run_hag
from repro.core.dysim import AdaptiveDysim, Dysim, DysimConfig
from repro.data import load_dataset

from tests.reference import disable_packed_pass

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REGEN = os.environ.get("REPRO_GOLDEN_REGEN", "") not in ("", "0")

#: One pinned scenario per algorithm: name -> zero-argument runner
#: returning (seed tuples sorted, sigma).  Keep sample counts small —
#: goldens gate determinism, not estimate quality.


def _instance():
    return load_dataset("yelp", scale=0.35)


def _dysim(oracle: str):
    config = DysimConfig(
        n_samples_selection=6,
        n_samples_inner=4,
        candidate_pool=60,
        oracle=oracle,
        seed=7,
    )
    result = Dysim(_instance(), config).run()
    return result.seed_group, result.sigma


def _adaptive():
    config = DysimConfig(
        n_samples_inner=3, candidate_pool=40, seed=7
    )
    result = AdaptiveDysim(_instance(), config).run(world_seed=1)
    return result.seed_group, result.sigma_realized


def _hag():
    result = run_hag(_instance(), n_samples=4, seed=7, candidate_pairs=40)
    return result.seed_group, result.sigma


def _bgrd():
    result = run_bgrd(_instance(), n_samples=4, seed=7, candidate_users=25)
    return result.seed_group, result.sigma


SCENARIOS = {
    "dysim_mc": lambda: _dysim("mc"),
    "dysim_sketch": lambda: _dysim("sketch"),
    "dysim_rrset": lambda: _dysim("rrset"),
    "adaptive_dysim": _adaptive,
    "hag": _hag,
    "bgrd": _bgrd,
}


def _serialize(seed_group, sigma) -> dict:
    return {
        "seeds": sorted(
            [seed.user, seed.item, seed.promotion] for seed in seed_group
        ),
        "sigma": round(float(sigma), 9),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden(name):
    actual = _serialize(*SCENARIOS[name]())
    path = FIXTURES / f"{name}.json"
    if REGEN:
        FIXTURES.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2) + "\n")
        pytest.skip(f"regenerated {path.name}")
    expected = json.loads(path.read_text())
    assert actual["seeds"] == expected["seeds"], (
        f"{name}: seed group drifted from the committed golden — if "
        "intentional, regenerate with REPRO_GOLDEN_REGEN=1 and commit "
        "the fixture diff"
    )
    assert actual["sigma"] == pytest.approx(
        expected["sigma"], rel=1e-9, abs=1e-9
    ), f"{name}: sigma drifted"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_per_replication(name, monkeypatch):
    """The goldens hold with the packed lockstep pass switched off.

    Every Monte-Carlo chunk then replays the scalar reference once per
    replication, and ``CampaignSimulator.run`` (adaptive observation)
    is the scalar reference too, which keeps the reference pinned to
    the committed fixtures as exactly as the packed kernel.  The spy
    records no kernel call.
    """
    if REGEN:
        pytest.skip("fixtures are regenerated by test_golden")
    packed_calls = disable_packed_pass(monkeypatch)
    actual = _serialize(*SCENARIOS[name]())
    assert not packed_calls
    expected = json.loads((FIXTURES / f"{name}.json").read_text())
    assert actual == expected, f"{name}: per-replication replay drifted"


#: Per-oracle sample counts at which the three selection oracles agree
#: on amazon-small at budget 50 — "tight epsilon" for this instance.
#: The coverage oracles are noise-free on their fixed worlds; mc needs
#: enough replications that no candidate pair is within one standard
#: error of a flip, and rrset needs a large sample family because its
#: per-sample signal is a Bernoulli at small coverage rates.
CROSS_ORACLE_SAMPLES = {"mc": 200, "sketch": 400, "rrset": 32768}


def test_cross_oracle_selection_consistency():
    """All three sigma oracles select the same pinned seed set.

    The oracle choice is an *implementation* knob: at tight enough
    epsilon every oracle optimizes the same frozen objective, so the
    selected seeds must coincide (and match the committed golden) even
    though the estimators share no randomness.
    """
    from repro.eval.harness import run_dysim_select

    instance = load_dataset("amazon-small").with_budget(50.0)
    outcomes = {}
    for oracle, n_samples in CROSS_ORACLE_SAMPLES.items():
        result = run_dysim_select(
            instance,
            n_samples=n_samples,
            seed=7,
            oracle=oracle,
            candidate_pool=40,
        )
        outcomes[oracle] = _serialize(result.seed_group, result.sigma)

    seed_sets = {oracle: out["seeds"] for oracle, out in outcomes.items()}
    assert seed_sets["mc"] == seed_sets["sketch"] == seed_sets["rrset"], (
        f"oracles disagree on the selected seeds: {seed_sets}"
    )

    actual = {
        "seeds": seed_sets["mc"],
        "sigma": {o: out["sigma"] for o, out in outcomes.items()},
    }
    path = FIXTURES / "cross_oracle_select.json"
    if REGEN:
        FIXTURES.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2) + "\n")
        pytest.skip(f"regenerated {path.name}")
    expected = json.loads(path.read_text())
    assert actual["seeds"] == expected["seeds"]
    for oracle, sigma in expected["sigma"].items():
        assert actual["sigma"][oracle] == pytest.approx(
            sigma, rel=1e-9, abs=1e-9
        ), f"{oracle}: selection sigma drifted"
