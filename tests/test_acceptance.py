"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The planted batch used
by several criteria is generated once per session from fixed seeds.
"""

import json
import math

import numpy as np
import pytest

from kidecomp.cli import main
from kidecomp.decompose import ki_decompose, remove_redundancy
from kidecomp.ensemble import Ensemble
from kidecomp.measures import info_measures, von_neumann_entropy
from kidecomp.oracles import (
    PlantSpec,
    apply_kraus,
    haar_unitary,
    planted_ensemble,
    random_density,
    random_form2_channel,
)
from kidecomp.protocols import simulate_asymptotic, simulate_individual

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

SHAPE_POOL = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
N_INSTANCES = 100


def _random_spec(rng, idx):
    while True:
        nb = int(rng.integers(1, 4))
        blocks = tuple(SHAPE_POOL[rng.integers(0, len(SHAPE_POOL))] for _ in range(nb))
        if sum(n * k for n, k in blocks) <= 10:
            return PlantSpec(blocks=blocks, num_states=int(rng.integers(2, 5)), seed=5000 + idx)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(20240901)
    out = []
    for i in range(N_INSTANCES):
        spec = _random_spec(rng, i)
        e, truth = planted_ensemble(spec)
        d = ki_decompose(e, seed=0)
        out.append((spec, e, truth, d))
    return out


def _verdict(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def _match_blocks(truth, recovered):
    """Pair truth and recovered blocks by shape and nearest weight column."""
    remaining = list(recovered)
    pairs = []
    for bt in truth.blocks:
        candidates = [b for b in remaining if (b.n, b.k) == (bt.n, bt.k)]
        assert candidates, f"no recovered block of shape ({bt.n},{bt.k})"
        best = min(candidates, key=lambda b: float(np.max(np.abs(b.q - bt.q))))
        remaining.remove(best)
        pairs.append((bt, best))
    return pairs


def test_criterion_1_entropy_additivity(batch):
    worst = 0.0
    for _, e, _, d in batch:
        worst = max(worst, info_measures(d, e).additivity_residual)
    _verdict(1, f"entropy additivity over {len(batch)} plants (worst {worst:.2e})", worst <= 1e-8)


def test_criterion_2_oracle_recovery(batch):
    worst = 0.0
    shapes_ok = True
    for _, e, truth, d in batch:
        shapes_ok &= sorted((b.n, b.k) for b in d.blocks) == sorted(
            (b.n, b.k) for b in truth.blocks
        )
        if not shapes_ok:
            break
        m, mt = info_measures(d, e), info_measures(truth, e)
        for field in (
            "info_classical",
            "info_nonclassical",
            "info_redundant",
            "ebits_prepared",
            "ebits_consumed",
        ):
            worst = max(worst, abs(getattr(m, field) - getattr(mt, field)))
        for bt, br in _match_blocks(truth, d.blocks):
            worst = max(worst, float(np.max(np.abs(bt.q - br.q))))
        p_d, p_truth = d.block_averages(e.probs)[0], truth.block_averages(e.probs)[0]
        worst = max(worst, float(np.max(np.abs(np.sort(p_d) - np.sort(p_truth)))))
    _verdict(
        2,
        f"planted recovery: shapes exact, scalars within 1e-7 (worst {worst:.2e})",
        shapes_ok and worst <= 1e-7,
    )


def test_criterion_3_one_ebit_benchmark():
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, PLUS])
    m = info_measures(ki_decompose(e, seed=0), e)
    lam = np.array([(1 + 2**-0.5) / 2, (1 - 2**-0.5) / 2])
    s_formula = float(-np.sum(lam * np.log2(lam)))
    ok = (
        abs(m.ebits_prepared - 1.0) <= 1e-9
        and abs(m.ebits_consumed - 1.0) <= 1e-9
        and abs(m.ebits_asymptotic - m.info_nonclassical) == 0.0
        and abs(m.info_nonclassical - s_formula) <= 1e-9
        and abs(m.info_nonclassical - 0.600876) <= 1e-6
    )
    _verdict(3, f"one-ebit pair: E_p=E_c=1, E_asy={m.ebits_asymptotic:.6f}", ok)


def test_criterion_4_known_state_benchmark():
    rng = np.random.default_rng(77)
    worst = 0.0
    for dim in (2, 3, 4):
        rho = random_density(dim, rng)
        e = Ensemble(probs=[1.0], states=[rho])
        m = info_measures(ki_decompose(e, seed=0), e)
        worst = max(
            worst,
            abs(m.info_classical),
            abs(m.info_nonclassical),
            abs(m.info_redundant - von_neumann_entropy(rho)),
            abs(m.ebits_prepared),
            abs(m.ebits_consumed),
            abs(m.ebits_asymptotic),
        )
    _verdict(4, f"single known state: all costs 0, I_R = S(rho) (worst {worst:.2e})", worst <= 1e-8)


def test_criterion_5_perfect_protocol(batch):
    ok = True
    detail = ""
    for spec, e, _, d in batch[:10]:
        m = info_measures(d, e)
        _, summary = simulate_individual(e, d, trials=10_000, seed=spec.seed)
        fid_ok = summary.min_conditional_fidelity >= 1 - 1e-8
        ledger_ok = summary.max_ebits <= m.ebits_prepared + 1e-12
        spread = 3 * summary.stderr_ebits + 1e-12
        mean_ok = abs(summary.mean_ebits - m.ebits_consumed) <= spread
        if not (fid_ok and ledger_ok and mean_ok):
            ok = False
            detail = f" (failed on seed {spec.seed})"
            break
    _verdict(5, "perfect protocol: fidelity 1, ledger within bounds, mean within 3 SE" + detail, ok)


def test_criterion_6_rate_threshold():
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, PLUS])
    d = ki_decompose(e, seed=0)
    hi = simulate_asymptotic(e, d, n_messages=12, delta=0.25, trials=200, seed=5)
    lo = simulate_asymptotic(e, d, n_messages=12, delta=-0.25, trials=200, seed=5)
    gap = hi.f_bar - lo.f_bar
    gap_ok = gap > 3 * math.hypot(hi.f_stderr, lo.f_stderr)

    curve = [
        simulate_asymptotic(e, d, n_messages=n, delta=0.25, trials=200, seed=5)
        for n in (2, 4, 8, 12)
    ]
    mono_ok = all(
        nxt.f_bar >= cur.f_bar - 2 * math.hypot(nxt.f_stderr, cur.f_stderr)
        for cur, nxt in zip(curve, curve[1:])
    )
    fbars = ", ".join(f"{r.f_bar:.3f}" for r in curve)
    _verdict(
        6,
        f"rate threshold: F(+0.25)={hi.f_bar:.3f} vs F(-0.25)={lo.f_bar:.3f}; curve [{fbars}]",
        gap_ok and mono_ok,
    )


def test_criterion_7_redundancy_removal(batch):
    ok = True
    worst = 0.0
    for _, e, _, d in batch:
        m_before = info_measures(d, e)
        reduced = remove_redundancy(d, e)
        d2 = ki_decompose(reduced, seed=0)
        if not all(b.k == 1 for b in d2.blocks):
            ok = False
            break
        m_after = info_measures(d2, reduced)
        worst = max(
            worst,
            abs(m_after.info_redundant),
            abs(m_after.info_classical - m_before.info_classical),
            abs(m_after.info_nonclassical - m_before.info_nonclassical),
        )
    _verdict(
        7,
        f"redundancy removal: k=1 everywhere, I_R=0, I_C/I_NC kept (worst {worst:.2e})",
        ok and worst <= 1e-8,
    )


def test_criterion_8_channel_preservation(batch):
    worst = 0.0
    for spec, e, _, d in batch:
        for r in range(20):
            kraus = random_form2_channel(d, env_dim=2, seed=spec.seed * 100 + r)
            for rho in e.states:
                worst = max(worst, float(np.linalg.norm(apply_kraus(kraus, rho) - rho)))
        if worst > 1e-8:
            break
    _verdict(8, f"20 structure channels per plant preserve states (worst {worst:.2e})", worst <= 1e-8)


def test_criterion_9_unitary_invariance(batch):
    fields = (
        "entropy_total",
        "info_classical",
        "info_nonclassical",
        "info_redundant",
        "ebits_prepared",
        "ebits_consumed",
        "ebits_asymptotic",
        "info_passive",
        "hybrid_qubit_rate",
        "hybrid_bit_rate",
    )
    worst = 0.0
    shapes_ok = True
    for idx, (spec, e, _, d) in enumerate(batch[:20]):
        w = haar_unitary(e.dim, seed=90_000 + idx)
        rotated = Ensemble(probs=e.probs.copy(), states=[w @ s @ w.conj().T for s in e.states])
        dr = ki_decompose(rotated, seed=0)
        shapes_ok &= sorted((b.n, b.k) for b in d.blocks) == sorted((b.n, b.k) for b in dr.blocks)
        m, mr = info_measures(d, e), info_measures(dr, rotated)
        for f in fields:
            worst = max(worst, abs(getattr(m, f) - getattr(mr, f)))
    _verdict(
        9,
        f"unitary invariance on 20 instances (worst field drift {worst:.2e})",
        shapes_ok and worst <= 1e-7,
    )


def test_criterion_10_cli_determinism(tmp_path):
    plant = tmp_path / "plant.json"
    gen_args = ["gen", "-o", str(plant), "--blocks", "2x1,1x2", "--num-states", "3", "--seed", "4"]
    assert main(gen_args) == 0
    first = (plant.read_bytes(), (tmp_path / "plant.truth.json").read_bytes())
    assert main(gen_args) == 0
    gen_ok = first == (plant.read_bytes(), (tmp_path / "plant.truth.json").read_bytes())

    dec = tmp_path / "dec.json"
    assert main(["decompose", str(plant), "-o", str(dec)]) == 0
    commands = [
        ["decompose", str(plant)],
        ["measures", str(plant)],
        ["simulate-individual", str(plant), "--trials", "300", "--seed", "2"],
        ["simulate-asymptotic", str(plant), "-N", "4", "--trials", "60", "--seed", "2"],
        ["rate-sweep", str(plant), "-N", "4", "--trials", "40", "--deltas=-0.25,0.25"],
        ["remove-redundancy", str(plant)],
        ["verify", str(plant), "--decomposition", str(dec)],
    ]
    all_ok = gen_ok
    for cmd in commands:
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main(cmd + ["-o", str(a)]) == 0
        assert main(cmd + ["-o", str(b)]) == 0
        all_ok &= a.read_bytes() == b.read_bytes()
    _verdict(10, "every CLI command byte-identical across reruns", all_ok)
