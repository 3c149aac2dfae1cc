import dataclasses
import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kidecomp import linalg, protocols, streams
from kidecomp.decompose import (
    KIBlock,
    KIDecomposition,
    decomposition_from_doc,
    decomposition_to_doc,
    ki_decompose,
    verify,
)
from kidecomp.ensemble import Ensemble
from kidecomp.errors import ConfigTooLarge, ValidationError
from kidecomp.linalg import DEFAULT_TOL, eigh, eigvalsh, hermitize
from kidecomp.measures import fidelity, info_measures, von_neumann_entropy
from kidecomp.oracles import PlantSpec, haar_unitary, planted_ensemble, random_density
from kidecomp.protocols import (
    _BOUNDARY_GUARD,
    _block_data,
    _class_sums,
    _compression_plan,
    _failure_fidelities,
    _lex_sequences,
    _multinomial,
    _overlap_weights,
    _pick,
    _pick_cdfs,
    rate_sweep,
    simulate_asymptotic,
    simulate_individual,
    _type_classes,
)
from kidecomp.streams import _trial_stream, _trial_uniforms

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def classical_pair():
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, KET1])
    return e, ki_decompose(e, seed=0)


def two_pure():
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, PLUS])
    return e, ki_decompose(e, seed=0)


# -- per-message protocol ----------------------------------------------------


def test_individual_classical_source_costs_nothing():
    e, d = classical_pair()
    trials, summary = simulate_individual(e, d, trials=300, seed=2)
    assert trials.ebits.shape == (300,) and np.all(trials.ebits == 0.0)
    assert summary.mean_ebits == 0.0
    assert summary.min_conditional_fidelity >= 1 - 1e-8


def test_individual_two_pure_full_ebit():
    e, d = two_pure()
    trials, summary = simulate_individual(e, d, trials=300, seed=2)
    assert trials.ebits.shape == (300,) and np.all(trials.ebits == 1.0)
    assert summary.mean_ebits == 1.0
    assert summary.mixture_residual <= 1e-8


def test_individual_planted_matches_closed_form():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=4))
    d = ki_decompose(e, seed=0)
    m = info_measures(d, e)
    _, summary = simulate_individual(e, d, trials=4000, seed=9)
    assert summary.min_conditional_fidelity >= 1 - 1e-8
    assert summary.max_ebits <= m.ebits_prepared + 1e-12
    spread = 3 * max(summary.stderr_ebits, 1e-12)
    assert abs(summary.mean_ebits - m.ebits_consumed) <= spread
    assert summary.mixture_residual <= 1e-8


def assert_same_trials(got, want):
    for field in ("state", "block", "ebits", "conditional_fidelity"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_individual_reproducible():
    e, d = two_pure()
    t1, s1 = simulate_individual(e, d, trials=100, seed=5)
    t2, s2 = simulate_individual(e, d, trials=100, seed=5)
    assert_same_trials(t1, t2)
    assert s1 == s2


def test_document_null_under_positive_weight_reads_as_a_zero_j_state():
    # a document may give a state weight on a block but a null J state
    # there; it reads as a zero J state, which delivers nothing
    e, d = two_pure()
    doc = decomposition_to_doc(d, e.probs)
    doc["blocks"][0]["rho_J"][0] = None
    bad = decomposition_from_doc(doc)
    assert d.blocks[0].q[0] > 0 and not bad.blocks[0].rho_J[0].any()
    _, summary = simulate_individual(e, bad, trials=50, seed=0)
    assert summary.min_conditional_fidelity == 0.0
    assert summary.mixture_residual == pytest.approx(1.0, abs=1e-9)
    report = verify(bad, e, seed=0)
    assert [c.ok for c in report.checks if c.name == "reconstruction"] == [False]


def ambient_conditional_fidelity(e, d, i, l):
    """The conditional fidelity in the ambient space: the normalized P rho_i P, P the
    projector onto block l, against the delivered state lifted through V_l and then F."""
    b, f = d.blocks[l], d.frame

    def lift(m):
        return f @ (b.isometry @ m @ b.isometry.conj().T) @ f.conj().T

    proj = lift(np.eye(b.n * b.k, dtype=complex))
    comp = proj @ e.states[i] @ proj
    return fidelity(lift(np.kron(b.rho_J[i], b.rho_K)), hermitize(comp / np.trace(comp).real))


def test_block_space_fidelity_matches_the_ambient_definition():
    # a planted d = 5 ensemble padded to d = 7 behind a rotation, so the frame is a
    # proper isometry; J states mixed with noise make the fidelities differ from 1
    e5, _ = planted_ensemble(PlantSpec(blocks=((2, 2), (1, 1)), num_states=3, seed=4))
    u = haar_unitary(7, seed=8)
    padded = np.zeros((len(e5), 7, 7), dtype=complex)
    padded[:, :5, :5] = e5.states
    e = Ensemble(probs=e5.probs, states=u @ padded @ u.conj().T)
    d = ki_decompose(e, seed=0)
    assert d.frame.shape == (7, 5)
    rng = np.random.default_rng(0)
    noisy = [dataclasses.replace(b, rho_J=np.stack([0.7 * s + 0.3 * random_density(b.n, rng) for s in b.rho_J]))
             for b in d.blocks]
    for dd in (d, dataclasses.replace(d, blocks=noisy)):
        trials, _ = simulate_individual(e, dd, trials=400, seed=1)
        picked = list(zip(trials.state.tolist(), trials.block.tolist()))
        assert set(picked) == set(itertools.product(range(len(e)), range(len(dd.blocks))))
        want = {pair: ambient_conditional_fidelity(e, dd, *pair) for pair in set(picked)}
        got = trials.conditional_fidelity
        assert np.max(np.abs(got - [want[pair] for pair in picked])) <= 1e-12
    assert got.min() < 0.99  # the noisy case is not scored as perfect


@pytest.mark.parametrize(
    "simulate",
    [
        lambda e, d: simulate_individual(e, d, trials=20, seed=0),
        lambda e, d: rate_sweep(e, d, 4, [0.0], trials=20),
    ],
    ids=["simulate_individual", "rate_sweep"],
)
def test_state_without_block_weight_is_rejected(simulate):
    # a document may give a state zero weight on every block; its label
    # pick has no distribution, so both simulators refuse it by name
    e, d = two_pure()
    doc = decomposition_to_doc(d, e.probs)
    doc["blocks"][0]["q"][0] = 0.0
    with pytest.raises(ValidationError, match="state 0 has no positive weight"):
        simulate(e, decomposition_from_doc(doc))


def test_report_key_order():
    # the CLI reports serialize to_dict() in order
    e, d = two_pure()
    _, summary = simulate_individual(e, d, trials=10, seed=0)
    assert list(summary.to_dict()) == [
        "trials", "seed", "mean_ebits", "stderr_ebits", "max_ebits", "ebits_consumed_expected",
        "ebits_prepared_bound", "min_conditional_fidelity", "mixture_residual",
    ]
    run = simulate_asymptotic(e, d, n_messages=4, delta=0.0, trials=5, seed=0)
    assert list(run.to_dict()) == [
        "n_messages", "delta", "trials", "seed", "qubit_rate_used", "bit_rate_used", "f_bar", "f_stderr",
    ]


# -- type classes ------------------------------------------------------------


def test_typical_binomial_against_enumeration():
    # brute-force oracle: walk all 2^12 sequences explicitly, tallying each
    # type class's size and one member's log2 probability, and the window
    # |-(1/N) log2 p(s) - S| <= delta (plus the float boundary guard)
    lam = np.array([(1 + 2**-0.5) / 2, (1 - 2**-0.5) / 2])
    n, delta = 12, 0.25
    s_rate = float(-np.sum(lam * np.log2(lam)))
    sizes, log2p = {}, {}
    count, weight = 0, 0.0
    for code in range(2**n):
        seq = [(code >> j) & 1 for j in range(n)]
        logp = sum(math.log2(lam[s]) for s in seq)
        key = (seq.count(0), seq.count(1))
        sizes[key] = sizes.get(key, 0) + 1
        log2p[key] = logp
        if abs(-logp / n - s_rate) <= delta + _BOUNDARY_GUARD:
            count += 1
            weight += 2.0**logp
    counts, got_sizes, got_log2p = _type_classes(np.log2(lam), n)
    keys = [tuple(c) for c in counts.tolist()]
    assert keys == sorted(sizes)  # every class once, in ascending lexicographic order
    assert got_sizes == [sizes[c] for c in keys]
    assert got_log2p == pytest.approx([log2p[c] for c in keys], abs=1e-12)
    window = [abs(-lp / n - s_rate) <= delta + _BOUNDARY_GUARD for lp in got_log2p]
    assert sum(sz for sz, w in zip(got_sizes, window) if w) == count
    got_weight = sum(sz * 2.0**lp for sz, lp, w in zip(got_sizes, got_log2p, window) if w)
    assert got_weight == pytest.approx(weight, abs=1e-12)


# -- block protocol ----------------------------------------------------------


def test_asymptotic_orthogonal_source_is_free():
    e, d = classical_pair()
    for n in (2, 6):
        run = simulate_asymptotic(e, d, n_messages=n, delta=0.25, trials=60, seed=1)
        assert run.f_bar == pytest.approx(1.0)
        assert run.qubit_rate_used == 0.0
        run_low = simulate_asymptotic(e, d, n_messages=n, delta=-0.25, trials=60, seed=1)
        assert run_low.f_bar == pytest.approx(1.0)  # nothing quantum to send


def test_asymptotic_rate_gap_two_pure():
    e, d = two_pure()
    hi = simulate_asymptotic(e, d, n_messages=12, delta=0.25, trials=200, seed=3)
    lo = simulate_asymptotic(e, d, n_messages=12, delta=-0.25, trials=200, seed=3)
    gap = hi.f_bar - lo.f_bar
    assert gap > 3 * math.hypot(hi.f_stderr, lo.f_stderr)
    m = info_measures(d, e)
    assert hi.qubit_rate_used <= m.info_nonclassical + 0.25 + 1e-9
    assert lo.qubit_rate_used <= m.info_nonclassical - 0.25 + 1e-9


def test_asymptotic_budget_invariant_planted():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=6))
    d = ki_decompose(e, seed=0)
    run = simulate_asymptotic(e, d, n_messages=6, delta=0.25, trials=100, seed=2)
    assert 0.0 <= run.f_bar <= 1.0
    m = info_measures(d, e)
    assert run.bit_rate_used == pytest.approx(m.info_classical, abs=1e-9)


def test_asymptotic_reproducible_bit_for_bit():
    e, d = two_pure()
    a = simulate_asymptotic(e, d, n_messages=8, delta=0.25, trials=80, seed=12)
    b = simulate_asymptotic(e, d, n_messages=8, delta=0.25, trials=80, seed=12)
    assert np.array_equal(a.fidelities, b.fidelities)
    assert a.f_bar == b.f_bar and a.qubit_rate_used == b.qubit_rate_used


def test_asymptotic_guard():
    e, d = two_pure()
    with pytest.raises(ConfigTooLarge):
        simulate_asymptotic(e, d, n_messages=21, delta=0.25, trials=1, seed=0)


def test_rate_sweep_empty():
    e, d = two_pure()
    assert rate_sweep(e, d, 4, [], trials=10, seed=0) == []
    # an empty delta list is refused for the same arguments as a one-delta list
    for deltas in ([], [0.0]):
        with pytest.raises(ValueError, match="at least 1"):
            rate_sweep(e, d, 0, deltas, trials=0)
        with pytest.raises(ConfigTooLarge):
            rate_sweep(e, d, 10**6, deltas)


@pytest.mark.parametrize("deltas", [[math.inf], [0.0, -math.inf], [math.nan]])
def test_rate_sweep_rejects_non_finite_delta(deltas):
    e, d = classical_pair()
    with pytest.raises(ValueError, match="finite"):
        rate_sweep(e, d, 4, deltas, trials=5)


def test_rate_sweep_classical_delta_zero():
    e, d = classical_pair()
    runs = rate_sweep(e, d, 6, [0.0], trials=40, seed=0)
    assert len(runs) == 1 and runs[0].f_bar == pytest.approx(1.0)


def test_rate_sweep_sorted_and_increasing_endpoints():
    e, d = two_pure()
    runs = rate_sweep(e, d, 12, [0.25, -0.25, 0.0], trials=120, seed=4)
    assert [r.delta for r in runs] == [-0.25, 0.0, 0.25]
    lo, _, hi = runs
    assert hi.f_bar - lo.f_bar > 2 * math.hypot(hi.f_stderr, lo.f_stderr)


def test_huge_rate_slacks_keep_the_plans_of_modest_ones():
    # a budget past the whole space is clamped before 2**budget is formed:
    # no float overflow and no integer with ~delta bits
    e, _ = planted_ensemble(PlantSpec(blocks=((3, 1), (2, 2)), num_states=3, seed=1))
    d = ki_decompose(e, seed=0)
    start = time.perf_counter()
    runs = rate_sweep(e, d, 8, [-1e308, -50.0, 0.0, 50.0, 1e7, 1e307, 1e308], trials=20, seed=1)
    assert time.perf_counter() - start < 1.0
    by_delta = {r.delta: r for r in runs}
    for huge, modest in ((-1e308, -50.0), (1e7, 50.0), (1e307, 50.0), (1e308, 50.0)):
        a, b = by_delta[huge], by_delta[modest]
        assert np.array_equal(a.fidelities, b.fidelities)
        assert (a.qubit_rate_used, a.f_bar, a.f_stderr) == (b.qubit_rate_used, b.f_bar, b.f_stderr)


def test_mixed_block_states_exact_fidelity_path():
    # planted k=1 blocks with genuinely mixed J states exercise the dense
    # subspace fidelity on both branches
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1),), num_states=2, seed=9))
    d = ki_decompose(e, seed=0)
    run = simulate_asymptotic(e, d, n_messages=6, delta=-0.4, trials=150, seed=7)
    assert 0.0 < run.f_bar < 1.0
    run_hi = simulate_asymptotic(e, d, n_messages=6, delta=0.6, trials=150, seed=7)
    assert run_hi.f_bar >= run.f_bar


def test_rate_sweep_refuses_an_over_cap_failure_branch_before_any_eigvalsh(monkeypatch):
    # the bench's 3x1,2x2 plant: its failure branches at N = 8 need subspaces of 1 to 64
    # dimensions, the first ones small, so a cap of 32 is passed only after several would run
    e, _ = planted_ensemble(PlantSpec(blocks=((3, 1), (2, 2)), num_states=3, seed=1))
    d = ki_decompose(e)
    calls = []
    real = protocols.eigvalsh

    def counting(a):  # the failure branches' eigvalsh, the only one in protocols
        calls.append(a.shape[-2:])  # a stack of matrices below the split floor
        return real(a)

    monkeypatch.setattr(protocols, "eigvalsh", counting)
    rate_sweep(e, d, 8, [-0.25, 0.0, 0.25], trials=150, seed=7)
    assert max(calls) == (64, 64) and calls[0][0] <= 32
    calls.clear()
    monkeypatch.setattr(protocols, "MIXED_SUBSPACE_CAP", 32)
    with pytest.raises(ConfigTooLarge, match="subspace dimension <= 32"):
        rate_sweep(e, d, 8, [-0.25, 0.0, 0.25], trials=150, seed=7)
    assert calls == []


def test_mixed_subspace_cap_admits_a_branch_of_its_own_dimension(monkeypatch):
    # the bench's 3x1,2x2 plant at N = 6: the largest failure branch has D = 16
    # dimensions. A cap of D runs the sweep unchanged; a cap of D - 1 refuses it in
    # pass A, before any eigvalsh
    e, _ = planted_ensemble(PlantSpec(blocks=((3, 1), (2, 2)), num_states=3, seed=1))
    d = ki_decompose(e)
    calls = []
    real = protocols.eigvalsh

    def counting(a):
        calls.append(a.shape[-1])
        return real(a)

    monkeypatch.setattr(protocols, "eigvalsh", counting)
    want = rate_sweep(e, d, 6, [-0.3, 0.0], trials=40, seed=2)
    dim = max(calls)
    assert dim == 16
    monkeypatch.setattr(protocols, "MIXED_SUBSPACE_CAP", dim)
    got = rate_sweep(e, d, 6, [-0.3, 0.0], trials=40, seed=2)
    assert all(a.fidelities.tobytes() == b.fidelities.tobytes() for a, b in zip(got, want, strict=True))
    calls.clear()
    monkeypatch.setattr(protocols, "MIXED_SUBSPACE_CAP", dim - 1)
    with pytest.raises(ConfigTooLarge, match=f"subspace dimension <= {dim - 1}"):
        rate_sweep(e, d, 6, [-0.3, 0.0], trials=40, seed=2)
    assert calls == []


@pytest.mark.parametrize("n_messages, trials", [(4, 0), (0, 10)])
def test_block_protocol_refuses_zero_trials_or_messages(n_messages, trials):
    e, d = two_pure()
    with pytest.raises(ValueError, match="at least 1"):
        rate_sweep(e, d, n_messages, [0.0], trials=trials)
    with pytest.raises(ValueError, match="at least 1"):
        simulate_asymptotic(e, d, n_messages=n_messages, delta=0.0, trials=trials)


# -- paired streams against the one-choice-per-draw reference ---------------
#
# The simulators draw each trial's uniforms in bulk and pick by searchsorted.
# The reference below is the loop they replaced: one Generator.choice per
# state and per label, one random() per occupied group, and every delta run
# as its own pass over the trials. Results must match it bit for bit.

BENCH_PLANTS = {"2x1,1x2": ((2, 1), (1, 2)), "3x1,2x2": ((3, 1), (2, 2))}


@pytest.fixture(scope="module", params=sorted(BENCH_PLANTS))
def bench_plant(request):
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS[request.param], num_states=3, seed=1))
    return e, ki_decompose(e)


def test_block_rates_are_the_entropies_info_measures_sums(bench_plant):
    e, d = bench_plant
    p_block, rho_j_avg = d.block_averages(e.probs)
    data = _block_data(d, rho_j_avg, DEFAULT_TOL)
    assert [b.entropy for b in data] == [von_neumann_entropy(a) for a in rho_j_avg]
    i_nc = float(sum(pl * b.entropy for pl, b in zip(p_block, data)))
    assert i_nc == info_measures(d, e).info_nonclassical


def test_rate_sweep_reads_its_tol():
    # a qubit block whose averaged J state has an eigenvalue of 2.55e-7: kept at the
    # default tol, dropped at 1e-6, where the nearly pure states also count as pure
    psi = np.array([np.cos(1e-3), np.sin(1e-3)])
    states = [np.diag([1 - 1e-8, 1e-8]).astype(complex), np.outer(psi, psi).astype(complex)]
    e = Ensemble(probs=[0.5, 0.5], states=states)
    d = ki_decompose(e)
    assert [(b.n, b.k) for b in d.blocks] == [(2, 1)]
    rho_j_avg = d.block_averages(e.probs)[1]
    for tol in (DEFAULT_TOL, 1e-6):
        (data,) = _block_data(d, rho_j_avg, tol)
        s = info_measures(d, e, tol).info_nonclassical
        assert data.entropy == s and data.all_pure == (tol == 1e-6)
        # every trial is one group of 4 members: a slack just short of one qubit over
        # the 4 messages keeps one sequence, which the clipped spectrum's 5.95e-6
        # bits of entropy would have pushed to two
        (run,) = rate_sweep(e, d, 4, [0.25 - s - 1e-8], trials=3, tol=tol)
        assert run.qubit_rate_used == 0.0


def reference_class_sums(diag_rows):
    """The per-group dict DP that `protocols._class_sums` replaced: the sum over all
    sequences of prod_j diag_rows[j, s_j], keyed by type class."""
    r = diag_rows.shape[1]
    acc = {tuple([0] * r): 1.0}
    for row in diag_rows:
        nxt = {}
        for counts, val in acc.items():
            for a in range(r):
                c2 = counts[:a] + (counts[a] + 1,) + counts[a + 1 :]
                nxt[c2] = nxt.get(c2, 0.0) + val * float(row[a])
        acc = nxt
    return acc


def full_classes_of(plan):
    """The plan's full type classes as count tuples, most probable first."""
    if plan.full_index is None:
        return []
    return [tuple(c) for c in protocols._compositions(plan.alphabet, plan.length)[plan.full_index].tolist()]


def reference_overlap_weight(plan, diag_rows, sums):
    """The per-group weight that `protocols._overlap_weights` replaced. The full
    classes' sums are added one at a time in the plan's order, as the replaced code's
    builtin `sum` did up to Python 3.11 (3.12 compensates a `sum` of floats)."""
    w = 0.0
    for c in full_classes_of(plan):
        w += sums.get(c, 0.0)
    if plan.partial is not None:
        cols = np.arange(plan.length)
        w += float(np.sum(np.prod(diag_rows[cols[None, :], plan.partial], axis=1)))
    return min(max(w, 0.0), 1.0)


def reference_weights(e, d):
    qmat = np.clip(np.stack([b.q for b in d.blocks], axis=1), 0.0, None)
    return e.probs / e.probs.sum(), qmat / qmat.sum(axis=1, keepdims=True)


def reference_diag_rows(data, members):
    """Per member, the clipped diagonal of its rotated J state."""
    return np.stack([np.clip(np.real(np.diag(data.rotated[i])), 0.0, None) for i in members])


def reference_block_trial(e, d, n, rng):
    probs, qmat = reference_weights(e, d)
    drawn = rng.choice(len(e), size=n, p=probs)
    labels = np.array([rng.choice(len(d.blocks), p=qmat[i]) for i in drawn], dtype=np.int64)
    occupied = [l for l in range(len(d.blocks)) if np.any(labels == l)]
    return drawn, labels, occupied, [rng.random() for _ in occupied]


def block_data(e, d):
    return _block_data(d, d.block_averages(e.probs)[1], DEFAULT_TOL)


def failure_fidelity(plan, data, members, w):
    """The failure-branch fidelity of one group: `_failure_fidelities` of a one-row stack."""
    return float(_failure_fidelities(plan, data, np.array([members], dtype=np.int64), np.array([w]))[0])


def reference_fidelities(e, d, n, delta, trials, seed, failure=failure_fidelity):
    data = block_data(e, d)
    fids, rates = np.empty(trials), np.empty(trials)
    for t in range(trials):
        drawn, labels, occupied, uniforms = reference_block_trial(
            e, d, n, np.random.default_rng([seed, t])
        )
        f_trial, qubits = 1.0, 0
        for l, u in zip(occupied, uniforms):
            members = [int(i) for i in drawn[labels == l]]
            plan = _compression_plan(data[l].spectrum, data[l].entropy, len(members), delta, {})
            f_group = 1.0
            if not plan.full:
                rows = reference_diag_rows(data[l], members)
                w = reference_overlap_weight(plan, rows, reference_class_sums(rows))
                f_group = w if u <= w else failure(plan, data[l], members, w)
            qubits += plan.qubits
            f_trial *= f_group
        fids[t], rates[t] = f_trial, qubits / n
    return fids, float(rates.mean())


def test_individual_stream_matches_choice_reference(bench_plant):
    e, d = bench_plant
    probs, qmat = reference_weights(e, d)
    for seed in (0, 5, 7919):
        trials, _ = simulate_individual(e, d, trials=400, seed=seed)
        ref_states, ref_blocks = [], []
        for t in range(400):
            rng = np.random.default_rng([seed, t])
            i = int(rng.choice(len(e), p=probs))
            ref_states.append(i)
            ref_blocks.append(int(rng.choice(len(d.blocks), p=qmat[i])))
        assert np.array_equal(trials.state, ref_states)
        assert np.array_equal(trials.block, ref_blocks)


def test_block_stream_matches_choice_reference(bench_plant):
    e, d = bench_plant
    cdf_p, cdf_q = _pick_cdfs(e, d)
    for seed in (0, 5, 7919):
        u = _trial_uniforms(seed, 0, 60, 2 * 12 + len(d.blocks))
        drawn, labels = _pick(u, 12, cdf_p, cdf_q)
        assert drawn.shape == labels.shape == (60, 12)
        for t in range(60):
            # the occupied labels and branch uniforms as rate_sweep reads them from a row
            occupied = np.flatnonzero(np.bincount(labels[t]))
            uniforms = u[t, 2 * 12 : 2 * 12 + len(occupied)]
            ref = reference_block_trial(e, d, 12, np.random.default_rng([seed, t]))
            for got, want in zip((drawn[t], labels[t], occupied, uniforms), ref):
                assert np.array_equal(got, want)


def test_rate_sweep_matches_per_delta_reference(bench_plant):
    e, d = bench_plant
    deltas = [0.25, -0.25, 0.0, 0.25]  # unsorted, with a duplicate
    runs = rate_sweep(e, d, 8, deltas, trials=40, seed=3)
    assert [r.delta for r in runs] == sorted(deltas)
    for run in runs:
        fids, rate = reference_fidelities(e, d, 8, run.delta, 40, 3)
        assert np.array_equal(run.fidelities, fids)
        assert run.qubit_rate_used == rate
        single = simulate_asymptotic(e, d, n_messages=8, delta=run.delta, trials=40, seed=3)
        assert np.array_equal(single.fidelities, run.fidelities)
        assert single.to_dict() == run.to_dict()


# -- pass A against the per-group reference, bit for bit --------------------------


def _random_diag_rows(rng, groups, length, r):
    """Per group, `length` clipped diagonals of random density matrices in a fixed basis;
    one group in three has an exact 0 in each row, as a pure state's diagonal can."""
    diag = rng.random((groups, length, r)) ** 2
    diag[::3, :, -1] = 0.0
    return diag / diag.sum(axis=2, keepdims=True)


def test_class_sums_and_overlap_weights_match_the_per_group_reference():
    rng = np.random.default_rng(11)
    kinds = set()
    for r in (2, 3, 4, 5):
        spectrum = np.sort(rng.random(r) + 0.05)[::-1]
        spectrum /= spectrum.sum()
        entropy = float(-np.sum(spectrum * np.log2(spectrum)))
        classes = {}
        for length in range(1, 13 if r < 5 else 9):
            diag = _random_diag_rows(rng, 7, length, r)
            sums = _class_sums(diag)
            counts = protocols._type_classes(np.log2(spectrum), length)[0]
            assert sums.shape == (7, len(counts))
            for g in range(7):
                ref = reference_class_sums(diag[g])
                assert [ref[tuple(c)] for c in counts.tolist()] == sums[g].tolist()
            for delta in (-50.0, -0.6, -0.3, -0.1, 0.0, 0.2, 50.0):
                plan = _compression_plan(spectrum, entropy, length, delta, classes)
                if plan.full:
                    kinds.add("full")
                    continue
                w = _overlap_weights(plan, diag, sums)
                want = [reference_overlap_weight(plan, diag[g], reference_class_sums(diag[g])) for g in range(7)]
                assert w.tobytes() == np.array(want).tobytes()
                kinds.add("one sequence" if plan.dim == 1 else "partial" if plan.partial is not None else "classes only")
    assert kinds == {"full", "one sequence", "partial", "classes only"}


THREE_BLOCKS = ((2, 1), (3, 1), (2, 2))


@pytest.mark.parametrize("name", ["three_blocks", "two_pure", "one_row_slices"])
def test_rate_sweep_matches_the_per_trial_reference_bit_for_bit(name, monkeypatch):
    # a plant with three mixed blocks, so a trial can multiply three non-unit factors
    # and their order matters, and a block whose J states are all pure; deltas that
    # keep one sequence, a partial class, whole classes and the whole space; N = 1
    # to 12; and stream blocks of 7 trials, so that 30 trials span five of them.
    # "one_row_slices" runs the three-block plant with every row-blocked step, pass
    # A's batches and the stacked failure-branch solves among them, cut into slices
    # of one row: `linalg.row_blocks` with the budget `linalg.WORK_BYTES` lowered to
    # one byte
    if name == "one_row_slices":
        monkeypatch.setattr(linalg, "WORK_BYTES", 1)
    if name == "two_pure":
        e, d = two_pure()
    else:
        e, _ = planted_ensemble(PlantSpec(blocks=THREE_BLOCKS, num_states=3, seed=2))
        d = ki_decompose(e)
    data = block_data(e, d)
    assert all(b.all_pure for b in data) == (name == "two_pure")
    monkeypatch.setattr(streams, "_STREAM_BLOCK", 7)
    deltas = [-5.0, -0.3, 0.0, 0.2, 5.0]
    three = 0
    for n in range(1, 13):
        runs = rate_sweep(e, d, n, deltas, trials=30, seed=n)
        for run in runs:
            fids, rate = reference_fidelities(e, d, n, run.delta, 30, n)
            assert run.fidelities.tobytes() == fids.tobytes(), (n, run.delta)
            assert run.qubit_rate_used == rate
        if name != "two_pure":
            # trials whose three labels are all occupied at delta -0.3, where no
            # group of two or more messages keeps the whole space
            labels = _pick(_trial_uniforms(n, 0, 30, 2 * n + 3), n, *_pick_cdfs(e, d))[1]
            three += sum(len(set(row)) == 3 for row in labels.tolist())
    assert name == "two_pure" or three > 30


def test_pass_a_memory_is_bounded_on_a_large_alphabet():
    # one 16-dim block at N = 5: 15 504 type classes, so `_class_sums` holds
    # 15 504 * 16 floats (1.9 MiB) per group. Each of the 32 trials is one group
    # of 5, all in one (label, length) batch, which as one array would take
    # about 2 * 32 * 1.9 MiB at once; pass A takes it a slice at a time
    e, _ = planted_ensemble(PlantSpec(blocks=((16, 1),), num_states=3, seed=1))
    d = ki_decompose(e)
    (data,) = block_data(e, d)
    assert len(data.spectrum) == 16 and not data.all_pure
    delta = 6 / 5 - data.entropy + 0.01  # a 64-dim plan with a partial class
    plan = _compression_plan(data.spectrum, data.entropy, 5, delta, {})
    assert plan.dim == 64 and plan.partial is not None
    rate_sweep(e, d, 5, [delta], trials=1)  # builds the cached class tables
    tracemalloc.start()
    try:
        (run,) = rate_sweep(e, d, 5, [delta], trials=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (run.fidelities < 1.0).all()  # every trial ran the DP and a failure branch
    assert peak < 8 * 2**20


# -- the block protocol against its exact expectation --------------------------
#
# For small N the expected trial fidelity is a finite sum over every message
# sequence and label sequence, each weighted by prod_j p_i q_il. A trial's
# groups are scored independently: with its branch uniform u, a group keeps
# its projected state when u <= w, so its expected fidelity is
# w * w + (1 - w) * F_fail, and the trial's is the product over its groups.


def exact_f_bar(e, d, n, delta):
    probs, qmat = reference_weights(e, d)
    data = block_data(e, d)
    groups = {}  # (label, members) -> expected group fidelity

    def group_fidelity(l, members):
        if (l, members) not in groups:
            plan = _compression_plan(data[l].spectrum, data[l].entropy, len(members), delta, {})
            f = 1.0
            if not plan.full:
                rows = reference_diag_rows(data[l], members)
                w = reference_overlap_weight(plan, rows, reference_class_sums(rows))
                f = w * w + (1 - w) * failure_fidelity(plan, data[l], list(members), w)
            groups[(l, members)] = f
        return groups[(l, members)]

    total = 0.0
    for drawn in itertools.product(range(len(e)), repeat=n):
        for labels in itertools.product(range(len(d.blocks)), repeat=n):
            weight = np.prod(probs[list(drawn)]) * np.prod(qmat[list(drawn), list(labels)])
            if weight == 0:
                continue
            f = 1.0
            for l in sorted(set(labels)):
                f *= group_fidelity(l, tuple(i for i, m in zip(drawn, labels) if m == l))
            total += weight * f
    return total


def test_rate_sweep_matches_exact_expectation(bench_plant):
    # N=4 gives groups of one to four members, full and non-full plans and
    # both branches; at seed 0 the largest |z| over both plants is 2.44
    e, d = bench_plant
    runs = rate_sweep(e, d, 4, [-0.25, 0.0, 0.25], trials=4000, seed=0)
    for run in runs:
        want = exact_f_bar(e, d, 4, run.delta)
        if run.f_stderr == 0.0:
            assert run.f_bar == pytest.approx(want, abs=1e-12)
        else:
            assert abs(run.f_bar - want) <= 4 * run.f_stderr, (run.delta, run.f_bar, want)


# -- the bulk stream kernel against default_rng --------------------------------


def reference_uniforms(seed, start, stop, count):
    rows = [np.random.default_rng([seed, t]).random(count) for t in range(start, stop)]
    return np.array(rows).reshape(stop - start, count)


# seeds of 1 to 6 uint32 words; with t appended, 4 or more seed words reach
# SeedSequence's second mixing loop
_SEED_WORDS = st.integers(1, 6).flatmap(
    lambda k: st.integers(0 if k == 1 else 2 ** (32 * (k - 1)), 2 ** (32 * k) - 1)
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=_SEED_WORDS,
    start=st.one_of(st.integers(0, 50), st.integers(0, 2**32 - 40)),
    length=st.integers(0, 30),
    count=st.sampled_from([1, 2, 2 * 12 + 2, 2 * 12 + 3]),
)
@example(seed=0, start=0, length=5, count=1)
@example(seed=2**32, start=2**32 - 7, length=7, count=2)  # the last index one word holds
@example(seed=3**150, start=11, length=3, count=27)
def test_trial_uniforms_match_default_rng(seed, start, length, count):
    got = _trial_uniforms(seed, start, start + length, count)
    assert got.shape == (length, count) and got.flags.c_contiguous
    assert np.array_equal(got, reference_uniforms(seed, start, start + length, count))


@pytest.mark.parametrize("block", [1, 7, streams._STREAM_BLOCK])
def test_trial_stream_blocks_join_into_one_stream(block, monkeypatch):
    monkeypatch.setattr(streams, "_STREAM_BLOCK", block)
    trials = 2 * block + 3
    rows = list(_trial_stream(7919, trials, 2))
    assert [len(r) for r in rows] == [min(block, trials - start) for start in range(0, trials, block)]
    assert np.array_equal(np.concatenate(rows), reference_uniforms(7919, 0, trials, 2))


def test_trial_uniforms_guards():
    # the same errors SeedSequence raises for these seeds
    for seed, error in ((-1, ValueError), (-(2**40), ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            np.random.default_rng([seed, 0])
        with pytest.raises(error):
            _trial_uniforms(seed, 0, 3, 2)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _trial_uniforms(-1, 0, 3, 2)
    e, d = two_pure()
    for run in (lambda: simulate_individual(e, d, trials=3, seed=-1), lambda: rate_sweep(e, d, 4, [0.0], 3, seed=-1)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run()
    # t = 2**32 needs a second entropy word: refused, not wrapped to t = 0
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        _trial_uniforms(0, 2**32 - 1, 2**32 + 1, 1)


def test_simulators_build_no_per_trial_generator(bench_plant, monkeypatch):
    e, d = bench_plant
    want_trials, want_summary = simulate_individual(e, d, trials=300, seed=4)
    want_runs = rate_sweep(e, d, 8, [-0.25, 0.25], trials=30, seed=4)

    def refuse(*args, **kwargs):
        raise AssertionError("a simulator built a Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    trials, summary = simulate_individual(e, d, trials=300, seed=4)
    runs = rate_sweep(e, d, 8, [-0.25, 0.25], trials=30, seed=4)
    assert_same_trials(trials, want_trials)
    assert summary == want_summary
    assert all(np.array_equal(a.fidelities, b.fidelities) for a, b in zip(runs, want_runs))


def test_block_stream_memory_is_bounded_by_the_block():
    # 10^5 rows of 26 uniforms: 21 MB as one array, about 46 MB at peak in one kernel call
    tracemalloc.start()
    try:
        for rows in _trial_stream(3, 100_000, 26):
            assert rows.shape[1] == 26
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- the failure branch against the per-member gather --------------------------


def _reference_group_state(plan, data, members):
    """The group state built with one full-size gather per member, hermitized."""
    seqs, _ = protocols._subspace(plan)
    compressed = np.ones((len(seqs), len(seqs)), dtype=complex)
    for j, i in enumerate(members):
        s = seqs[:, j]
        compressed *= data.rotated[i][s[:, None], s[None, :]]
    return hermitize(compressed)


def _reference_failure_fidelity(plan, data, members):
    lam = np.clip(eigvalsh(_reference_group_state(plan, data, members)), 0.0, None)
    return float(np.sum(np.sqrt(lam)) ** 2) / plan.dim


@pytest.mark.parametrize(
    "blocks,lengths",
    [(((2, 1),), (1, 2, 5, 7)), (((3, 1), (2, 2)), (1, 2, 3, 6, 9))],
    ids=["2x1", "3x1,2x2"],
)
def test_failure_fidelity_matches_per_member_gather(blocks, lengths):
    # the 3x1,2x2 plant is the bench's; a 9-member group at delta 0 has 1024 sequences
    e, _ = planted_ensemble(PlantSpec(blocks=blocks, num_states=3, seed=1))
    data = next(b for b in block_data(e, ki_decompose(e)) if not b.all_pure)
    states = range(len(data.rotated))  # every planted weight is positive
    rng = np.random.default_rng(0)
    seen = set()
    for length in lengths:
        for delta in (-0.6, -0.3, -0.1, 0.0, 0.2) if length < 9 else (-0.25, 0.0):
            plan = _compression_plan(data.spectrum, data.entropy, length, delta, {})
            if plan.full:
                continue
            members = [int(i) for i in rng.choice(states, size=length)]
            got = failure_fidelity(plan, data, members, 0.5)
            want = _reference_failure_fidelity(plan, data, members)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            seen.add((length, plan.partial is not None))
    # a one-member group (empty first half), N=2 and a partial class all ran
    assert {1, 2} <= {n for n, _ in seen} and any(partial for _, partial in seen)


# -- the real gauge of 2-dim J factors against the complex states ---------------


def _qubit_block(stack, probs):
    """A decomposition with one 2x1 block whose J states are `stack`, and its averaged J state."""
    block = KIBlock(
        n=2, k=1, isometry=np.eye(2, dtype=complex), rho_K=np.ones((1, 1), dtype=complex),
        q=np.ones(len(stack)), rho_J=np.asarray(stack, dtype=complex),
    )
    d = KIDecomposition(frame=np.eye(2, dtype=complex), blocks=[block])
    return d, d.block_averages(np.asarray(probs, dtype=float))[1]


GAUGE_CASES = ["random0", "random1", "random2", "random3", "diagonal_average", "2x1,1x2"]


def _gauge_case(name):
    """A decomposition with a 2-dim block and its averaged J states: a random qubit J
    stack with a pure member, a stack whose averaged J state is diagonal, or the
    bench's 2x1,1x2 plant."""
    if name.startswith("random"):
        seed = int(name[len("random"):])
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        stack = [random_density(2, rng) for _ in range(2 + seed)] + [np.outer(psi, psi.conj()) / np.vdot(psi, psi).real]
        return _qubit_block(stack, rng.random(len(stack)) + 0.1)
    if name == "diagonal_average":
        # each off-diagonal but the first member's cancels against its mirror, so the
        # averaged state is diagonal, its eigenbasis the standard one, and the diagonal
        # member keeps an off-diagonal of exactly 0; the last two are pure
        c, s = np.cos(0.4), np.exp(0.7j) * np.sin(0.4)
        pure = [np.outer(v, v.conj()) for v in (np.array([c, s]), np.array([c, -s]))]
        mixed = [np.array([[0.6, b], [np.conj(b), 0.4]]) for b in (0.2 - 0.1j, -0.2 + 0.1j)]
        return _qubit_block([np.diag([0.8, 0.2])] + mixed + pure, np.full(5, 0.2))
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS[name], num_states=3, seed=1))
    d = ki_decompose(e)
    return d, d.block_averages(e.probs)[1]


def _ungauged_rotated(avg, rho_j):
    """The J states in the descending eigenbasis of the averaged one, as complex matrices."""
    lam, vec = eigh(hermitize(avg))
    vec = vec[:, np.argsort(lam)[::-1]]
    return hermitize(vec.conj().T @ rho_j @ vec)


@pytest.fixture
def solver_dtypes(monkeypatch):
    """The dtype of each matrix that `protocols.eigvalsh` receives, in call order."""
    dtypes = []
    real = protocols.eigvalsh

    def recording(a):
        dtypes.append(a.dtype)
        return real(a)

    monkeypatch.setattr(protocols, "eigvalsh", recording)
    return dtypes


@pytest.mark.parametrize("name", GAUGE_CASES)
def test_real_gauge_keeps_the_failure_fidelity_of_2_dim_blocks(name, solver_dtypes):
    d, rho_j_avg = _gauge_case(name)
    l = next(l for l, b in enumerate(d.blocks) if b.n == 2)
    data = _block_data(d, rho_j_avg, DEFAULT_TOL)[l]
    complex_states = _ungauged_rotated(rho_j_avg[l], d.blocks[l].rho_J)
    assert data.rotated.dtype == np.float64
    assert np.array_equal(data.rotated.diagonal(axis1=1, axis2=2), complex_states.diagonal(axis1=1, axis2=2).real)
    assert np.array_equal(data.rotated[:, 0, 1], np.abs(complex_states[:, 0, 1]))
    if name == "diagonal_average":
        assert complex_states[0, 0, 1] == 0
    complex_data = dataclasses.replace(data, rotated=complex_states)
    states = np.flatnonzero(d.blocks[l].q > 0)
    rng = np.random.default_rng(1)
    seen = set()
    for length in range(1, 10):
        for delta in (-0.6, -0.3, -0.1, 0.0, 0.2):
            plan = _compression_plan(data.spectrum, data.entropy, length, delta, {})
            if plan.full:
                continue
            members = [int(i) for i in rng.choice(states, size=length)]
            got = failure_fidelity(plan, data, members, 0.5)
            # measures.fidelity drops the round-off eigenvalues of a group with a pure member
            want = fidelity(_reference_group_state(plan, complex_data, members), np.eye(plan.dim) / plan.dim)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (length, delta, members)
            seen.add((length, plan.partial is not None))
    assert {n for n, _ in seen} == set(range(1, 10))
    assert any(partial for _, partial in seen) and any(not partial for _, partial in seen)
    assert solver_dtypes and set(solver_dtypes) == {np.dtype(np.float64)}


def test_only_2_dim_blocks_take_the_real_solver(solver_dtypes):
    # the bench's 3x1,2x2 plant: the 3-dim block's cycle phase keeps it complex
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS["3x1,2x2"], num_states=3, seed=1))
    by_dim = {}
    for data in block_data(e, ki_decompose(e)):
        plan = _compression_plan(data.spectrum, data.entropy, 4, -0.3, {})
        assert not plan.full
        failure_fidelity(plan, data, [0, 1, 2, 0], 0.5)
        (by_dim[len(data.spectrum)],) = solver_dtypes
        solver_dtypes.clear()
    assert by_dim == {3: np.dtype(np.complex128), 2: np.dtype(np.float64)}


def test_failure_branch_holds_one_group_state_at_its_eigvalsh(monkeypatch):
    # the 1024-dim branch of test_failure_fidelity_matches_per_member_gather: a 9-member
    # group of the bench 3x1,2x2 plant's 3-dim block at delta 0, whose whole group
    # state would take 16 MiB. Positions 5 and 6 carry state 0 and their swap keeps the
    # subspace, so the state splits into sectors of 739 and 285 dimensions. They are
    # gathered straight from the two half states: no D x D array is ever formed, and
    # the traced peak stays near the two sectors (9.6 MiB together)
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS["3x1,2x2"], num_states=3, seed=1))
    data = next(b for b in block_data(e, ki_decompose(e)) if len(b.spectrum) == 3)
    plan = _compression_plan(data.spectrum, data.entropy, 9, 0.0, {})
    members = [0, 1, 2, 2, 1, 0, 0, 1, 2]
    seqs, _, swaps = _subspace_swaps(plan, members)
    assert plan.dim == 1024 and _reference_swap_pairs(seqs, members) == [(5, 6)]
    assert len(swaps) == 1 and np.array_equal(seqs[swaps[0]], seqs[:, _swapped_positions(9, 5, 6)])
    calls = []
    real = protocols.eigvalsh

    def traced(a):
        calls.append((tracemalloc.get_traced_memory()[0], len(a)))
        return real(a)

    monkeypatch.setattr(protocols, "eigvalsh", traced)
    sectors = (739**2 + 285**2) * 16
    tracemalloc.start()
    try:
        failure_fidelity(plan, data, members, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(n for _, n in calls) == [285, 739]
    assert peak < sectors + 2 * 2**20 < 1024 * 1024 * 16
    for current, _ in calls:
        assert current < sectors + 2 * 2**20


def _plan_of_dim(data, dim):
    """The first plan of `dim` sequences over group lengths 2 to 12 and a grid of deltas."""
    for length in range(2, 13):
        for delta in np.linspace(-0.6, 0.3, 19):
            plan = _compression_plan(data.spectrum, data.entropy, length, float(delta), {})
            if not plan.full and plan.dim == dim:
                return plan
    raise AssertionError(f"no plan of {dim} sequences")


def test_stacked_failure_branches_match_one_at_a_time(monkeypatch):
    # 40 branches of a 64-dim plan of each bench 3x1,2x2 block, below the split floor:
    # complex matrices of 64 KiB (4 to a stacked call) and real ones of 32 KiB (8 to a
    # call), so the stack spans more than one `linalg.row_blocks` slice of WORK_BYTES
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS["3x1,2x2"], num_states=3, seed=1))
    rng = np.random.default_rng(5)
    shapes = []
    real = protocols.eigvalsh

    def recording(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(protocols, "eigvalsh", recording)
    stacks = {}
    for data in block_data(e, ki_decompose(e)):
        plan = _plan_of_dim(data, 64)
        assert plan.dim < protocols.SECTOR_SPLIT_MIN
        members = rng.integers(0, len(data.rotated), (40, plan.length))
        w = rng.random(40)
        shapes.clear()
        got = _failure_fidelities(plan, data, members, w)
        stacks[data.rotated.dtype.kind] = [s[0] for s in shapes]
        want = [failure_fidelity(plan, data, row.tolist(), float(wi)) for row, wi in zip(members, w)]
        assert got.tobytes() == np.array(want).tobytes()
    assert stacks == {"c": [4] * 10, "f": [8] * 5}


def test_direct_sectors_match_the_split_of_the_whole_group_state():
    # the first swap's sectors, gathered from the two half states, against
    # `_sector_split` of the whole group state: the same representatives and the
    # same bytes, on real and complex blocks
    seen = set()
    for plan, data, members in _swap_cases():
        _, halves, swaps = _subspace_swaps(plan, members)
        if not swaps:
            continue
        members = np.array(members)
        pi, sign = swaps[0], np.ones(plan.dim, dtype=np.int64)
        state = protocols._group_states(data, members[None], halves)[0]
        want = protocols._sector_split(lambda rows, cols: state[rows][:, cols], pi, sign, state.dtype)
        group = protocols._half_entries(data, members[None], halves)
        got = protocols._sector_split(lambda rows, cols: group(rows, cols)[0], pi, sign, state.dtype)
        for (reps, sector), (want_reps, want_sector) in zip(got, want, strict=True):
            assert np.array_equal(reps, want_reps)
            assert sector.dtype == want_sector.dtype and sector.tobytes() == want_sector.tobytes()
        seen.add(data.rotated.dtype.kind)
    assert seen == {"f", "c"}


# -- the swap sectors against one dense solve -------------------------------------


def _subspace_swaps(plan, members):
    """The plan's sequences and `halves` (`protocols._subspace`) and the permutations
    of one group's swaps (`protocols._swaps`)."""
    seqs, halves = protocols._subspace(plan)
    partial_rows = 0 if plan.partial is None else len(plan.partial)
    return seqs, halves, protocols._swaps(seqs, plan.alphabet, partial_rows, list(members))


def _swapped_positions(length, a, b):
    """The positions 0..length-1 with a and b exchanged."""
    order = list(range(length))
    order[a], order[b] = b, a
    return order


def _reference_swap_pairs(seqs, members):
    """The disjoint pairs of equal-state positions whose swap maps the set of all
    sequences onto itself, taken greedily in position order, each checked on the
    whole set one pair at a time."""
    whole = set(map(tuple, seqs.tolist()))
    out, taken = [], set()
    for a, b in itertools.combinations(range(len(members)), 2):
        if members[a] != members[b] or taken & {a, b}:
            continue
        if set(map(tuple, seqs[:, _swapped_positions(len(members), a, b)].tolist())) == whole:
            out.append((a, b))
            taken |= {a, b}
    return out


def _swap_cases():
    """Failure branches of the bench 3x1,2x2 plant's blocks (3-dim complex, 2-dim real)
    up to 512 dimensions, with random members and members that repeat one state."""
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS["3x1,2x2"], num_states=3, seed=1))
    rng = np.random.default_rng(4)
    for data in block_data(e, ki_decompose(e)):
        for length in range(2, 10):
            for delta in (-0.5, -0.25, -0.1, 0.0, 0.15):
                plan = _compression_plan(data.spectrum, data.entropy, length, delta, {})
                if plan.full or plan.dim > 512:
                    continue
                for members in (rng.integers(0, 3, length).tolist(), [1] * length, rng.integers(0, 2, length).tolist()):
                    yield plan, data, members


def test_sector_spectra_match_one_dense_solve(monkeypatch):
    # split every branch down to 2-dim sectors, so that small plans take several swaps
    monkeypatch.setattr(protocols, "SECTOR_SPLIT_MIN", 2)
    seen = set()
    for plan, data, members in _swap_cases():
        seqs, halves, swaps = _subspace_swaps(plan, members)
        pairs = _reference_swap_pairs(seqs, members)
        assert len(swaps) == len(pairs)
        state = _reference_group_state(plan, data, members)
        for t, (a, b) in zip(swaps, pairs):  # the symmetry each split relies on, checked on the state itself
            assert members[a] == members[b]
            assert np.array_equal(seqs[t], seqs[:, _swapped_positions(plan.length, a, b)])
            assert sorted(t) == list(range(plan.dim))
            assert np.abs(state[np.ix_(t, t)] - state).max() <= 1e-15
        taken = [p for pair in pairs for p in pair]
        assert len(set(taken)) == len(taken) and pairs == sorted(pairs)
        want = eigvalsh(state)
        got = np.sort(protocols._sector_spectra(data, np.array(members), halves, swaps))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * want.max()
        seen.add((data.rotated.dtype.kind, plan.partial is not None, min(len(swaps), 2)))
    # real and complex blocks, plans with and without a partial class, and 0, 1 and
    # several swaps all ran
    assert {kind for kind, _, _ in seen} == {"f", "c"}
    assert {partial for _, partial, _ in seen} == {False, True}
    assert {n for _, _, n in seen} == {0, 1, 2}
    assert {(kind, n) for kind, _, n in seen} == {(k, n) for k in "fc" for n in (0, 1, 2)}


def test_a_partial_class_that_blocks_every_swap_takes_one_dense_solve(solver_dtypes):
    # the 3-dim block at N=6, delta 0.14: 256 sequences, the last 21 of them the first
    # 21 of the 60 in class (3, 1, 2), and no swap of two positions maps those 21 onto
    # themselves; every member is state 0, so only the partial class can block a swap
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS["3x1,2x2"], num_states=3, seed=1))
    data = next(b for b in block_data(e, ki_decompose(e)) if len(b.spectrum) == 3)
    plan = _compression_plan(data.spectrum, data.entropy, 6, 0.14, {})
    assert plan.dim == 256 >= protocols.SECTOR_SPLIT_MIN
    assert np.bincount(plan.partial[0], minlength=3).tolist() == [3, 1, 2] and len(plan.partial) == 21
    # every pair carries state 0, so any pair that kept the subspace would be taken
    seqs, _, swaps = _subspace_swaps(plan, [0] * 6)
    assert swaps == [] and _reference_swap_pairs(seqs, [0] * 6) == []
    got = failure_fidelity(plan, data, [0] * 6, 0.5)
    assert len(solver_dtypes) == 1
    assert got == pytest.approx(_reference_failure_fidelity(plan, data, [0] * 6), rel=1e-12, abs=0.0)


def test_rate_sweep_failure_branches_match_the_dense_reference(monkeypatch):
    # the bench's 3x1,2x2 sweep (N=12, its deltas) on 40 trials of seed 37, where
    # branches of 512 and 256 dimensions split, one of them three times
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS["3x1,2x2"], num_states=3, seed=1))
    d = ki_decompose(e)
    splits = []
    real = protocols._sector_split

    def counted(entries, pi, sign, dtype):
        splits.append(len(pi))
        return real(entries, pi, sign, dtype)

    monkeypatch.setattr(protocols, "_sector_split", counted)
    runs = rate_sweep(e, d, 12, [-0.25, 0.0, 0.25], trials=40, seed=37)
    assert len(splits) >= 1
    for run in runs:
        fids, rate = reference_fidelities(
            e, d, 12, run.delta, 40, 37, failure=lambda plan, data, members, w: _reference_failure_fidelity(plan, data, members)
        )
        assert run.fidelities == pytest.approx(fids, rel=1e-12, abs=0.0)
        assert run.qubit_rate_used == rate


def test_rate_sweep_builds_each_plan_geometry_once(monkeypatch):
    # pass B makes one `_failure_fidelities` call per plan key with failure branches,
    # and each call on a mixed block builds its plan's `_subspace` once: on the
    # bench's 3x1,2x2 sweep, and on an all-pure sweep, which builds none. Stream blocks
    # of 16 trials spread a plan's failure branches over many pass-A slices
    monkeypatch.setattr(streams, "_STREAM_BLOCK", 16)
    calls, built = [], []
    real_fidelities, real_subspace = protocols._failure_fidelities, protocols._subspace

    def counted_subspace(plan):
        built.append(plan)
        return real_subspace(plan)

    def counted(plan, data, members, w):
        calls.append((plan, data.all_pure))
        return real_fidelities(plan, data, members, w)

    monkeypatch.setattr(protocols, "_subspace", counted_subspace)
    monkeypatch.setattr(protocols, "_failure_fidelities", counted)
    e, _ = planted_ensemble(PlantSpec(blocks=BENCH_PLANTS["3x1,2x2"], num_states=3, seed=1))
    rate_sweep(e, ki_decompose(e), 12, [-0.25, 0.0, 0.25], trials=200, seed=0)
    mixed = [plan for plan, pure in calls if not pure]
    assert len(mixed) > 1 and len(built) == len(mixed)
    assert all(a is b for a, b in zip(built, mixed))
    assert len({id(plan) for plan, _ in calls}) == len(calls)  # no plan key solved twice
    calls.clear()
    e, d = two_pure()
    rate_sweep(e, d, 8, [-0.3, 0.0], trials=40, seed=1)
    assert calls and all(pure for _, pure in calls) and len(built) == len(mixed)


def _reference_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_class_step(r, length):
    """The (classes, letters) table built one dict lookup per entry, as before the ranked build."""
    prev, cur = protocols._compositions(r, length - 1), protocols._compositions(r, length)
    index = {c: i for i, c in enumerate(map(tuple, prev.tolist()))}
    return np.array(
        [[index.get(c[:a] + (c[a] - 1,) + c[a + 1 :], len(prev)) for a in range(r)] for c in map(tuple, cur.tolist())],
        dtype=np.int64,
    ).reshape(len(cur), r)


# from r = 67 on, C(n, y) passes int64 for some y <= r - 1 that no rank reads
@pytest.mark.parametrize(
    "r, lengths", [*((r, range(1, 13)) for r in range(2, 7)), (16, range(1, 6)), (67, range(1, 3)), (68, range(1, 2))]
)
def test_class_step_matches_the_dict_build_byte_for_byte(r, lengths):
    for length in lengths:
        got, want = protocols._class_step(r, length), _reference_class_step(r, length)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes(), (r, length)
        assert not got.flags.writeable


def _reference_compression_plan(spectrum, length, delta):
    """The class-by-class plan construction that the table-driven one replaced."""
    r = len(spectrum)
    full_dim = r**length
    s_rate = float(-np.sum(spectrum * np.log2(np.clip(spectrum, 1e-300, None))))
    budget = max(math.floor(length * (s_rate + delta) + _BOUNDARY_GUARD), 0)
    if 2**budget >= full_dim:
        return True, full_dim, [], None
    log2lam = np.log2(np.clip(spectrum, 1e-300, None))
    ranked = sorted(_reference_compositions(length, r), key=lambda c: (-float(np.dot(c, log2lam)), c))
    full_classes, partial, room = [], None, 2**budget
    for counts in ranked:
        size = _multinomial(counts)
        if size <= room:
            full_classes.append(counts)
            room -= size
        else:
            if room > 0:
                partial = (counts, _lex_sequences(counts, room))
            room = 0
        if room == 0:
            break
    return False, 2**budget, full_classes, partial


def _test_spectra():
    rng = np.random.default_rng(3)
    for r in range(1, 6):
        yield np.full(r, 1.0 / r)  # every class ties with its permutations
        yield np.array([0.5] + [0.5 / (r - 1)] * (r - 1)) if r > 1 else np.ones(1)
        yield np.sort(rng.integers(1, 4, r).astype(float))[::-1]  # repeated eigenvalues
        for _ in range(2):
            yield np.sort(rng.random(r) ** 3)[::-1]


def test_compression_plan_matches_class_by_class_reference():
    cases = 0
    for spectrum in _test_spectra():
        spectrum = spectrum / spectrum.sum()
        entropy = float(-np.sum(spectrum * np.log2(spectrum)))
        r = len(spectrum)
        for length in range(1, 13):
            if r**length > 2**14:
                break
            for delta in (-0.3, 0.0, 0.2):
                full, dim, want_classes, partial = _reference_compression_plan(spectrum, length, delta)
                plan = _compression_plan(spectrum, entropy, length, delta, {})
                assert (plan.full, plan.dim, full_classes_of(plan)) == (full, dim, want_classes)
                assert (plan.partial is None) == (partial is None)
                if partial is not None:  # the sequences carry their class's counts
                    assert np.bincount(plan.partial[0], minlength=r).tolist() == list(partial[0])
                    assert np.array_equal(plan.partial, partial[1])
                cases += not full
    assert cases > 100


def test_compression_budget_rounds_up_only_within_round_off_of_an_integer():
    # a uniform qubit spectrum (entropy 1) over 4 messages: the budget 4 (1 + delta)
    # sits 1e-13 or 1e-10 under 3 qubits. The first is round-off of an exact 3 and
    # keeps 8 sequences; the second is a genuine shortfall and keeps 4
    spectrum = np.array([0.5, 0.5])
    for gap, qubits in ((1e-13, 3), (1e-10, 2)):
        delta = -0.25 - gap / 4
        assert 3 - 4 * (1 + delta) == pytest.approx(gap, rel=1e-2)
        plan = _compression_plan(spectrum, 1.0, 4, delta, {})
        assert (plan.full, plan.qubits, plan.dim) == (False, qubits, 2**qubits)


# -- type-class enumeration against the recursive enumerator --------------------


def _reference_lex_sequences(counts, limit):
    """The backtracking enumerator that the successor step replaced."""
    length = sum(counts)
    out, prefix, remaining = [], [], list(counts)

    def rec():
        if len(out) >= limit:
            return
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for a in range(len(remaining)):
            if remaining[a] > 0:
                remaining[a] -= 1
                prefix.append(a)
                rec()
                prefix.pop()
                remaining[a] += 1
                if len(out) >= limit:
                    return

    rec()
    return np.array(out, dtype=np.int64).reshape(len(out), length)


def test_lex_sequences_match_recursive_enumeration():
    cases = 0
    for r in range(1, 5):
        for length in range(1, 13):
            for counts in _reference_compositions(length, r):
                size = _multinomial(counts)
                want = _reference_lex_sequences(counts, min(size, 64))
                for limit in sorted({1, min(size, 2), min(size, 64)}):
                    got = _lex_sequences(counts, limit)
                    assert got.dtype == np.int64 and np.array_equal(got, want[:limit])
                    cases += 1
    # the last limit of a small class is the whole class: every row, in order
    assert np.array_equal(_lex_sequences((1, 2), 3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert cases > 6000


# -- the plan formulas against a brute-force subspace and kron group state -----


@pytest.mark.parametrize("blocks", sorted(BENCH_PLANTS.values()), ids=sorted(BENCH_PLANTS))
def test_plan_formulas_match_brute_force_subspace(blocks):
    e, _ = planted_ensemble(PlantSpec(blocks=blocks, num_states=3, seed=1))
    partial = 0
    for data in block_data(e, ki_decompose(e)):
        r = len(data.spectrum)
        log2lam = np.log2(data.spectrum)
        for length in (1, 2, 3):

            def rank(seq):
                counts = tuple(np.bincount(seq, minlength=r).tolist())
                return (-float(np.dot(counts, log2lam)), counts, seq)

            ranked = sorted(itertools.product(range(r), repeat=length), key=rank)
            for delta in (-0.6, -0.4, -0.2, -0.1, 0.0, 0.1):
                plan = _compression_plan(data.spectrum, data.entropy, length, delta, {})
                if plan.full:
                    continue
                partial += plan.partial is not None
                # the subspace as indices of the kron product basis
                idx = [int(np.ravel_multi_index(s, (r,) * length)) for s in ranked[: plan.dim]]
                for members in itertools.product(range(len(data.rotated)), repeat=length):
                    sigma = functools.reduce(np.kron, [data.rotated[i] for i in members])
                    rows = reference_diag_rows(data, members)
                    w = reference_overlap_weight(plan, rows, reference_class_sums(rows))
                    assert w == pytest.approx(float(np.trace(sigma[np.ix_(idx, idx)]).real), abs=1e-12)
                    # P sigma P and P / dim written on the range of P; in the full
                    # r^N space the round-off of the null eigenvalues passes through
                    # the square roots and moves the fidelity by about 4e-9
                    want = fidelity(sigma[np.ix_(idx, idx)], np.eye(plan.dim) / plan.dim)
                    assert failure_fidelity(plan, data, list(members), w) == pytest.approx(want, abs=1e-12)
    assert partial > 0
