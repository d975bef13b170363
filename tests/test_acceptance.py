"""End-to-end acceptance gate. One test per criterion; each prints a
single PASS/FAIL line (run with -s or -rA to see them all).

Rank clauses check the rank that data from the plant can attain, not the
row count of the stacked data matrix [u_now; histories]. Every output-
history row is a linear combination of the n state rows and the input-
Hankel rows (Willems et al.'s fundamental lemma), so the attainable rank is
m(n+1) + rank(O_s), where O_s stacks C_s, C_s A, ..., C_s A^(n-1) for the
subset's sensors. The tests compute it from the plant's (A, B, C), never
from the learner, so a learner that over- or under-counts still fails:

* criteria 1 and 4 expect the 6-state benchmark's attack-free subsets to
  reach m(n+1) + n = 13 (the row count m(n+1) + q*n = 19 is unattainable),
  and criterion 4 expects the replay-attacked subsets to miss it;
* criterion 7 expects the unobservable pair to reach only
  m(n+1) + rank(O_s) = 4, one below the certifying rank 5;
* criterion 5 checks that the learned predictor is the plant's companion-
  form generator. A multi-output lag-n generator is not unique and the
  data span only the attainable regressor subspace, so equality is checked
  on that subspace for every subset, and entry by entry for single-sensor
  subsets, where the generator is unique.
"""

import time

import numpy as np

from sentinel.attacks import (
    DelayAttack,
    ReplayAttack,
    apply_attack,
    enumerate_subsets,
    seeded_injection_signal,
)
from sentinel.cli import benchmark_plant, excited_run, main
from sentinel.datamat import (
    Trajectory,
    build_subset_matrices,
    generate_pe_input,
    is_persistently_exciting,
)
from sentinel.ddmodel import certifying_rank, learn_lambda, learn_model, rank_condition
from sentinel.identify import (
    first_response,
    identify_delay,
    identify_replay,
    injection_bootstrap,
    injection_step,
)
from sentinel.linalg import DEFAULT_TOL
from sentinel.plant import StateSpace, random_test_system, relative_degree, simulate

from oracles import (
    extended_state_space,
    gathered_stacks,
    predictors,
    regressor_rows,
    ss_to_arx,
    target_rows,
)

SEED = 7
N_STATES = 6
COLUMNS = 41
EXC_ORDER = 19  # (m + q) * n + 1 for m=1, q=2, n=6


def _report(num: int, title: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {title}")
    for name, good in checks.items():
        if not good:
            print(f"    failing clause: {name}")


def _assert_all(num: int, checks: dict) -> None:
    for name, good in checks.items():
        assert good, f"criterion {num}: {name}"


def _benchmark_model(seed=SEED, scale_c=1.0):
    ss = benchmark_plant(scale_c)
    traj, pe_seed = excited_run(ss, N_STATES, COLUMNS, EXC_ORDER, seed,
                                seed + 101, DEFAULT_TOL)
    return ss, learn_model(traj, 1, N_STATES, COLUMNS, pe_seed=pe_seed), traj


def _attainable_rank(ss, indices) -> int:
    """m(n+1) + rank(O_s) for the 1-based sensor subset `indices`: the
    highest rank of [u_now; histories] that data from `ss` can reach."""
    a = np.asarray(ss.A)
    block = np.asarray(ss.C)[[s - 1 for s in indices]]
    blocks = [block]
    for _ in range(a.shape[0] - 1):
        block = block @ a
        blocks.append(block)
    m = np.asarray(ss.B).shape[1]
    return m * (a.shape[0] + 1) + int(np.linalg.matrix_rank(np.vstack(blocks)))


def _sampled_system(index: int):
    """System i of the shared 100-system pool for criteria 5 and 6."""
    rng = np.random.default_rng([5150, index])
    n = int(rng.integers(1, 5))
    n_sensors = int(rng.integers(2, 5))
    ss = random_test_system(rng, n, 1, n_sensors, n_sensors - 1)
    return ss, n, n_sensors, rng


def test_criterion_01_injection_reproduction():
    t0 = time.perf_counter()
    ss, model, traj = _benchmark_model()
    # the ranks the recording the model learned from reaches, measured again
    ranks = rank_condition(build_subset_matrices(traj, model.subsets, N_STATES, COLUMNS))
    observed = dict(zip(model.subsets, ranks))
    attainable = {s: _attainable_rank(ss, s) for s in observed}

    onset = N_STATES + 10
    signal = seeded_injection_signal(SEED + 404, onset)
    boot_u = np.random.default_rng(SEED + 202).uniform(-1, 1, (1, N_STATES))
    states, boot_y = simulate(ss, np.zeros(N_STATES), boot_u)
    monitor = injection_bootstrap(model, boot_u, boot_y)
    u_all = [boot_u]
    y_all = [boot_y]
    test_rng = np.random.default_rng(SEED + 303)
    x = states[:, -1]
    verdict = None
    detect_k = None
    attack_sample = None
    for k in range(N_STATES, N_STATES + 40):
        y_k = np.asarray(ss.C @ x)
        if k >= onset:
            y_k[2] += signal(3, k)
        u_k = test_rng.uniform(-1, 1, 1)
        u_all.append(u_k.reshape(1, 1))
        y_all.append(y_k.reshape(3, 1))
        verdict = injection_step(monitor, u_k, y_k)
        x = ss.A @ x + ss.B @ u_k
        if not verdict.all_clear:
            detect_k = k
            attack_sample = abs(signal(3, k))
            break
    u_rec = np.hstack(u_all)
    y_rec = np.hstack(y_all)
    # each subset's residual ||a[S_j]||, from the step's decode a
    decode = np.array(verdict.values)
    scores = {s: float(np.sqrt((decode[[i - 1 for i in s]] ** 2).sum()))
              for s in verdict.subsets}
    window = slice(detect_k - N_STATES + 1, detect_k + 1)
    # subset {1, 2}'s next history: its outputs, time-major, then the inputs
    clean_state = np.concatenate([y_rec[[0, 1], window].T.reshape(-1),
                                  u_rec[:, window].T.reshape(-1)])
    scale = float(np.linalg.norm(clean_state))
    elapsed = time.perf_counter() - t0

    checks = {
        "rank certificate holds for all 3 subsets":
            all(rank == certifying_rank(1, N_STATES) for rank in ranks),
        "attack sample at onset is zero (undetectable step)":
            signal(3, onset) == 0.0,
        "winners are exactly the subset {1,2}": verdict.winners == (1,),
        "clean-subset residual < 1e-8 * scale": scores[(1, 2)] < 1e-8 * scale,
        "residuals of subsets holding sensor 3 >= 0.9 * |attack sample|":
            scores[(1, 3)] >= 0.9 * attack_sample
            and scores[(2, 3)] >= 0.9 * attack_sample,
        "detection within 2 steps of onset": detect_k - onset + 1 <= 2,
        "runtime < 1 s": elapsed < 1.0,
        "observed stacked rank equals the attainable m(n+1) + rank(O_s) for "
        f"all 3 subsets (attainable {attainable}, observed {observed})":
            observed == attainable,
    }
    _report(1, "benchmark injection attack reproduction", checks)
    _assert_all(1, checks)


def test_criterion_02_relative_degrees():
    t0 = time.perf_counter()
    ss = benchmark_plant(0.1)
    degrees = tuple(relative_degree(ss, j) for j in (1, 2, 3))
    elapsed = time.perf_counter() - t0
    checks = {
        "relative degrees are exactly (1, 2, 1)": degrees == (1, 2, 1),
        "runtime < 0.1 s": elapsed < 0.1,
    }
    _report(2, "benchmark relative degrees with rescaled outputs", checks)
    _assert_all(2, checks)


def test_criterion_03_delay_reproduction():
    t0 = time.perf_counter()
    ss = benchmark_plant(0.1)
    degrees = [relative_degree(ss, j) for j in (1, 2, 3)]
    u = np.zeros((1, 25))
    u[0, 0] = 0.1
    _, y = simulate(ss, np.zeros(N_STATES), u)
    attacked = apply_attack(Trajectory(u, y), DelayAttack((0, 5, 0)), max_attacked=1)
    timings = tuple(first_response(attacked.y[j]) for j in range(3))
    verdict = identify_delay(attacked.y, degrees)
    slacks = tuple(int(s) for s in verdict.values)
    elapsed = time.perf_counter() - t0
    checks = {
        "first responses are exactly (1, 7, 1)": timings == (1, 7, 1),
        "slacks are exactly (0, 5, 0)": slacks == (0, 5, 0),
        "winners are exactly sensors {1, 3}": verdict.attack_free_sensors == (1, 3),
        "runtime < 0.1 s": elapsed < 0.1,
    }
    _report(3, "benchmark delay attack reproduction", checks)
    _assert_all(3, checks)


def test_criterion_04_replay_reproduction():
    t0 = time.perf_counter()
    ss = benchmark_plant()
    traj, _ = excited_run(ss, N_STATES, COLUMNS, EXC_ORDER, SEED + 505,
                          SEED + 606, DEFAULT_TOL)
    attacked = apply_attack(traj, ReplayAttack({3: 0.01}), max_attacked=1)
    verdict = identify_replay(attacked, 1, N_STATES, COLUMNS)
    ranks = {s: int(rank) for s, rank in zip(verdict.subsets, verdict.values)}
    attainable = {s: _attainable_rank(ss, s) for s in ranks}
    elapsed = time.perf_counter() - t0
    checks = {
        "attacked subsets {1,3} and {2,3} miss the attainable rank "
        f"{attainable[(1, 3)]}, {attainable[(2, 3)]} "
        f"(observed {ranks[(1, 3)]}, {ranks[(2, 3)]})":
            ranks[(1, 3)] != attainable[(1, 3)] and ranks[(2, 3)] != attainable[(2, 3)],
        "attack-free subset {1,2} is the unique winner": verdict.winners == (1,),
        "runtime < 1 s": elapsed < 1.0,
        "subset {1,2} rank equals the attainable m(n+1) + rank(O_s) = "
        f"{attainable[(1, 2)]} (observed {ranks[(1, 2)]})":
            ranks[(1, 2)] == attainable[(1, 2)],
    }
    _report(4, "benchmark replay attack reproduction", checks)
    _assert_all(4, checks)


def test_criterion_05_representation_exactness():
    t0 = time.perf_counter()
    worst_prediction = 0.0
    worst_entrywise_single = 0.0
    worst_subspace_by_q = {}
    for i in range(100):
        ss, n, n_sensors, rng = _sampled_system(i)
        q = n_sensors - 1
        order = (1 + q) * n + 1
        columns = 2 * order + 6
        traj, _ = excited_run(ss, n, columns, order, int(rng.integers(0, 2 ** 31)),
                              int(rng.integers(0, 2 ** 31)), DEFAULT_TOL)
        val_u = rng.uniform(-1, 1, (1, n + 40))
        _, val_y = simulate(ss, np.zeros(n), val_u)
        val = Trajectory(val_u, val_y)
        for subset in enumerate_subsets(n_sensors, 1):
            train = build_subset_matrices(traj, (subset,), n, columns)
            lam = predictors(learn_lambda(train), regressor_rows(train), target_rows(train))[0]
            mats = build_subset_matrices(val, (subset,), n, 40)
            (regressors,), (targets,) = gathered_stacks(mats)
            rel = np.max(np.abs(lam @ regressors - targets)) / (1.0 + np.max(np.abs(targets)))
            worst_prediction = max(worst_prediction, float(rel))
            sub_ss = StateSpace(ss.A, ss.B,
                                np.asarray(ss.C)[[s - 1 for s in subset]])
            ext = extended_state_space(ss_to_arx(sub_ss))
            generator = np.hstack([ext.B_ext, ext.A_ext])
            scale = 1.0 + float(np.max(np.abs(generator)))
            # orthonormal basis of the regressor subspace the data span
            regressor = gathered_stacks(train)[0][0]
            basis = np.linalg.svd(regressor)[0][:, :_attainable_rank(ss, subset)]
            gap = float(np.max(np.abs((lam - generator) @ basis))) / scale
            worst_subspace_by_q[q] = max(worst_subspace_by_q.get(q, 0.0), gap)
            if q == 1:
                worst_entrywise_single = max(
                    worst_entrywise_single, float(np.max(np.abs(lam - generator))))
    elapsed = time.perf_counter() - t0
    checks = {
        "one-step prediction error on fresh data < 1e-8 relative, all subsets":
            worst_prediction < 1e-8,
        "runtime < 30 s": elapsed < 30.0,
        "learned predictor equals the companion generator on the attainable "
        "regressor subspace within 1e-8 relative, all subsets (worst gaps "
        f"by subset size: {worst_subspace_by_q})":
            max(worst_subspace_by_q.values()) < 1e-8,
        "learned predictor equals the companion generator entrywise within "
        f"1e-8 for single-sensor subsets (worst gap: {worst_entrywise_single})":
            worst_entrywise_single < 1e-8,
    }
    _report(5, "predictor exactness over 100 random plants", checks)
    _assert_all(5, checks)


def test_criterion_06_lag_recursion_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        ss, n, n_sensors, rng = _sampled_system(i)
        u = rng.uniform(-1, 1, (1, n + 60))
        for subset in enumerate_subsets(n_sensors, 1):
            sub_ss = StateSpace(ss.A, ss.B,
                                np.asarray(ss.C)[[s - 1 for s in subset]])
            arx = ss_to_arx(sub_ss)
            _, z = simulate(sub_ss, np.zeros(n), u)
            scale = 1.0 + np.max(np.abs(z))
            for k in range(n, z.shape[1]):
                pred = np.zeros(z.shape[0])
                for lag in range(n):
                    pred = pred + arx.out_coeffs[lag] @ z[:, k - n + lag]
                    pred = pred + arx.in_coeffs[lag] @ u[:, k - n + lag]
                worst = max(worst, float(np.max(np.abs(z[:, k] - pred))) / scale)
    elapsed = time.perf_counter() - t0
    checks = {
        "lag-n recursion residual < 1e-8 relative on all 100 plants": worst < 1e-8,
        "runtime < 30 s": elapsed < 30.0,
    }
    _report(6, "input-output recursion equivalence over 100 random plants", checks)
    _assert_all(6, checks)


def test_criterion_07_unobservable_subset_rank_deficiency():
    all_good = True
    detail = None
    for i in range(20):
        rng = np.random.default_rng([7700, i])
        # two sensors share a left eigenvector of an upper-triangular A, so
        # the pair {1,2} is unobservable while pairs with sensor 3 are not;
        # n=2 < q+1=3 puts the case inside the deficiency regime
        while True:
            diag = rng.uniform(-0.9, 0.9, 2)
            if abs(diag[0] - diag[1]) > 0.1:
                break
        a = np.array([[diag[0], rng.uniform(-1, 1)], [0.0, diag[1]]])
        b = rng.uniform(-1, 1, (2, 1))
        c = np.vstack([[0.0, 1.0], [0.0, 1.0], rng.uniform(-1, 1, (1, 2))])
        ss = StateSpace(a, b, c)
        n, q = 2, 2
        order = (1 + q) * n + 1
        columns = 2 * order + 6
        sig = generate_pe_input(1, columns, order, int(rng.integers(0, 2 ** 31)))
        fill = rng.uniform(-1, 1, (1, n + 1))
        u = np.hstack([fill[:, :n], sig.u, fill[:, n:]])
        _, y = simulate(ss, np.zeros(n), u)
        traj = Trajectory(u, y)
        for subset in enumerate_subsets(3, 1):
            (rank,) = rank_condition(build_subset_matrices(traj, (subset,), n, columns))
            good = (rank == _attainable_rank(ss, subset)
                    and (rank == certifying_rank(1, n)) == (subset != (1, 2)))
            if not good:
                all_good = False
                detail = (i, subset, rank)
    checks = {
        "every subset observes the attainable rank m(n+1) + rank(O_s) (4 "
        "for the unobservable pair, 5 otherwise), so the unobservable pair "
        "fails the certificate while observable pairs hold on all 20 plants":
            all_good,
    }
    _report(7, f"rank deficiency under unobservable subsets {detail or ''}", checks)
    _assert_all(7, checks)


def test_criterion_08_zero_attack_completeness():
    ss, model, _ = _benchmark_model()
    boot_u = np.random.default_rng(SEED + 202).uniform(-1, 1, (1, N_STATES))
    states, boot_y = simulate(ss, np.zeros(N_STATES), boot_u)
    monitor = injection_bootstrap(model, boot_u, boot_y)
    rng = np.random.default_rng(SEED + 303)
    x = states[:, -1]
    clear_steps = 0
    for _ in range(50):
        y_k = ss.C @ x
        u_k = rng.uniform(-1, 1, 1)
        verdict = injection_step(monitor, u_k, y_k)
        x = ss.A @ x + ss.B @ u_k
        if not verdict.all_clear:
            break
        clear_steps += 1
    checks = {"50 consecutive clean steps all report all-clear": clear_steps == 50}
    _report(8, "no false alarms over 50 clean online steps", checks)
    _assert_all(8, checks)


def test_criterion_09_excitation_generator():
    good = True
    for seed in range(20):
        sig = generate_pe_input(1, COLUMNS, EXC_ORDER, seed)
        if not is_persistently_exciting(sig.u, EXC_ORDER):
            good = False
    checks = {"20 distinct seeds yield order-19 exciting length-41 inputs": good}
    _report(9, "excitation generator certification", checks)
    _assert_all(9, checks)


def test_criterion_10_demo_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = main(["demo", "injection", "--seed", "7", "--out", str(out_a)])
    code_b = main(["demo", "injection", "--seed", "7", "--out", str(out_b)])
    names = sorted(p.name for p in out_a.iterdir())
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    checks = {
        "both runs exit 0": code_a == 0 and code_b == 0,
        "all output files byte-identical":
            identical and names == sorted(p.name for p in out_b.iterdir()),
    }
    _report(10, "demo output determinism", checks)
    _assert_all(10, checks)
