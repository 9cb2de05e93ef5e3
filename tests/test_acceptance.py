"""Acceptance suite: one test per release criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The benchmark-shaped tables come from the seeded
generators in fairtree.datasets (exact published row/group counts, documented
group-rate gaps), since the original files are not bundled.
"""

import time

import numpy as np
import pytest

import oracle
from conftest import relabel_bound, table_rows, toy_table
from fairtree.cli import main
from fairtree.data import GroupCounts, discretize_all, group_counts, write_csv
from fairtree.datasets import make_adult, make_german
from fairtree.divergence import conditional_divergence, divergence_gain, fallback_gain
from fairtree.eval import TrainConfig, sweep
from fairtree.relabel import DEMOTE, PROMOTE, apply, census, plan
from fairtree.tree import Internal, Leaf, build, evaluate_splits, leaf_disc, route, stats


def report(name: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} ({time.perf_counter() - t0:.1f}s) {detail}")


# -- 1. leaf discrimination reference values -----------------------------------


def test_c1_leaf_disc_reference_values():
    t0 = time.perf_counter()
    exact = leaf_disc(GroupCounts(6, 0, 0, 1))
    close = leaf_disc(GroupCounts(11, 9, 0, 2))
    ok = exact == 2.0 and abs(close - 1.1) <= 1e-9
    report("C1 leaf-disc reference values", ok, f"(6,0,0,1)->{exact} (11,9,0,2)->{close}", t0)
    assert exact == 2.0
    assert close == pytest.approx(1.1, abs=1e-9)


# -- 2. divergence-gain proposition suite ---------------------------------------

N_INSTANCES = 1000


def test_c2_zero_gain_for_identical_group_distributions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(N_INSTANCES):
        rp, rn = rng.integers(1, 5), rng.integers(1, 5)
        children = []
        for _ in range(rng.integers(1, 5)):
            # both groups present in every child, sharing the class ratio rp:rn
            kf, kd = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            children.append(GroupCounts(kf * rp, kf * rn, kd * rp, kd * rn))
        parent = GroupCounts(0, 0, 0, 0)
        for c in children:
            parent = parent + c
        for measure in ("kl", "euclid"):
            worst = max(worst, abs(divergence_gain(parent, children, measure, laplace=False)))
    ok = worst <= 1e-9
    report("C2a identical group distributions give zero gain", ok, f"max |gain| = {worst:.2e}", t0)
    assert worst <= 1e-9


def test_c2_unequal_children_give_positive_conditional_divergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    smallest = float("inf")
    for _ in range(N_INSTANCES):
        children = [GroupCounts(*(int(x) for x in rng.integers(1, 6, size=4))) for _ in range(3)]
        a = rng.integers(1, 5)
        unequal = GroupCounts(int(a) + 1, 1, 1, int(a) + 1)  # opposed group rates
        children.append(unequal)
        for measure in ("kl", "euclid"):
            smallest = min(smallest, conditional_divergence(children, measure))
    ok = smallest > 0.0
    report("C2b unequal children give positive divergence", ok, f"min = {smallest:.2e}", t0)
    assert smallest > 0.0


def test_c2_independent_test_gain_within_1e9():
    t0 = time.perf_counter()
    rng = np.random.default_rng(203)
    worst = 0.0
    for _ in range(N_INSTANCES):
        base = tuple(int(x) for x in rng.integers(1, 7, size=4))
        mults = [int(x) for x in rng.integers(1, 6, size=int(rng.integers(1, 5)))]
        children = [GroupCounts(*(m * b for b in base)) for m in mults]
        parent = GroupCounts(*(sum(mults) * b for b in base))
        for measure in ("kl", "euclid"):
            worst = max(worst, abs(divergence_gain(parent, children, measure, laplace=False)))
    ok = worst <= 1e-9
    report("C2c class-independent test gain", ok, f"max |gain| = {worst:.2e}", t0)
    assert worst <= 1e-9


def _random_one_group_partition(rng, deprived_side: bool):
    pos, neg = int(rng.integers(0, 10)), int(rng.integers(0, 10))
    if pos + neg == 0:
        pos = 1
    k = int(rng.integers(1, 5))
    child_pos = rng.multinomial(pos, np.full(k, 1.0 / k))
    child_neg = rng.multinomial(neg, np.full(k, 1.0 / k))
    if deprived_side:
        parent = GroupCounts(0, 0, pos, neg)
        children = [GroupCounts(0, 0, int(p), int(n)) for p, n in zip(child_pos, child_neg)]
        pairs = [(int(p), int(n)) for p, n in zip(child_pos, child_neg)]
    else:
        parent = GroupCounts(pos, neg, 0, 0)
        children = [GroupCounts(int(p), int(n), 0, 0) for p, n in zip(child_pos, child_neg)]
        pairs = [(int(p), int(n)) for p, n in zip(child_pos, child_neg)]
    return parent, children, (pos, neg), pairs


def test_c2_single_group_kl_reduces_to_entropy_gain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(204)
    worst = 0.0
    for i in range(N_INSTANCES):
        parent, children, ppair, cpairs = _random_one_group_partition(rng, deprived_side=i % 2 == 0)
        ours = fallback_gain(parent, children, "kl")
        ref = oracle.entropy_gain(ppair, cpairs)
        worst = max(worst, abs(ours - ref))
    ok = worst <= 1e-10
    report("C2d one-group KL gain equals entropy gain", ok, f"max |diff| = {worst:.2e}", t0)
    assert worst <= 1e-10


def test_c2_single_group_euclid_reduces_to_gini_gain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(205)
    worst = 0.0
    for i in range(N_INSTANCES):
        parent, children, ppair, cpairs = _random_one_group_partition(rng, deprived_side=i % 2 == 1)
        ours = fallback_gain(parent, children, "euclid")
        ref = oracle.gini_gain(ppair, cpairs)
        worst = max(worst, abs(ours - ref))
    ok = worst <= 1e-10
    report("C2e one-group Euclid gain equals Gini gain", ok, f"max |diff| = {worst:.2e}", t0)
    assert worst <= 1e-10


# -- 3. brute-force oracle equivalence ------------------------------------------


def _check_dataset_against_oracle(rows, n_attrs):
    """Root choice and all scores must match the independent evaluation."""
    cols = {f"a{j}": [r[j] for r in rows] for j in range(n_attrs)}
    t = toy_table(cols, [r[n_attrs] for r in rows], [r[n_attrs + 1] for r in rows])
    worst = 0.0
    for criterion in ("kl", "euclid"):
        feats = t.schema.feature_names
        evals = evaluate_splits(t, np.arange(t.n_rows), feats, criterion)
        j_ref, metrics = oracle.best_attribute(table_rows(t), n_attrs, criterion)
        for e, m in zip(evals, metrics):
            worst = max(worst, abs(e.raw_gain - m["raw_gain"]), abs(e.normalizer - m["normalizer"]))
        tree = build(t, criterion)
        if j_ref is None:
            assert isinstance(tree.root, Leaf), f"expected leaf, split on {tree.root}"
        else:
            assert isinstance(tree.root, Internal)
            assert tree.root.attribute == feats[j_ref]
    return worst


def test_c3_exhaustive_and_sampled_oracle_equivalence():
    t0 = time.perf_counter()
    from itertools import combinations_with_replacement, product

    worst = 0.0
    n_exhaustive = 0
    row_types = list(product([0, 1], repeat=4))  # (a0, a1, favored, positive)
    for combo in combinations_with_replacement(row_types, 4):
        worst = max(worst, _check_dataset_against_oracle(list(combo), 2))
        n_exhaustive += 1

    rng = np.random.default_rng(300)
    n_sampled = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        n_attrs = int(rng.integers(2, 4))
        ks = rng.integers(2, 4, size=n_attrs)
        rows = [
            tuple(int(rng.integers(0, ks[j])) for j in range(n_attrs))
            + (bool(rng.integers(0, 2)), bool(rng.integers(0, 2)))
            for _ in range(n)
        ]
        worst = max(worst, _check_dataset_against_oracle(rows, n_attrs))
        n_sampled += 1

    ok = worst <= 1e-10
    report(
        "C3 oracle equivalence",
        ok,
        f"max |score diff| = {worst:.2e} over {n_exhaustive} exhaustive + {n_sampled} sampled datasets",
        t0,
    )
    assert worst <= 1e-10


# -- 4. relabeling soundness on the credit benchmark ----------------------------


@pytest.fixture(scope="module")
def german_relabeled(german):
    tree = build(german, "kl")
    p = plan(census(tree, german), 0.0, seed=42)
    out = apply(p, german)
    return german, tree, p, out


def test_c4_bound_after_relabel_every_leaf(german_relabeled):
    # promote/demote only moves labels toward the deprived group, so at sigma 0
    # no two-group leaf may end above the bound; a leaf below -bound must be one
    # that was reverse-discriminated (disc < 0) before and is unchanged, since
    # legal flips can only widen a reversed gap
    t0 = time.perf_counter()
    german, tree, p, out = german_relabeled
    leaf_of = route(tree, german)
    violations, n_leaves, residue = [], 0, 0
    for leaf in tree.leaves():
        rows = np.nonzero(leaf_of == leaf.id)[0]
        if rows.size == 0:
            continue
        before = group_counts(german, rows)
        if before.n_fav == 0 or before.n_dep == 0:
            continue
        n_leaves += 1
        after = group_counts(out, rows)
        bound = relabel_bound(before)
        disc = leaf_disc(after)
        if disc < -bound - 1e-12 and leaf_disc(before) < 0.0 and after == before:
            residue += 1
        elif abs(disc) > bound + 1e-12:
            violations.append((leaf.id, before.as_tuple(), round(disc, 4), round(bound, 4)))
    ok = not violations
    detail = (
        f"{n_leaves} two-group leaves, none above the rounding bound; {residue} "
        f"reverse-discriminated leaves left unchanged outside the two-sided bound"
    )
    if violations:
        detail = f"{len(violations)} leaves outside the bound: {violations[:5]}"
    report("C4a relabel bound on every two-group leaf", ok, detail, t0)
    assert not violations, detail


def test_c4_bound_after_relabel_on_nonreversed_leaves(german_relabeled):
    # every leaf the algorithm owns (disc >= 0) ends within the rounding bound
    # on both sides, and reversed leaves are untouched
    t0 = time.perf_counter()
    german, tree, p, out = german_relabeled
    leaf_of = route(tree, german)
    worst_margin = 0.0
    for leaf in tree.leaves():
        rows = np.nonzero(leaf_of == leaf.id)[0]
        if rows.size == 0:
            continue
        before = group_counts(german, rows)
        if before.n_fav == 0 or before.n_dep == 0:
            continue
        after = group_counts(out, rows)
        if leaf_disc(before) >= 0.0:
            worst_margin = max(worst_margin, abs(leaf_disc(after)) - relabel_bound(before))
        else:
            assert after == before
    ok = worst_margin <= 1e-12
    report("C4b relabel bound on leaves with nonnegative disc", ok,
           f"worst margin over bound = {worst_margin:.2e}", t0)
    assert worst_margin <= 1e-12


def test_c4_only_legal_transitions(german_relabeled):
    t0 = time.perf_counter()
    german, tree, p, out = german_relabeled
    before, after = german.positive_mask, out.positive_mask
    fav = german.favored_mask
    changed = np.nonzero(before != after)[0]
    promoted = sum(1 for r in changed if not fav[r] and not before[r] and after[r])
    demoted = sum(1 for r in changed if fav[r] and before[r] and not after[r])
    ok = promoted + demoted == changed.size and changed.size == sum(a.count for a in p.actions)
    report("C4c only deprived - to + and favored + to - transitions", ok,
           f"{promoted} promotions, {demoted} demotions, {changed.size} changes", t0)
    assert ok


def test_c4_non_label_columns_byte_identical(tmp_path):
    t0 = time.perf_counter()
    src = tmp_path / "german.csv"
    write_csv(make_german(), src)
    out = tmp_path / "out"
    assert main(["build", "--data", str(src), "--label", "credit_risk", "--positive", "good",
                 "--sensitive", "age", "--favored", ">25", "--out", str(out)]) == 0
    rel = tmp_path / "rel"
    assert main(["relabel", "--tree", str(out / "tree.json"), "--data", str(src),
                 "--sigma", "0", "--seed", "42", "--out", str(rel)]) == 0
    original = src.read_text(encoding="utf-8").splitlines()
    relabeled = (rel / "relabeled.csv").read_text(encoding="utf-8").splitlines()
    label_col = original[0].split(",").index("credit_risk")
    ok = len(original) == len(relabeled)
    changed = 0
    for a, b in zip(original, relabeled):
        fa, fb = a.split(","), b.split(",")
        fa.pop(label_col), fb.pop(label_col)
        if fa != fb:
            ok = False
        if a != b:
            changed += 1
    report("C4d non-label columns byte-identical", ok, f"{changed} rows relabeled", t0)
    assert ok and changed > 0


# -- 5/6. tradeoff sweeps --------------------------------------------------------

GRID = [round(0.1 * i, 10) for i in range(21)]
SWEEP_CONFIG = TrainConfig(epochs=400, learning_rate=0.1, seed=0)


@pytest.fixture(scope="module")
def german_kl_sweep(german):
    return sweep(german, "kl", GRID, seed=42, train_config=SWEEP_CONFIG, folds=10)


@pytest.fixture(scope="module")
def german_e_sweep(german):
    return sweep(german, "euclid", GRID, seed=42, train_config=SWEEP_CONFIG, folds=10)


@pytest.fixture(scope="module")
def compas_kl_sweep(compas):
    return sweep(compas, "kl", GRID, seed=42, train_config=SWEEP_CONFIG, folds=10)


@pytest.fixture(scope="module")
def compas_e_sweep(compas):
    return sweep(compas, "euclid", GRID, seed=42, train_config=SWEEP_CONFIG, folds=10)


def _best_abs_dp(result):
    return min(result.variant_rows("raw"), key=lambda r: abs(r.dp_mean))


def test_c5_credit_tradeoff(german_kl_sweep):
    t0 = time.perf_counter()
    base = german_kl_sweep.baseline()
    best = _best_abs_dp(german_kl_sweep)
    acc_drop = base.acc_mean - best.acc_mean
    ok = abs(best.dp_mean) <= 0.05 and acc_drop <= 0.10
    report("C5a credit-data tradeoff", ok,
           f"min |DP| = {abs(best.dp_mean):.4f} at sigma={best.sigma} "
           f"(baseline DP {base.dp_mean:+.4f}), accuracy drop {acc_drop:+.4f}", t0)
    assert abs(best.dp_mean) <= 0.05
    assert acc_drop <= 0.10


def test_c5_recidivism_tradeoff(compas_kl_sweep):
    t0 = time.perf_counter()
    best = _best_abs_dp(compas_kl_sweep)
    ok = abs(best.dp_mean) <= 0.05
    report("C5b recidivism-data tradeoff", ok,
           f"min |DP| = {abs(best.dp_mean):.4f} at sigma={best.sigma}", t0)
    assert abs(best.dp_mean) <= 0.05


def test_c6_kl_at_least_as_fair_as_euclid_somewhere(
    german_kl_sweep, german_e_sweep, compas_kl_sweep, compas_e_sweep
):
    t0 = time.perf_counter()
    pairs = {
        "credit": (abs(_best_abs_dp(german_kl_sweep).dp_mean), abs(_best_abs_dp(german_e_sweep).dp_mean)),
        "recidivism": (abs(_best_abs_dp(compas_kl_sweep).dp_mean), abs(_best_abs_dp(compas_e_sweep).dp_mean)),
    }
    ok = any(klv <= ev for klv, ev in pairs.values())
    detail = "; ".join(f"{name}: KL {klv:.4f} vs Euclid {ev:.4f}" for name, (klv, ev) in pairs.items())
    report("C6 KL criterion at least as fair as Euclid on some dataset", ok, detail, t0)
    assert ok


# -- 7. interpretability statistics ---------------------------------------------


def test_c7_income_tree_interpretability():
    t0 = time.perf_counter()
    adult = discretize_all(make_adult())
    tree = build(adult, "kl")
    s = stats(tree)
    ok = 8 <= s.depth <= 14 and s.sparsity < s.node_count
    report("C7 income-data tree stats", ok,
           f"nodes={s.node_count} sparsity={s.sparsity} depth={s.depth} (band [8, 14])", t0)
    assert 8 <= s.depth <= 14
    assert s.sparsity < s.node_count


# -- 8. end-to-end determinism ----------------------------------------------------


def test_c8_pipeline_byte_determinism(tmp_path):
    t0 = time.perf_counter()
    src = tmp_path / "german.csv"
    write_csv(make_german(), src)
    outputs = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        spec = ["--label", "credit_risk", "--positive", "good",
                "--sensitive", "age", "--favored", ">25"]
        assert main(["build", "--data", str(src), *spec, "--out", str(base / "tree")]) == 0
        assert main(["relabel", "--tree", str(base / "tree" / "tree.json"), "--data", str(src),
                     "--sigma", "0.5", "--seed", "42", "--out", str(base / "rel")]) == 0
        assert main(["sweep", "--data", str(src), *spec, "--grid", "0:2:0.5", "--folds", "3",
                     "--epochs", "120", "--seed", "42", "--out", str(base / "sweep")]) == 0
        outputs.append({
            "tree": (base / "tree" / "tree.json").read_bytes(),
            "plan": (base / "rel" / "plan.json").read_bytes(),
            "relabeled": (base / "rel" / "relabeled.csv").read_bytes(),
            "sweep": (base / "sweep" / "sweep.csv").read_bytes(),
        })
    same = {k: outputs[0][k] == outputs[1][k] for k in outputs[0]}
    ok = all(same.values())
    report("C8 pipeline byte determinism", ok, f"identical: {sorted(k for k, v in same.items() if v)}", t0)
    assert ok, same
