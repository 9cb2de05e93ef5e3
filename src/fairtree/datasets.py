"""Deterministic synthetic stand-ins for the three benchmark census/justice datasets.

The real files are not bundled, so these generators reproduce their published
shape: exact row and group counts, the same attribute mix, and group-conditional
positive rates at the documented levels, with the group penalty concentrated in
attribute-defined subgroups so that discriminatory regions of varying strength
exist. Given the same seed the output is identical across runs.
"""

from __future__ import annotations

import numpy as np

from .data import DataTable, LabelSpec, SensitiveSpec, table_from_columns


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


def _quantile_categories(z: np.ndarray, labels: list[str]) -> np.ndarray:
    """Near-equal-frequency categories ordered by a latent score."""
    ranks = np.empty(z.size, dtype=np.int64)
    ranks[np.argsort(z, kind="stable")] = np.arange(z.size)
    idx = ranks * len(labels) // z.size
    return np.array(labels, dtype=object)[idx]


def _calibrate_shift(logits: np.ndarray, target_rate: float) -> float:
    """Intercept shift making the mean predicted rate hit the target."""
    lo, hi = -30.0, 30.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _sigmoid(logits + mid).mean() < target_rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _calibrate_penalty(logits: np.ndarray, multipliers: np.ndarray, target_rate: float) -> float:
    """Penalty scale making the mean rate under per-row penalties hit the target."""
    lo, hi = 0.0, 30.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _sigmoid(logits - mid * multipliers).mean() > target_rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _labels(rng, base: np.ndarray, deprived: np.ndarray, multipliers: np.ndarray,
            fav_rate: float, dep_rate: float) -> np.ndarray:
    shift = _calibrate_shift(base[~deprived], fav_rate)
    logits = base + shift
    delta = _calibrate_penalty(logits[deprived], multipliers[deprived], dep_rate)
    logits = logits - delta * multipliers * deprived
    return rng.random(base.size) < _sigmoid(logits)


def _ints(values: np.ndarray) -> np.ndarray:
    """Each value as integer text, formatted once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([str(int(v)) for v in distinct.tolist()], dtype=object)[inverse]


def make_german(seed: int = 42) -> DataTable:
    """Credit-risk table: N=1000, favored age group 810, deprived 190, 20 attributes."""
    rng = np.random.default_rng([seed, 1])
    n, n_dep = 1000, 190
    deprived = np.zeros(n, dtype=bool)
    deprived[rng.permutation(n)[:n_dep]] = True
    u = rng.normal(0.0, 1.0, n) - 0.3 * deprived  # latent creditworthiness

    def noisy(scale):
        return u + rng.normal(0.0, scale, n)

    purposes = ["new_car", "used_car", "furniture", "radio_tv", "appliances",
                "repairs", "education", "business"]
    purpose = np.array(purposes, dtype=object)[rng.integers(0, len(purposes), n)]
    housing = _quantile_categories(noisy(1.2), ["rent", "own", "free"])

    cols = {
        "checking_status": _quantile_categories(noisy(0.8), ["none", "overdrawn", "some", "rich"]),
        "duration_months": _ints(np.clip(np.round(np.exp(2.9 - 0.35 * noisy(0.5))), 4, 72)),
        "credit_history": _quantile_categories(
            noisy(1.0), ["critical", "delayed", "existing_paid", "all_paid", "no_credits"]
        ),
        "purpose": purpose,
        "credit_amount": _ints(np.clip(np.round(np.exp(7.6 - 0.3 * noisy(0.6))), 250, 20000)),
        "savings_status": _quantile_categories(noisy(0.9), ["none", "small", "medium", "large", "rich"]),
        "employment_years": _quantile_categories(
            noisy(0.8) - 0.4 * deprived, ["unemployed", "<1", "1-4", "4-7", ">=7"]
        ),
        "installment_rate": _ints(rng.integers(1, 5, n)),
        "personal_status": _quantile_categories(noisy(1.5), ["single", "married", "divorced", "widowed"]),
        "other_debtors": np.array(["none", "guarantor", "co_applicant"], dtype=object)[
            rng.choice(3, n, p=[0.85, 0.08, 0.07])
        ],
        "residence_since": _ints(rng.integers(1, 5, n)),
        "property_type": _quantile_categories(noisy(1.0), ["none", "car", "savings", "real_estate"]),
        "age": np.where(deprived, "<=25", ">25").astype(object),
        "other_installment_plans": np.array(["none", "bank", "stores"], dtype=object)[
            rng.choice(3, n, p=[0.8, 0.12, 0.08])
        ],
        "housing": housing,
        "existing_credit_count": _ints(np.clip(rng.poisson(0.5, n) + 1, 1, 4)),
        "job_level": _quantile_categories(noisy(0.9), ["unskilled", "skilled", "management", "self_employed"]),
        "dependents_count": _ints(rng.choice([1, 2], n, p=[0.84, 0.16])),
        "telephone": _quantile_categories(noisy(1.4), ["none", "yes"]),
        "foreign_worker": np.array(["yes", "no"], dtype=object)[rng.choice(2, n, p=[0.96, 0.04])],
    }

    purpose_mult = {p: m for p, m in zip(purposes, [1.7, 1.3, 1.0, 0.6, 0.5, 0.9, 1.5, 1.2])}
    housing_mult = {"rent": 1.4, "own": 0.8, "free": 1.0}
    mult = np.array([purpose_mult[p] * housing_mult[h] for p, h in zip(purpose, housing)])
    y = _labels(rng, 1.3 * u, deprived, mult, fav_rate=0.73, dep_rate=0.57)
    cols["credit_risk"] = np.where(y, "good", "bad").astype(object)

    return table_from_columns(
        cols,
        LabelSpec("credit_risk", "good", "bad"),
        SensitiveSpec("age", ">25", "<=25"),
    )


def make_compas(seed: int = 42) -> DataTable:
    """Recidivism table: N=6167, favored group 2100, deprived 4067, 9 attributes."""
    rng = np.random.default_rng([seed, 2])
    n, n_fav = 6167, 2100
    deprived = np.ones(n, dtype=bool)
    deprived[rng.permutation(n)[:n_fav]] = False
    u = rng.normal(0.0, 1.0, n) - 0.25 * deprived  # latent: higher = less risk

    def noisy(scale):
        return u + rng.normal(0.0, scale, n)

    charges = ["battery", "theft", "drug_possession", "driving_offense", "assault",
               "burglary", "fraud", "weapons", "trespass", "other"]
    charge = np.array(charges, dtype=object)[rng.integers(0, len(charges), n)]
    age_group = _quantile_categories(noisy(1.1), ["<25", "25-45", ">45"])

    priors = np.clip(np.round(np.exp(1.0 - 0.9 * noisy(0.7)) - 0.6), 0, 38)
    cols = {
        "sex": np.array(["male", "female"], dtype=object)[rng.choice(2, n, p=[0.81, 0.19])],
        "age_group": age_group,
        "race": np.where(deprived, "non-caucasian", "caucasian").astype(object),
        "juvenile_felonies": _ints(np.clip(rng.poisson(np.where(u < -1.0, 0.6, 0.05)), 0, 6)),
        "juvenile_misdemeanors": _ints(np.clip(rng.poisson(np.where(u < -0.7, 0.7, 0.08)), 0, 8)),
        "juvenile_other": _ints(np.clip(rng.poisson(np.where(u < -0.5, 0.5, 0.1)), 0, 6)),
        "prior_offenses": _ints(priors),
        "charge_degree": _quantile_categories(noisy(1.3), ["felony", "misdemeanor"]),
        "charge_category": charge,
    }

    charge_mult = {c: m for c, m in zip(charges, [1.5, 1.1, 1.8, 0.5, 1.4, 1.2, 0.6, 1.6, 0.8, 1.0])}
    age_mult = {"<25": 1.5, "25-45": 1.0, ">45": 0.6}
    mult = np.array([charge_mult[c] * age_mult[a] for c, a in zip(charge, age_group)])
    y = _labels(rng, 1.1 * u, deprived, mult, fav_rate=0.61, dep_rate=0.49)
    cols["two_year_recid"] = np.where(y, "no", "yes").astype(object)

    return table_from_columns(
        cols,
        LabelSpec("two_year_recid", "no", "yes"),
        SensitiveSpec("race", "caucasian", "non-caucasian"),
    )


def make_adult(seed: int = 42) -> DataTable:
    """Income table: N=45222, favored group 30527, deprived 14695, 14 attributes."""
    rng = np.random.default_rng([seed, 3])
    n, n_dep = 45222, 14695
    deprived = np.zeros(n, dtype=bool)
    deprived[rng.permutation(n)[:n_dep]] = True
    u = rng.normal(0.0, 1.0, n)  # latent earning potential

    def noisy(scale):
        return u + rng.normal(0.0, scale, n)

    occupations = ["craft_repair", "exec_managerial", "prof_specialty", "sales", "clerical",
                   "machine_op", "transport", "farming", "tech_support", "protective",
                   "handlers", "services", "household"]
    occupation = _quantile_categories(noisy(0.9) - 0.5 * deprived, occupations[::-1])
    relationship = _quantile_categories(
        noisy(1.2) - 0.8 * deprived, ["own_child", "unmarried", "other_relative", "not_in_family", "wife", "husband"]
    )
    hours = np.clip(np.round(40 + 9 * noisy(0.8) - 3 * deprived), 5, 99)
    education_years = np.clip(np.round(10 + 2.2 * noisy(0.7)), 1, 16)
    gain_draw = rng.random(n)
    capital_gain = np.where(
        gain_draw < _sigmoid(noisy(1.0) - 2.6), np.round(np.exp(8.2 + 0.7 * rng.normal(0, 1, n))), 0
    )
    capital_loss = np.where(rng.random(n) < 0.047, np.round(np.exp(7.5 + 0.2 * rng.normal(0, 1, n))), 0)

    cols = {
        "age": _ints(np.clip(np.round(38 + 8 * noisy(1.2) + 2 * deprived * rng.normal(0, 1, n)), 17, 90)),
        "workclass": _quantile_categories(
            noisy(1.4), ["never_worked", "without_pay", "state_gov", "private", "local_gov",
                         "self_emp", "federal_gov"]
        ),
        "final_weight": _ints(np.clip(np.round(np.exp(12.0 + 0.5 * rng.normal(0, 1, n))), 12000, 1500000)),
        "education": _quantile_categories(
            education_years + rng.normal(0, 0.3, n),
            ["dropout", "hs_grad", "some_college", "assoc_voc", "assoc_acdm",
             "bachelors", "masters", "prof_school", "doctorate"],
        ),
        "education_years": _ints(education_years),
        "marital_status": _quantile_categories(
            noisy(1.3) - 0.6 * deprived,
            ["never_married", "separated", "divorced", "widowed", "spouse_absent", "married"],
        ),
        "occupation": occupation,
        "relationship": relationship,
        "race": np.array(["white", "black", "asian", "amer_indian", "other"], dtype=object)[
            rng.choice(5, n, p=[0.855, 0.093, 0.029, 0.009, 0.014])
        ],
        "gender": np.where(deprived, "female", "male").astype(object),
        "capital_gain": _ints(capital_gain),
        "capital_loss": _ints(capital_loss),
        "hours_per_week": _ints(hours),
        "native_country": np.array(
            ["united_states", "mexico", "philippines", "germany", "canada", "india",
             "england", "china", "cuba", "south", "other"], dtype=object
        )[rng.choice(11, n, p=[0.896, 0.02, 0.012, 0.01, 0.008, 0.008, 0.007, 0.006, 0.006, 0.005, 0.022])],
    }

    occ_rank = {o: i for i, o in enumerate(occupations[::-1])}
    occ_mult = np.array([0.5 + 0.12 * occ_rank[o] for o in occupation])
    hours_mult = np.where(hours > 40.5, 1.4, 1.0)
    mult = occ_mult * hours_mult
    base = 1.1 * u + 0.35 * (education_years - 10) / 2.2 + 1.6 * (capital_gain > 0) + 0.25 * (hours - 40) / 9
    y = _labels(rng, base, deprived, mult, fav_rate=0.31, dep_rate=0.11)
    cols["income"] = np.where(y, ">50K", "<=50K").astype(object)

    return table_from_columns(
        cols,
        LabelSpec("income", ">50K", "<=50K"),
        SensitiveSpec("gender", "male", "female"),
    )


GENERATORS = {"german": make_german, "compas": make_compas, "adult": make_adult}
