"""Per-world reference loops for the objectives in ``repro.core``.

Each function walks joint supports one world at a time with Python dicts
and scalar claim evaluation: the definitions the batched kernels in
:mod:`repro.core.expected_variance`, :mod:`repro.core.surprise` and
:mod:`repro.core.entropy` must reproduce.  Only small instances are
tractable.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.claims.functions import ClaimFunction
from repro.claims.quality import ClaimQualityMeasure
from repro.core.entropy import _OUTCOME_MERGE_TOLERANCE
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "weighted_sum_pmf",
    "expected_variance_exact",
    "expected_variance_monte_carlo",
    "decomposed_expected_variance",
    "surprise_probability_exact",
    "surprise_probability_monte_carlo",
    "entropy_of_pmf",
    "result_entropy",
    "expected_entropy",
]


def weighted_sum_pmf(
    database: UncertainDatabase,
    indices: Sequence[int],
    weights: Mapping[int, float],
    offset: float = 0.0,
) -> List[Tuple[float, float]]:
    """Pmf of ``offset + sum_i weights[i] * X_i`` by dict convolution, sorted by value."""
    pmf: Dict[float, float] = {float(offset): 1.0}
    for index in indices:
        distribution = database[index].distribution
        weight = float(weights.get(index, 0.0))
        next_pmf: Dict[float, float] = {}
        for partial, p in pmf.items():
            for value, q in zip(distribution.values, distribution.probabilities):
                key = partial + weight * float(value)
                next_pmf[key] = next_pmf.get(key, 0.0) + p * q
        pmf = next_pmf
    return sorted(pmf.items())


def _expected_conditional_covariance(
    database: UncertainDatabase,
    f: Callable,
    g: Callable,
    cleaned: Sequence[int],
    free: Sequence[int],
) -> float:
    """``E_cleaned[ Cov_free[f, g] ]``: both joint supports enumerated world by world."""
    total = 0.0
    for assignment, probability in database.enumerate_joint_support(cleaned):
        mean_f = mean_g = mean_fg = 0.0
        for free_assignment, free_probability in database.enumerate_joint_support(free):
            values = database.values_with_assignment({**assignment, **free_assignment})
            fv, gv = f(values), g(values)
            mean_f += free_probability * fv
            mean_g += free_probability * gv
            mean_fg += free_probability * fv * gv
        total += probability * (mean_fg - mean_f * mean_g)
    return total


def expected_variance_exact(
    database: UncertainDatabase, function: ClaimFunction, cleaned: Iterable[int]
) -> float:
    """EV(T) of any claim, enumerating the objects it references."""
    cleaned_set = frozenset(int(i) for i in cleaned)
    referenced = function.referenced_indices
    return _expected_conditional_covariance(
        database,
        function.evaluate,
        function.evaluate,
        sorted(cleaned_set & referenced),
        sorted(referenced - cleaned_set),
    )


def expected_variance_monte_carlo(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    rng,
    outer_samples: int,
    inner_samples: int,
) -> float:
    """Monte-Carlo EV(T), one sampled world at a time.

    Draws from ``rng`` in the production order (one outcome per cleaned
    object, then one sized draw per free object, for each outer sample), so
    a fixed seed gives the production estimate.
    """
    cleaned_list = sorted(set(int(i) for i in cleaned))
    free = sorted(function.referenced_indices - set(cleaned_list))
    if not free:
        return 0.0
    total = 0.0
    for _ in range(outer_samples):
        outcome = {index: float(database[index].sample(rng)) for index in cleaned_list}
        columns = {index: database[index].sample(rng, size=inner_samples) for index in free}
        draws = []
        for k in range(inner_samples):
            world = {**outcome, **{index: float(columns[index][k]) for index in free}}
            draws.append(function.evaluate(database.values_with_assignment(world)))
        mean = sum(draws) / inner_samples
        total += sum((draw - mean) ** 2 for draw in draws) / inner_samples
    return total / outer_samples


def _linear_term_expected_variance(database, term, cleaned, free) -> float:
    """A transformed weighted-sum term: a double loop over the two sums' pmfs."""
    weights = term.claim.sparse_weights
    free_pmf = weighted_sum_pmf(database, free, weights)
    total = 0.0
    offset = term.claim.intercept()
    for base, probability in weighted_sum_pmf(database, cleaned, weights, offset):
        first = second = 0.0
        for value, free_probability in free_pmf:
            g = term.transform(base + value)
            first += free_probability * g
            second += free_probability * g * g
        total += probability * max(second - first * first, 0.0)
    return total


def decomposed_expected_variance(
    database: UncertainDatabase, measure: ClaimQualityMeasure, cleaned: Iterable[int]
) -> float:
    """EV(T) of a claim-quality measure, piece by piece as in Theorem 3.8.

    Each term's expected conditional variance, plus twice the expected
    conditional covariance of every pair of terms that share an object,
    each piece enumerating only the objects it references.
    """
    cleaned_set = frozenset(int(i) for i in cleaned)
    terms = measure.terms
    total = 0.0
    for term in terms:
        refs = term.referenced_indices
        fixed, free = sorted(cleaned_set & refs), sorted(refs - cleaned_set)
        if term.claim is not None and term.transform is not None and term.claim.is_linear():
            total += _linear_term_expected_variance(database, term, fixed, free)
        else:
            total += _expected_conditional_covariance(database, term, term, fixed, free)
    for k in range(len(terms)):
        for l in range(k + 1, len(terms)):
            refs_k, refs_l = terms[k].referenced_indices, terms[l].referenced_indices
            if refs_k & refs_l:
                union = refs_k | refs_l
                fixed, free = sorted(cleaned_set & union), sorted(union - cleaned_set)
                total += 2.0 * _expected_conditional_covariance(
                    database, terms[k], terms[l], fixed, free
                )
    return max(total, 0.0)


def surprise_probability_exact(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    tau: float = 0.0,
) -> float:
    """MaxPr(T): the mass of the cleaning outcomes that drop ``f`` by more than ``tau``."""
    target = function.evaluate(database.current_values) - tau
    relevant = sorted(frozenset(int(i) for i in cleaned) & function.referenced_indices)
    if not relevant:
        return 0.0
    return sum(
        probability
        for assignment, probability in database.enumerate_joint_support(relevant)
        if function.evaluate(database.values_with_assignment(assignment)) < target - 1e-12
    )


def surprise_probability_monte_carlo(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    rng,
    tau: float,
    samples: int,
) -> float:
    """Monte-Carlo MaxPr(T), one sampled cleaning outcome at a time.

    One sized draw per cleaned object, in the production order, so a fixed
    seed gives the production estimate.
    """
    cleaned_list = sorted(set(int(i) for i in cleaned))
    if not cleaned_list:
        return 0.0
    target = function.evaluate(database.current_values) - tau
    columns = {index: database[index].sample(rng, size=samples) for index in cleaned_list}
    hits = 0
    for k in range(samples):
        world = {index: float(columns[index][k]) for index in cleaned_list}
        if function.evaluate(database.values_with_assignment(world)) < target - 1e-12:
            hits += 1
    return hits / samples


def entropy_of_pmf(probabilities: Iterable[float]) -> float:
    """Shannon entropy in bits, one outcome at a time."""
    total = 0.0
    for p in probabilities:
        if p < -1e-12:
            raise ValueError("probabilities must be nonnegative")
        if p > 1e-15:
            total -= p * math.log2(p)
    return total


def _result_pmf(database, function, free, fixed) -> Dict[float, float]:
    """Distribution of ``f`` with ``free`` random, on the production 12-decimal grid.

    Neighbouring grid keys closer than the production merge tolerance are
    merged by walking the sorted keys pairwise.
    """
    pmf: Dict[float, float] = {}
    for assignment, probability in database.enumerate_joint_support(free):
        values = database.values_with_assignment({**fixed, **assignment})
        result = round(float(function.evaluate(values)), 12)
        pmf[result] = pmf.get(result, 0.0) + probability
    merged: Dict[float, float] = {}
    anchor = previous = None
    for value in sorted(pmf):
        if previous is None or value - previous > _OUTCOME_MERGE_TOLERANCE:
            anchor = value
            merged[anchor] = pmf[value]
        else:
            merged[anchor] += pmf[value]
        previous = value
    return merged


def result_entropy(database: UncertainDatabase, function: ClaimFunction) -> float:
    """Entropy of ``f(X)`` over the joint support of the objects it references."""
    pmf = _result_pmf(database, function, sorted(function.referenced_indices), {})
    return entropy_of_pmf(pmf.values())


def expected_entropy(
    database: UncertainDatabase, function: ClaimFunction, cleaned: Iterable[int]
) -> float:
    """EH(T): the conditional entropy of ``f`` averaged over the cleaning outcomes."""
    cleaned_set = frozenset(int(i) for i in cleaned)
    referenced = function.referenced_indices
    free = sorted(referenced - cleaned_set)
    total = 0.0
    fixed = sorted(cleaned_set & referenced)
    for assignment, probability in database.enumerate_joint_support(fixed):
        pmf = _result_pmf(database, function, free, assignment)
        total += probability * entropy_of_pmf(pmf.values())
    return total
