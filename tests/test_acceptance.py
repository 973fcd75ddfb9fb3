"""Top-level acceptance checks, one test per numbered criterion.

Each test prints a single pass/fail line for its criterion and enforces the
runtime budget where one is stated (measured here, never stored in reports).
"""
import random
import time

from magicmodels import acceptance
from magicmodels.acceptance import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    run_suite,
)
from magicmodels.matrices import _float_roots, spectral_multiplicities

RUNTIME_BOUNDS = {1: 1.0, 2: 1.0, 3: 0.16, 5: 1.0, 6: 0.25, 7: 1.4}


def _run(number, fn, **kwargs):
    start = time.perf_counter()
    result = fn(**kwargs)
    elapsed = time.perf_counter() - start
    verdict = "PASS" if result["passed"] else "FAIL"
    print(f"criterion {number:2d} [{result['name']}]: {verdict}")
    assert result["criterion"] == number
    assert result["passed"], result
    bound = RUNTIME_BOUNDS.get(number)
    if bound is not None:
        assert elapsed < bound, f"criterion {number} took {elapsed:.2f}s"
    return result


def test_criterion_01_no_family_counterexample():
    _run(1, criterion_1)


def test_criterion_02_induced_model_stationarity():
    _run(2, criterion_2)


def test_criterion_03_family_models_certify():
    _run(3, criterion_3)


def test_criterion_04_single_fiber_negative_control():
    _run(4, criterion_4)


def test_criterion_05_spectral_block_models():
    _run(5, criterion_5)


def test_criterion_06_twisted_cyclic_model():
    _run(6, criterion_6)


def test_criterion_07_trace_vector_equivalence():
    result = _run(7, criterion_7, seed=0, samples=200)
    assert result["details"]["disagreements"] == 0
    assert result["details"]["exact_checked"] == 126


def _draw(rng, k):
    bits = [rng.randrange(2) for _ in range(k)]
    roots = _float_roots(k)
    eigs = [roots[(j * bits[j]) % k] for j in range(k)]
    return bits, acceptance._random_conjugate(rng, eigs)


def test_random_conjugates_are_unitary_with_the_pattern_spectrum():
    rng = random.Random(5)
    for k in range(2, 7):
        for _ in range(40):
            bits, u = _draw(rng, k)
            assert u.mode == "float" and (u.rows, u.cols) == (k, k)
            assert u.is_unitary(tol=1e-12), (k, bits)
            assert spectral_multiplicities(u, k, tol=1e-8) == \
                acceptance._pattern_flat(k, bits)[1], (k, bits)


def test_random_conjugates_are_seeded():
    for k in range(2, 7):
        first = _draw(random.Random(9), k)
        assert first[1].data == _draw(random.Random(9), k)[1].data
        assert first[1].data != _draw(random.Random(10), k)[1].data


def test_criterion_07_agrees_on_every_seed():
    """The seeded half on 20 seeds; the exact half does not read the seed,
    so it runs once."""
    for seed in range(20):
        assert acceptance._criterion_7_float(seed, 20) == (100, 0), seed
    assert acceptance._criterion_7_exact() == (126, 0)


def test_criterion_08_fixed_point_projection():
    _run(8, criterion_8)


def test_criterion_09_cyclic_symmetry():
    _run(9, criterion_9)


def test_criterion_10_uniformity_certificates():
    _run(10, criterion_10)


def test_criterion_11_determinism_and_float_agreement(suite_run):
    """Criterion 11 as the seed-0 suite run reports it."""
    _run(11, lambda: suite_run[1]["criteria"][10])


def test_full_suite_reports_all_pass(suite_run):
    result = suite_run[1]
    assert result["status"] == "pass"
    numbers = [c["criterion"] for c in result["criteria"]]
    assert numbers == list(range(1, 12))
    assert all(c["passed"] for c in result["criteria"])


def _count_payloads(monkeypatch):
    calls = []
    payload = acceptance._payload
    monkeypatch.setattr(acceptance, "_payload",
                        lambda *args: calls.append(args) or payload(*args))
    return calls


def test_suite_reports_the_first_of_two_payload_runs(monkeypatch):
    calls = _count_payloads(monkeypatch)
    result = run_suite(samples=5)
    assert len(calls) == 2
    assert result["criteria"][10]["details"]["byte_identical"] is True


def test_lone_criterion_11_makes_two_payload_runs(monkeypatch):
    calls = _count_payloads(monkeypatch)
    assert criterion_11(samples=5)["details"]["byte_identical"] is True
    assert len(calls) == 2


def test_suite_sees_a_payload_member_that_changes(monkeypatch):
    runs = []
    monkeypatch.setattr(acceptance, "criterion_10", lambda cap: runs.append(1) or {
        "criterion": 10, "name": "uniformity", "passed": True, "details": {"run": len(runs)}})
    result = run_suite(samples=5)
    assert len(runs) == 2
    assert result["criteria"][9]["details"] == {"run": 1}
    assert result["criteria"][10]["details"]["byte_identical"] is False
    assert not result["passed"]
