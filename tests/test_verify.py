import collections

import pytest

from rdunkl.verify import SUITES, run_suites


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_check_ids_unique_per_suite_and_report(r):
    # a consumer keyed on check_id must see every report of one `verify all`
    ids = []
    for name in SUITES:
        suite_ids = [rep.check_id for rep in run_suites([name], r, seed=0)]
        assert len(set(suite_ids)) == len(suite_ids), (name, suite_ids)
        ids += suite_ids
    dup = [cid for cid, n in collections.Counter(ids).items() if n > 1]
    assert not dup


def test_renamed_check_ids():
    ids = {rep.check_id for rep in run_suites(["rl", "transmutation"], 3, seed=0)}
    assert {"rl.composition_law.k0", "rl.composition_law.k1", "rl.composition_law.k2",
            "rl.product_factorization.alpha0_zero", "rl.product_factorization.random",
            "rl.product_factorization.degenerate",
            "transmutation.exp_to_kernel.real", "transmutation.exp_to_kernel.complex"} <= ids
    assert not ids & {"rl.composition_law", "rl.product_factorization",
                      "transmutation.exp_to_kernel"}


@pytest.mark.parametrize("r", [2, 3])
def test_tolerance_scale_reaches_every_residual_below_report(r):
    # the scale applies to reports built inside the modules as well as to
    # those built by the suites; other kinds keep their tolerance
    base = run_suites(list(SUITES), r, seed=0)
    scaled = run_suites(list(SUITES), r, seed=0, tol_scale=10.0)
    assert [rep.check_id for rep in base] == [rep.check_id for rep in scaled]
    n_scaled = 0
    for b, s in zip(base, scaled):
        assert (s.kind, s.residual, s.passed) == (b.kind, b.residual, b.passed), b.check_id
        if b.kind == "residual-below":
            assert s.tolerance == 10.0 * b.tolerance, b.check_id
            n_scaled += 1
        else:
            assert s.tolerance == b.tolerance or b.tolerance != b.tolerance, b.check_id
    assert n_scaled >= 40


@pytest.mark.parametrize("suite,check_id", [("mehler", "mehler.node_doubling_trend"),
                                            ("dunkl-opdam", "dunkl_opdam.obstruction_scalar")])
def test_flag_reports_keep_tolerance_zero_at_any_scale(suite, check_id):
    # 0/1 flags carry tolerance 0, so no scale can pass a raised flag (1 > 0)
    rep = next(rep for rep in run_suites([suite], 2, seed=0, tol_scale=1e6)
               if rep.check_id == check_id)
    assert rep.tolerance == 0.0 and rep.residual == 0.0 and rep.passed


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_identity_suites_take_one_pass_over_the_degrees(r, monkeypatch):
    # suite_power checks every degree in one power_identity_residual call;
    # at r = 2 the 40 monomial intertwining checks read the suite's own V
    import rdunkl.transmutation as tm
    import rdunkl.verify as verify

    builds, calls = [], []

    class CountingMap(tm.TransmutationMap):
        def __init__(self, mu, N):
            builds.append(N)
            super().__init__(mu, N)

    real = verify.power_identity_residual

    def counting(mu, n):
        calls.append(n)
        return real(mu, n)

    monkeypatch.setattr(tm, "TransmutationMap", CountingMap)
    monkeypatch.setattr(verify, "power_identity_residual", counting)
    verify.suite_power(r, 0, 48, 60)
    verify.suite_transmutation(r, 0, 48, 60)
    assert len(calls) == 1
    assert len(builds) == 1


@pytest.mark.parametrize("degree", [60, 200])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_suite_transmutation_builds_one_V(r, degree, monkeypatch):
    # one V at the largest degree the suite reads (max(N, 80) at r = 3);
    # every check reads its leading block
    import rdunkl.transmutation as tm
    import rdunkl.verify as verify

    builds = []

    class CountingMap(tm.TransmutationMap):
        def __init__(self, mu, N):
            builds.append(N)
            super().__init__(mu, N)

    monkeypatch.setattr(tm, "TransmutationMap", CountingMap)
    reports = verify.suite_transmutation(r, 0, 48, degree)
    assert builds == [max(degree, 80) if r == 3 else degree]
    assert len(reports) == {2: 6, 3: 7, 4: 4, 5: 4}[r]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_suite_rl_builds_its_jacobi_rules_at_the_suite_nodes(r, monkeypatch):
    # both sides of rl.adjoint_pairing use one Legendre rule, so the only
    # Jacobi rules are the R_alpha and R* rules at the suite's node count
    import sys

    import rdunkl.quadrature as quadrature
    import rdunkl.verify as verify

    real, seen = quadrature._jacobi_reference, []

    def recording(p, q, n):
        seen.append(n)
        return real(p, q, n)

    for mod in [m for name, m in sys.modules.items() if name.startswith("rdunkl")]:
        if getattr(mod, "_jacobi_reference", None) is real:
            monkeypatch.setattr(mod, "_jacobi_reference", recording)
    verify.suite_rl(r, 0, 48, 60)
    assert seen and set(seen) == {48}
