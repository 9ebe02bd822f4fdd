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
