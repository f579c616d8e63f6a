"""Seed sweep of the boundary-regularity check.

The check draws no QMC samples, so ``check_regularity`` on a bare
``SuiteConfig(seed=s)`` isolates it.  Run
``PYTHONPATH=src python tests/regularity_seeds.py`` to print, for seeds
1-24 and the default 2024, the verdict, the worst ratio of |f| at
r = 1e-5 to |f| at r = 1e-3, and the family that gave it.
"""

from kwl.suite import SuiteConfig, check_regularity

SEEDS = tuple(range(1, 25)) + (2024,)


if __name__ == "__main__":
    failed = []
    for seed in SEEDS:
        res = check_regularity(SuiteConfig(seed=seed))
        worst = res.details["worst"] or {}
        print(f"seed {seed:4d}  {'pass' if res.passed else 'FAIL'}"
              f"  ratio {res.details['worst_ratio']:9.3f}"
              f"  {worst.get('graph')}  cluster {worst.get('subset')}")
        if not res.passed:
            failed.append(seed)
    print(f"failing seeds: {failed}")
