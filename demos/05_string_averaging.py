"""String averaging as a special case of the modular plan language.

A stage applies each string of operators in sequence and averages the
results.  Rewriting a stage as an iteration plan reproduces its values
exactly, and padding embeds a finite schedule into the infinite-family
driver without changing a single number.
"""

import numpy as np

from strav.control import verify_admissible
from strav.dsa import StringStage, direct_eval, gdsa_to_gmsa, msa_embed
from strav.fixtures import random_halfspace_family
from strav.gmsa import output_operator, sqne_bound
from strav.sets import Halfspace, OperatorFamily


def main():
    rng = np.random.default_rng(1)
    family = random_halfspace_family(4, 5, seed=8)

    stage = StringStage([(0, 1, 2), (3,), (4, 0)], [0.5, 0.3, 0.2], k=0)
    plan = gdsa_to_gmsa(stage)
    print(f"stage with strings {list(stage.strings)}")
    print(f"rewritten plan: N = {plan.N}, floor eps = {plan.eps}")

    x = rng.uniform(-2.0, 2.0, size=(6, 4))
    tree = output_operator(plan, family)
    gap = np.abs(tree(x) - direct_eval(stage, family, x)).max()
    print(f"largest rewrite gap over 6 points: {gap:.2e}")

    print(f"plan modulus guarantee over the family's leaves: {sqne_bound(plan, family):.4f}")
    print(f"stage tree's certified fne_rho (gamma = 1, longest string 3): {tree.fne_rho:.4f}")

    normals = rng.standard_normal((3, 4))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    ops = [Halfspace(a, 0.0) for a in normals]
    base = [gdsa_to_gmsa(StringStage([(0, 1), (2,)], [0.5, 0.5], k=0))]
    fam_inf, sched_inf = msa_embed(ops, np.zeros(4), base)

    probe = rng.uniform(-2.0, 2.0, size=(5, 4))
    bare = output_operator(base[0], OperatorFamily.from_sets(ops, np.zeros(4)))(probe)
    drift = 0.0
    for k in range(16):
        padded = output_operator(sched_inf.plan_at(k), fam_inf)(probe)
        drift = max(drift, float(np.abs(padded - bare).max()))
    print(f"\npadding drift over 16 iterations: {drift:.1f} (exactly zero by design)")
    print(f"padded schedule audit: {verify_admissible(sched_inf, 300, range(6))}")


if __name__ == "__main__":
    main()
