"""How quantitative operator constants move through the calculus.

A projection comes with one-point modulus 1.  Relaxing, averaging and
composing degrade that modulus in predictable ways; each printed value
is then backed by a randomized sampling check of the inequality itself.
"""

import numpy as np

from strav.operators import (
    Composition,
    ConvexComb,
    Primitive,
    Relaxation,
    SampleBudget,
    check_sqne,
)
from strav.sets import Halfspace


def certified(label, node, rho, z):
    rep = check_sqne(node, rho, z, SampleBudget(count=400, seed=3))
    print(f"  {label:<38} rho = {rho:<12.6g} sampled: {rep}")
    assert rep.passed


def main():
    z = np.zeros(3)
    P = Primitive(Halfspace([1.0, 0.0, 0.0], 0.0))
    Q = Primitive(Halfspace([0.0, 1.0, 0.0], 0.0))

    print("single projections")
    certified("projection", P, P.sqne_rho, z)
    certified("gamma = 2/3 underrelaxation", Relaxation(Primitive(Halfspace([1.0, 1.0, 0.0], 0.0)), 2.0 / 3.0), 2.0, z)

    print("\nrelaxation by alpha in [0, 2]")
    for alpha in (0.5, 1.0, 1.5):
        node = Relaxation(P, alpha)
        certified(f"alpha = {alpha}", node, node.sqne_rho, z)

    print("\naveraging keeps the weakest child's guarantee")
    comb = ConvexComb([P, Q], [0.25, 0.75])
    certified("average of two projections", comb, comb.sqne_rho, z)

    print("\ncomposition divides by the number of factors")
    comp = Composition([P, Q])
    certified("P then Q", comp, comp.sqne_rho, z)
    comp3 = Composition([P, Q, Relaxation(P, 1.5)])
    certified("three factors, one relaxed", comp3, comp3.sqne_rho, z)

    print("\nall sampled inequalities hold at the certified constants")


if __name__ == "__main__":
    main()
