"""Source models: exact cylinder probabilities, sampling, stationarity checks.

Run:  python demos/01_source_models.py
"""

import math

import numpy as np

from wordsource import IIDSource, MarkovSource, MixtureSource, ams_diagnostic

coin = IIDSource([0.5, 0.5])
chain = MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0])
flip = MarkovSource([[0, 1], [1, 0]], [1, 0])
mix = MixtureSource([0.5, 0.5], [IIDSource([0.5, 0.5]), IIDSource([0.9, 0.1])])

print("== exact cylinder probabilities ==")
print("coin  P(0,1,0)        =", math.exp(coin.cylinder_log_probability([0, 1, 0])))
print("chain P(0,0,1)        =", math.exp(chain.cylinder_log_probability([0, 0, 1])))
print("mix   P(0,0)          =", math.exp(mix.cylinder_log_probability([0, 0])),
      " (= 0.5*0.25 + 0.5*0.81)")

print()
print("== a periodic chain is AMS but not stationary ==")
steps = [flip.shifted_cylinder_probability([0], i) for i in range(8)]
print("per-step P(X_{i+1}=0):", steps, "... keeps oscillating")
cesaro = ams_diagnostic(flip, [[0]], 1000, checkpoints=[10, 100, 1000])[0]
for n, avg in zip(cesaro.checkpoints, cesaro.partial_averages):
    print(f"Cesaro average over {n:>4} shifts:", avg)

print()
print("== the aperiodic chain forgets its start ==")
for i in (0, 1, 5, 20):
    print(f"P(X_{{{i}+1}}=0) =", chain.shifted_cylinder_probability([0], i))
print("stationary value 5/6  =", 5 / 6)

print()
print("== entropy rates (bits per symbol) ==")
print("fair coin             =", coin.entropy_rate_exact())
print("biased IID(0.9)       =", IIDSource([0.9, 0.1]).entropy_rate_exact())
print("markov chain          =", chain.entropy_rate_exact())
print("mixture (average)     =", mix.entropy_rate_exact())

print()
print("== ergodic components ==")
for weight, comp in chain.ergodic_components():
    print(f"weight {weight}: {comp.config_dict()}")
for weight, comp in mix.ergodic_components():
    print(f"weight {weight}: {comp.config_dict()}")

print()
print("== every mixture path follows exactly one component ==")
for seed in range(4):
    path = mix.sample_path(20_000, seed)
    freq = float(np.mean(path.symbols == 0))
    print(f"seed {seed}: component {path.component_index}, "
          f"frequency of 0 = {freq:.4f}")
