"""Time averages, ergodicity spread, cylinder frequencies, AMS diagnostics.

The mixture is the negative control: its Cesaro averages converge (it is
AMS, in fact stationary) while its cross-path time averages stay bimodal
(it is not ergodic).

Run:  python demos/06_ergodic_diagnostics.py
"""

from wordsource import (
    CylinderFunction,
    IIDSource,
    InducedMeasure,
    MarkovSource,
    MixtureSource,
    WordFunction,
    ams_diagnostic,
    encode_stream,
    ergodicity_spread,
    time_average,
)

coin = IIDSource([0.5, 0.5])
mix = MixtureSource([0.5, 0.5], [IIDSource([0.5, 0.5]), IIDSource([0.9, 0.1])])
wf = WordFunction(2, 2, ((0,), (1, 0)))
g0 = CylinderFunction.indicator(2, [0])

print("== time average of an indicator along one encoded path ==")
x = coin.sample_path(10_000, seed=1).symbols
y = encode_stream(wf, x).output
verdict = time_average(y, g0, [100, 1000, 5000, 10_000])
for n, v in zip(verdict.checkpoints, verdict.partial_averages):
    print(f"first {n:>6} output symbols: frequency of 0 = {v:.4f}")
print("expected 1 / E[l] weighting gives 2/3 =", 2 / 3)

print()
print("== cross-path spread separates ergodic from mixed sources ==")
for name, measure in (
    ("fair coin", coin),
    ("encoded fair coin", InducedMeasure(coin, wf)),
    ("mixture", mix),
    ("encoded mixture", InducedMeasure(mix, wf)),
):
    sr = ergodicity_spread(measure, g0, paths=60, horizon=10_000, seed=5)
    print(f"{name:18} spread of final averages = {sr.spread:.4f}")

print()
print("== yet the mixture's Cesaro averages converge (it is AMS) ==")
verdict = ams_diagnostic(mix, [[0]], 10_000)[0]
print(f"mixture Cesaro trace final {verdict.final:.4f}, "
      f"last-quartile spread {verdict.spread:.2e}, converged={verdict.converged}")

print()
print("== AMS diagnostic for a periodic chain ==")
flip = MarkovSource([[0, 1], [1, 0]], [1, 0])
steps = [flip.shifted_cylinder_probability([0], i) for i in range(6)]
verdict = ams_diagnostic(flip, [[0]], 1000)[0]
print("per-step probabilities:", steps)
print(f"Cesaro trace final {verdict.final:.4f}, converged={verdict.converged}")

print()
print("== cylinder frequencies along a single mixture path ==")
g00 = CylinderFunction.indicator(2, [0, 0])
for seed in (0, 1, 2):
    path = mix.sample_path(20_001, seed)
    freq0 = time_average(path.symbols, g0, [20_000]).final
    freq00 = time_average(path.symbols, g00, [20_000]).final
    print(f"seed {seed}: sampled component {path.component_index}, "
          f"freq(0) = {freq0:.4f}, freq(00) = {freq00:.4f}")
