"""Variable-length shift orbits, weight sequences, the finite-state coder,
and the density-lemma partial sums.

Run:  python demos/05_shifts_and_orbits.py
"""

import numpy as np

from wordsource import (
    IIDSource,
    TimeSubsequence,
    VariableLengthShiftSpec,
    WordFunction,
    bellow_check,
    encode_stream,
    finite_state_orbit_coder,
    variable_length_orbit,
    weight_sequence,
)

print("== the codeword-driven shift steps over whole codewords ==")
wf = WordFunction(2, 2, ((0,), (1, 0)))
spec = VariableLengthShiftSpec.from_codebook(wf)
x = [1, 0, 1, 1, 0, 0, 1, 0]
# pad the tail so the last orbit step still sees a full lookahead window
y = encode_stream(wf, list(x) + [0, 0]).output
orbit = variable_length_orbit(spec, y, len(x))
print("input          :", "".join(map(str, x)))
print("encoded        :", "".join(map(str, y[:12])), "(+ padding)")
print("orbit zeta     :", [int(v) for v in orbit.zeta])
print("boundaries     :", [int(v) for v in encode_stream(wf, x).boundaries])
print("(the orbit lands exactly on the codeword boundaries)")
xi, density = weight_sequence(orbit, int(orbit.zeta[-1]) + 1)
print("weight sequence:", "".join(map(str, xi)), f" partial density {density:.3f}")

print()
print("== the finite-state coder reproduces the weights ==")
w = IIDSource([0.5, 0.5]).sample_path(5000, seed=3).symbols
gamma = VariableLengthShiftSpec.from_function(2, 2, lambda t: 1 + t[0] + t[1])
horizon = 3000
# the coder reads gamma at positions 0 .. horizon (lookahead 2); its marks
# there count the orbit steps that pass the horizon
z = finite_state_orbit_coder(gamma.shift_values(w[:horizon + 2]), horizon + 1, max_shift=3)
orbit = variable_length_orbit(gamma, w, int(z.sum()))
xi, density = weight_sequence(orbit, horizon)
print("coder == orbit weights:", bool(np.array_equal(xi, z[:horizon])))
print(f"partial density {density:.4f} stays inside [1/3, 1]")

print()
print("== density lemma: subsequence average vs weighted full average ==")
n = 100_000
ts = TimeSubsequence(zeta=np.arange(0, n + 2, 2))
r = np.array([(-1.0) ** i for i in range(n)])
for horizon in (100, 10_000, n):
    p = bellow_check(r, ts, horizon)
    print(f"n={horizon:>6}: density-weighted subsequence avg {p.lhs:.6f}, "
          f"weighted full avg {p.rhs:.6f}")
print("(r alternates +1/-1; sampling every other index keeps only the +1s,")
print(" so both sides settle at density * 1 = 0.5)")
