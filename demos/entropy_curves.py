"""Entanglement left on the receiver-side qubit pair after the noisy
distribution, for both kept-branch scenarios. Rendered as a text plot;
pipe the CSV variant (`python3 -m bqtsim entropy`) into a real plotter
for figures.
"""
import numpy as np

from bqtsim import Scenario, distribute, entanglement_entropy_bob

WIDTH = 40

print(f"{'p':>5} {'two noisy qubits':>17} {'all four noisy':>15}   0 {' ' * (WIDTH - 4)} 2")
for p in np.linspace(0.0, 1.0, 21):
    p = float(p)
    s1 = entanglement_entropy_bob(distribute(Scenario.RECOVERY_ADC, p)[0])
    s2 = entanglement_entropy_bob(distribute(Scenario.ALL_ADC, p)[0])
    # overlay both curves on one strip: '1' and '2', 'x' where they meet
    strip = [" "] * (WIDTH + 1)
    i1 = round(s1 / 2 * WIDTH)
    i2 = round(s2 / 2 * WIDTH)
    strip[i1] = "1"
    strip[i2] = "x" if i1 == i2 else "2"
    print(f"{p:5.2f} {s1:17.6f} {s2:15.6f}   |{''.join(strip)}|")

print()
print("curve 1 (two noisy qubits) stays above curve 2 everywhere between")
print("the endpoints: damping all four qubits costs more entanglement even")
print("after the same post-selection.")
