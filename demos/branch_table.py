"""Print the 16 measurement branches of one protocol run.

Both parties Bell-measure, so the run splits into 4 x 4 outcomes. Each
row shows how likely the outcome is, how much weight survives the weak
measurement, and how faithful the corrected two-qubit output is.
"""
import numpy as np

from bqtsim import QubitInput, Scenario, run_protocol

P = 0.45
Q_W = 0.2
ALICE = QubitInput(0.3, 0.9)
BOB = QubitInput(0.8, 2.4)

res = run_protocol(Scenario.RECOVERY_ADC, P, Q_W, ALICE, BOB)

print(f"scenario {res.scenario.value}, p = {P}, q_w = {Q_W}")
print(f"{'i':>2} {'j':>2} {'prob':>10} {'weight':>10} {'fidelity':>10}")
for b in res.branches:
    print(
        f"{b.alice_index:>2} {b.bob_index:>2} {b.joint_prob:10.6f}"
        f" {b.success_weight:10.6f} {b.branch_fidelity:10.6f}"
    )

print(f"\nsum of probabilities  {sum(b.joint_prob for b in res.branches):.12f}")
print(f"total success         {res.total_success:.12f}")
print(f"averaged fidelity     {res.total_fidelity:.12f}")

# The same point with the weak strength matched to the damping: every
# branch returns the exact input product state.
matched = run_protocol(Scenario.RECOVERY_ADC, P, P, ALICE, BOB)
target = np.kron(ALICE.density(), BOB.density())
worst = max(float(np.max(np.abs(b.corrected - target))) for b in matched.branches)
print(f"\nwith q_w = p = {P}: worst branch deviation from the input product {worst:.3g}")
print(f"success probability drops to {matched.total_success:.6f}")
