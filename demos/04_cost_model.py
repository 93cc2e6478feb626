"""Analytic cost accounting for the composition strategies.

Costs are exact multiply-accumulate counts of the factored computation
graph: every down-projection application costs r*m, every up-projection
n*r, the frozen base n*m, and a train step adds one reverse-mode product
per up-application plus one parameter-gradient outer product per
application. The random AB strategy touches only the pool members its
pairing selects, which is where its savings come from.
"""

from cola_forge import CoLAConfig, Strategy, flop_breakdown, flop_count

n = m = 64
r, M, N = 8, 2, 3


def cfg(strategy, a_count=M, b_count=N):
    return CoLAConfig(in_dim=m, out_dim=n, rank=r, a_count=a_count,
                      b_count=b_count, strategy=strategy, alpha=float(r))


print(f"shape {n}x{m}, rank {r}, pools M={M}, N={N}\n")
print("per-sample forward breakdown (MACs):")
print(f"{'strategy':12s} {'base':>6s} {'down':>6s} {'up':>6s} {'total':>7s}")
for strategy in Strategy:
    parts = flop_breakdown(cfg(strategy), "forward")
    print(f"{strategy.value:12s} {parts['base']:6d} {parts['down']:6d} "
          f"{parts['up']:6d} {sum(parts.values()):7d}")

print("\nper-sample train-step totals:")
for strategy in Strategy:
    print(f"  {strategy.value:12s} {flop_count(cfg(strategy), 'train_step')}")

ab = flop_count(cfg(Strategy.RANDOM_AB), "train_step")
heur = flop_count(cfg(Strategy.HEURISTIC), "train_step")
full = flop_count(cfg(Strategy.FULL), "train_step")
print(f"\nordering: random_ab ({ab}) < full ({full}); "
      f"random_ab <= heuristic ({heur}) <= full")

print("\nfull-strategy forward grows affinely in N (slope n*r = "
      f"{n * r}):")
for b_count in (1, 2, 3, 4, 5):
    print(f"  N={b_count}: {flop_count(cfg(Strategy.FULL, b_count=b_count), 'forward')}")

print("\nat M=N=1 every strategy collapses to the same graph:")
totals = {s.value: flop_count(cfg(s, 1, 1), "train_step") for s in Strategy}
print(f"  {totals}")
