"""Where the CA runs decides what authentication costs.

Runs the five placement settings under the frozen default link profile
(5 ms to the fog instance, 80 ms further to the cloud instance, cloud
per-task budget a small fraction of the fog's) and prints the delay,
retransmission, and workload picture; then sweeps CloudOnly across node
counts to show the saturation trend.
"""

import sys

from fogca import experiments as ex

SEEDS = range(3)
workload = ex.DEFAULT_WORKLOAD
print("workload:", workload, "\n")

header = (f"{'setting':<13} {'reg mean':>10} {'auth mean':>10} "
          f"{'retransmits':>11} {'cloud tasks':>11} {'fog tasks':>10} "
          f"{'fog util':>9}")
print(header)
print("-" * len(header))

means = {}
for setting in ex.SETTING_FRACTIONS:
    regs, auths, retx, ct, ft, util = [], [], [], [], [], []
    for seed in SEEDS:
        stats = ex.run_experiment(setting, workload, seed=seed)
        regs.append(stats.registration.mean_ms)
        auths.append(stats.auth.mean_ms)
        retx.append(stats.retransmission_count)
        ct.append(stats.cloud_tasks)
        ft.append(stats.fog_tasks)
        util.append(stats.fog_utilization_pct)
    n = len(list(SEEDS))
    means[setting] = (sum(regs) / n, sum(auths) / n)
    print(f"{setting:<13} {sum(regs)/n:>8.0f}ms {sum(auths)/n:>8.0f}ms "
          f"{sum(retx)//n:>11} {sum(ct)//n:>11} {sum(ft)//n:>10} "
          f"{sum(util)/n:>8.2f}%")

print()
print(f"auth delay, FogOnly vs CloudOnly: "
      f"{means['FogOnly'][1] / means['CloudOnly'][1]:.4f}")
print(f"registration delay, MainlyCloud vs CloudOnly: "
      f"{means['MainlyCloud'][0] / means['CloudOnly'][0]:.3f}")

print("\nCloudOnly registration delay vs fleet size (seed 0):")
counts = [10, 40, 80, 120]
sweep = ex.sweep_nodes("CloudOnly", counts, seed=0)
for count, stats in zip(counts, sweep):
    bar = "#" * max(1, int(stats.registration.mean_ms / 4000))
    print(f"  {count:>4} nodes  {stats.registration.mean_ms:>9.0f} ms  {bar}")

out = sys.argv[1] if len(sys.argv) > 1 else "/tmp/placement_study.csv"
rows = [("CloudOnly", c, s) for c, s in zip(counts, sweep)]
ex.export_csv(rows, out)
print(f"\nsweep written to {out}")
