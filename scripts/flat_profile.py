"""Flattening schedules and a built subspace report.

Prints, for a grid of (eps, d), the stage counts and thresholds the
flattening schedule demands, along with the closed-form sup bound and the
total support span of the witness family.  Builds each subspace for real:
the peak memory is the basis (24 bytes per atom over all stages) plus one
array of the largest stage (16 bytes per atom), so it grows with the total
count at large d and small eps.  The final block dumps the per-power
verification rows for one mid-size run.
"""

from orbitforge import BilateralShift, flat_report_csv, flat_subspace


def main():
    s = BilateralShift()
    print("eps,d,counts,sup_bound,total_span")
    cases = [(1.0, 2), (0.5, 2), (0.5, 3), (0.25, 3)]
    for eps, d in cases:
        cert = flat_subspace(s, eps, d, rng=0)
        counts = "|".join(str(c) for c in cert.schedule.counts)
        print(f"{eps},{d},{counts},{cert.sup_bound_closed_form:.6e},{cert.total_span}")

    print()
    print("verification rows for eps=0.5, d=2")
    print(flat_report_csv(flat_subspace(s, 0.5, 2, rng=0)), end="")


if __name__ == "__main__":
    main()
