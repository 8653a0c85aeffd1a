"""Where should the panel go?

The position-only factor of the optimally-oriented received power is
F*(position) / (d_TI^2 * d_IR^2).  Scanned over a plane below the endpoints
this objective is quasiconvex in each hop distance, which pins the optimum
to the feasible-region boundary or to the line through the projected
endpoints.  This demo compares the reduced boundary search against a dense
grid to show they agree, then scans one hop distance to visualize the
quasiconvex shape.
"""

import numpy as np

from rislink import PlaneScene, dense_position_grid, plane_objective
from rislink.position_search import (position_search_plane,
                                     quasiconvexity_report)

# endpoints 60 m apart, both 25 m above the plane, panel confined to a
# rectangular patch off to the side
patch = np.array([[80.0, 10.0], [140.0, 10.0], [140.0, 50.0], [80.0, 50.0]])
scene = PlaneScene(h1=25.0, h2=25.0, separation=60.0, feasible=[patch])
objective = plane_objective(scene, k=3.0)

reduced = position_search_plane(scene, objective)
grid = dense_position_grid(scene, objective, resolution=301)

print("boundary-reduced search:")
print(f"  best position {np.round(reduced.position, 3)} "
      f"value {reduced.value:.6e} (candidates: {reduced.search_set})")
print("dense 301 x 301 grid:")
print(f"  best position {np.round(grid.position, 3)} "
      f"value {grid.value:.6e}")
print(f"  agreement: reduced value >= grid value: "
      f"{reduced.value >= grid.value * (1 - 1e-9)}")

# the 1-D scans behind the reduction theorem
print("\nobjective shape with d_TI fixed at 150 m (d_TR = 100 m):")
for k in (0.0, 1.0, 3.0):
    rep = quasiconvexity_report(100.0, k, 150.0, "fix_d_ti")
    shape = ("strictly decreasing" if rep.monotone_decreasing
             else f"{rep.n_local_maxima} peak(s), "
                  f"{rep.n_interior_strict_minima} interior valley(s)")
    print(f"  k = {k}: {shape}")

print("\nNo interior valleys means a maximum over an interval is attained")
print("at an endpoint, which is what lets the 2-D search collapse onto")
print("boundaries and the endpoint line.")
