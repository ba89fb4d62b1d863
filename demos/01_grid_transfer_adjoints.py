"""Grid transfer in both directions: P, its three exact transposes, and
why "exact transpose" is worth insisting on.

The deformation lives on a coarse grid; the objective is evaluated on the
fine image grid. P interpolates coarse -> fine, and the gradient flows back
through P^T. If P^T is even slightly inconsistent with P, the optimizer is
handed a direction that does not match the objective it is minimizing.
"""

import numpy as np

from ngfreg import (
    DeformationField,
    Grid3,
    VectorField3,
    apply_P,
    apply_Pt,
    build_gather_plan,
    dense_P_oracle,
    identity_field_array,
    make_identity,
)

rng = np.random.default_rng(7)

# An 8^3 image grid with 1.5 mm cells and a 4x coarser deformation grid
# covering exactly the same world domain (small enough for the dense
# reference matrix below).
image_grid = Grid3((8, 8, 8), (1.5, 1.5, 1.5), (0.0, 0.0, 0.0))
def_grid = Grid3((2, 2, 2), (6.0, 6.0, 6.0), (2.25, 2.25, 2.25))
assert image_grid.same_extent(def_grid)

plan = build_gather_plan(def_grid, image_grid)

# --- P interpolates; identity and constants survive exactly --------------
y = make_identity(def_grid)
yhat = apply_P(y, image_grid)
print("P applied to a constant field is constant:",
      np.allclose(apply_P(DeformationField(def_grid,
                   np.full((3,) + def_grid.shape, 2.5)), image_grid).field, 2.5))

# --- the dense oracle agrees entry for entry ------------------------------
P = dense_P_oracle(def_grid, image_grid)
u = identity_field_array(def_grid) + rng.standard_normal((3,) + def_grid.shape)
lhs = apply_P(DeformationField(def_grid, u), image_grid).field[0].ravel()
print("matrix-free P matches the dense oracle:",
      np.allclose(lhs, P @ u[0].ravel(), atol=1e-13))

# --- all three P^T variants are exact adjoints ----------------------------
z = VectorField3(image_grid, rng.standard_normal((3,) + image_grid.shape))
inner_fine = float(np.sum(apply_P(DeformationField(def_grid, u), image_grid).field
                          * z.field))
for variant in ("gather", "scatter", "redblack"):
    back = apply_Pt(z, plan, variant)
    inner_coarse = float(np.sum(u * back.field))
    print(f"  <Pu, z> - <u, P^T z>  ({variant:8s}) = "
          f"{inner_fine - inner_coarse:+.3e}")
