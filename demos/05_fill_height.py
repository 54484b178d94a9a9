"""
Fill heights by volume conservation
===================================

Given a container, a surface orientation, and a liquid volume, the level
height is the root of clip_volume(height) = volume.  The solver runs
Newton steps with the cut cross-section area as the exact derivative,
safeguarded by bisection.  Heights are measured along the normal from the
container's bounding-box center.
"""

import numpy as np

from labmech import (
    LiquidPlane,
    box_mesh,
    clip_volume,
    cylinder_mesh,
    height_search,
    l_prism_mesh,
    mesh_volume,
    unit_vector,
)

containers = {
    "unit cube": box_mesh(),
    "cylinder (r=0.8, h=1.4)": cylinder_mesh(radius=0.8, height=1.4),
    "L-shaped prism": l_prism_mesh(),
}

print("level heights for a horizontal surface at 10..90% fill:")
for name, mesh in containers.items():
    total = mesh_volume(mesh)
    heights = [
        height_search(mesh, [0.0, 0.0, 1.0], f * total).height
        for f in (0.1, 0.25, 0.5, 0.75, 0.9)
    ]
    print(f"  {name} (capacity {total:.4f}):")
    print("    " + "  ".join(f"{h:+.4f}" for h in heights))

# a tilted surface: same volume, different geometry of the cut
cube = box_mesh()
normal = unit_vector([1.0, 0.0, 2.0])
found = height_search(cube, normal, 0.3)
print(f"\ntilted cube fill (30%): height {found.height:+.6f} along {np.round(normal, 4)}")
print(f"  solved in {found.iterations} Newton-Bisect iterations, "
      f"residual {found.residual:.2e}")

# the cut area reported by clip_volume is the derivative dV/dh, which is
# what makes the Newton step sharp
res = clip_volume(cube, LiquidPlane(normal, found.height))
print(f"  cut cross-section at the answer: {res.cut_area:.6f}")

# round-trip: the volume at the solved height reproduces the request
back = clip_volume(cube, LiquidPlane(normal, found.height)).volume
print(f"  clip_volume(solved height) = {back:.12f} (asked for 0.3)")
