"""Parametric bodies and garments generated at target drape classes.

Builds the six body variants, dresses one in garments from skin-tight to
very loose, and shows the drape ratio landing inside each class interval.
"""

import numpy as np

from drapebench.body import BUILD_CATALOG, body_capsules, build_parametric_body
from drapebench.garment import DrapeClassTable, GarmentSpec, generate_garment
from drapebench.mesh import dump_obj

print("the six builds (capsule volumes summed, overlaps counted twice):")
for label in BUILD_CATALOG:
    body = build_parametric_body(label)
    capsules = body_capsules(body.skeleton, label)
    volume = sum(np.pi * c.radius**2 * np.linalg.norm(c.p1 - c.p0) + 4.0 / 3.0 * np.pi * c.radius**3
                 for c in capsules)
    print(f"  {label:15s} height {BUILD_CATALOG[label].height:.2f} m  "
          f"{len(capsules)} capsules  capsule volume {volume * 1000:6.1f} L")

body = build_parametric_body("female_average")
table = DrapeClassTable()
print("\ndrape class intervals (ratio of extra garment volume over covered body):")
edges = (0.0,) + table.thresholds
for cls in range(1, 6):
    print(f"  class {cls}: [{edges[cls - 1]:.2f}, {edges[cls]:.2f})")
print(f"  class 6: [{edges[5]:.2f}, inf)")

print("\ntshirts for female_average at every class:")
for cls in range(1, 7):
    garment = generate_garment(body, GarmentSpec("tshirt", cls, "female_average"))
    print(f"  class {cls}: measured drape {garment.drape_ratio:.3f}, radial slack "
          f"{garment.slack * 1000:5.1f} mm, {garment.mesh.num_vertices} particles, "
          f"{int(garment.pinned.sum())} pinned")

trousers = generate_garment(body, GarmentSpec("trousers", 4, "female_average"))
with open("/tmp/trousers_class4.obj", "w") as fh:
    fh.write(dump_obj(trousers.mesh))
print("\nwrote /tmp/trousers_class4.obj (open tube mesh; cap_boundaries closes it for volume work)")
