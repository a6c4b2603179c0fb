"""Walk through the basic statistics of a noisy unicycle run.

A constant speed-ratio command bends the deterministic path into a
circle; heading noise spreads the orientation into a Gaussian whose
variance grows linearly with traveled distance, and the mean position
spirals inward because the heading uncertainty damps the displacement.
"""

from brownian_unicycle import (NoiseParams, SpeedRatioProfile,
                               deterministic_pose, low_order_statistics,
                               orientation_distribution)

profile = SpeedRatioProfile.constant(5.0, theta0=0.0, s_max=2.0)
params = NoiseParams(0.01, 0.05)

print("deterministic pose along the circle:")
for s in (0.25, 0.5, 1.0, 2.0):
    x, y, th = deterministic_pose(profile, s)
    print(f"  s={s:4.2f}:  x={x:+.4f}  y={y:+.4f}  heading={th:6.3f} rad")

print("\norientation marginal (mean, variance):")
for s in (0.5, 1.0, 2.0):
    mean, var = orientation_distribution(profile, params, s)
    print(f"  s={s:4.2f}:  N({mean:6.3f}, {var:.4f})")

print("\nmean position shrinks toward the circle center as noise accrues:")
stats = {s: low_order_statistics(profile, params, s) for s in (0.5, 1.0, 2.0)}
for s, st in stats.items():
    (mx, _), (my, _) = st["mean_x"], st["mean_y"]
    x, y, _ = deterministic_pose(profile, s)
    print(f"  s={s:4.2f}:  <x,y>=({mx:+.4f},{my:+.4f})"
          f"   deterministic ({x:+.4f},{y:+.4f})")

print("\nsecond moments and position-heading covariances at s=1,")
print("each with the error estimate of its quadrature:")
for name, (value, err) in stats[1.0].items():
    if not name.startswith("mean"):
        print(f"  {name:10s} = {value:+.5f}  (+- {err:.1e})")

# The trace of the position covariance block plus the squared mean equals
# the mean squared distance; see distance_moments_closed_form.py.
m_xx, m_yy = stats[1.0]["m_xx"][0], stats[1.0]["m_yy"][0]
print(f"\n  <x^2>+<y^2> = {m_xx + m_yy:.5f}")
