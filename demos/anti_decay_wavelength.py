"""Shorter wavelengths punish the direct link; a wavelength-tracking panel
design cancels the loss on the reflected link.

Friis says direct-link power scales with the wavelength squared, so halving
the wavelength costs 6 dB.  The reflected link's per-element gain also
shrinks, but the element count grows if the panel area is held fixed while
elements track the wavelength (side = wavelength / 3 here).  The L^2 growth
of the reflected power exactly offsets the per-element loss.

Under the bundled far_field_mode `warn` the sweep prints one
FarFieldWarning to stderr: each fixed-area 9 m^2 panel fails the
far-field check at R', at all 25 wavelengths.
"""

from rislink import anti_decay_design, load_config
from rislink.experiments import sweep_wavelength

cfg = load_config()
result = sweep_wavelength(cfg)

col = result.columns

print(f"{'wavelength (m)':>15} {'grid':>11} {'RIS link':>10} {'direct':>10}")
for i in range(0, len(result), max(len(result) // 8, 1)):
    print(f"{col['wavelength_m'][i]:15.5f} {col['rows'][i]:5d} x "
          f"{col['cols'][i]:<4d}{col['ris_dbm'][i]:9.2f} "
          f"{col['direct_dbm'][i]:10.2f}")

ris = col["ris_dbm"]
direct = col["direct_dbm"]
print(f"\nRIS-link swing over the octave:    {ris.max() - ris.min():.3f} dB")
print(f"direct-link swing over the octave: "
      f"{direct.max() - direct.min():.3f} dB")

d = anti_decay_design(cfg.wavelength / 2, 1 / 3, 9.0)
print(f"\nAt half the default wavelength the 9 m^2 panel carries "
      f"{d.rows} x {d.cols} elements of {d.d_x * 100:.2f} cm.")
print("The residual RIS-link ripple is pure grid rounding: element counts")
print("are integers, so the panel area wobbles slightly around 9 m^2.")
