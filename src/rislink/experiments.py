"""Experiment runner: scene builders and the simulation studies (distance
sweep, plane sweeps with/without direct link, wavelength sweep with the
anti-decay design, position-perturbation robustness).  Only the studies
apply the profile's far-field policy, _enforce_far_field.  The oracle
suite of `rislink validate` lives with its oracles, in `validation`."""

from __future__ import annotations

import warnings

import numpy as np

from . import __version__
from .config import SceneConfig, watts_to_dbm
from .em import (RadioParams, exact_channel, farfield_power, friis_amplitude,
                 received_power, scene_route, tir_delta)
from .geometry import (PanelPoses, RisPanel, TransmitterArray, UlaLayout,
                       _norm, far_field_check, far_field_holds)
from .errors import DomainError, FarFieldViolation, FarFieldWarning
from .placement import PlaneScene, _position_factor, _triangle_cos
from .solvers import (anti_decay_design, closed_form_predicted_power,
                      closed_form_solution, power_upper_bound, svd_solution,
                      two_path_o, two_path_power_closed_form,
                      two_path_solution)

# Rows per block, shared by the plane map's model calls (sweep_plane), which
# keep their temporaries to one block and carry its powers to dBm in its
# rows of the written columns, and the CSV writer (output.emit_csv), which
# turns at most this many rows at a time, whole grid rows of a map, into
# one byte matrix, compacts it and writes it: joining the text of the whole
# 40 401-row plane map before writing raised a run's peak memory by 5 %.
_BLOCK_ROWS = 4096


class SweepResult:
    """The table of one experiment, as named columns, plus plotting metadata.

    `kind` is "line", "bar", "heatmap" or "robustness".  `columns` maps
    each CSV header, in order, to one column: a numpy float or int array,
    or a list of str.  The rows are a column's cells in C order, the same
    number in every column.  The two maps ("heatmap", "robustness") give
    every column the grid's shape, y outer and x inner: the axes x_m and
    y_m, and a column that holds one value, are read-only broadcast views
    of their distinct values, whose zero strides output.emit_csv reads.
    `np.ravel(column)` gives a column's rows as one array.
    """

    def __init__(self, kind: str, columns: dict[str, np.ndarray | list[str]],
                 meta: dict | None = None):
        self.kind = kind
        self.columns = columns
        self.meta = {} if meta is None else meta

    @property
    def header(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def __len__(self) -> int:
        """Number of rows: the number of cells of the first column."""
        return np.size(next(iter(self.columns.values()), ()))


def _radio(cfg: SceneConfig) -> RadioParams:
    return RadioParams(wavelength=cfg.wavelength, tx_power=cfg.tx_power,
                       rx_gain=cfg.rx_gain)


def _panel_at(cfg: SceneConfig, center, frame) -> RisPanel:
    normal, ax, ay = frame
    return RisPanel(center=np.asarray(center, dtype=float),
                    rows=cfg.ris_rows, cols=cfg.ris_cols,
                    d_x=cfg.element_size_x, d_y=cfg.element_size_y,
                    normal=normal, axis_x=ax, axis_y=ay,
                    reflection_coeff=cfg.reflection_coeff,
                    pattern_exponent=cfg.pattern_exponent,
                    element_gain=cfg.ris_gain)


def _ula_at(cfg: SceneConfig, center, axis) -> TransmitterArray:
    return TransmitterArray(center=center,
                            layout=UlaLayout(count=cfg.antennas,
                                             spacing=cfg.spacing,
                                             axis=axis),
                            element_gain=cfg.tx_gain)


_EX, _EY, _EZ = np.eye(3)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norm(v)[..., None]


def _reject(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """v less its component along n, v - (v . n) * n, row by row."""
    return v - np.vecdot(v, n)[..., None] * n


def specular_frame(position, tx_center, rx_position):
    """Orthonormal panel frame whose normal bisects the T and R directions,
    i.e. the specular-reflection (optimal) orientation.

    `position` is one point (3,) or a stack of P points (P, 3); normal,
    axis_x and axis_y come back in the same shape, and each row of a stack
    has the bits of its one-point frame.  The fallbacks of the degenerate
    cases are built only when some row needs them.
    """
    p = np.asarray(position, dtype=float)
    u_t = _unit(np.asarray(tx_center, dtype=float) - p)
    u_r = _unit(np.asarray(rx_position, dtype=float) - p)
    normal = u_t + u_r
    nn = _norm(normal)[..., None]
    # T and R exactly opposite: any normal in the bisecting plane works
    opposite = nn < 1e-12
    if opposite.any():
        seed = np.where(np.abs(u_t[..., 2:]) < 0.9, _EZ, _EX)
        normal = np.where(opposite, _reject(seed, u_t),
                          normal / np.where(opposite, 1.0, nn))
    else:
        normal = normal / nn
    ax = _reject(u_t, normal)
    # T and R both along the normal: any in-plane axis works
    flat = _norm(ax)[..., None] < 1e-12
    if flat.any():
        seed = np.where(np.abs(normal[..., :1]) < 0.9, _EX, _EY)
        ax = np.where(flat, _reject(seed, normal), ax)
    ax = _unit(ax)
    return _unit(normal), ax, _unit(np.cross(normal, ax))


def equilateral_scene(cfg: SceneConfig, d: float):
    """T, RIS, R on an equilateral triangle of side d with the RIS at the
    specular (optimal) orientation; ULA axis out of the triangle plane."""
    return _equilateral_scenes(cfg, [d])[0]


def _equilateral_scenes(cfg: SceneConfig, ds) -> list:
    """The scene (tx, ris, rx) of equilateral_scene at each side d of
    `ds`: T = (-d/2, 0, 0), R = (d/2, 0, 0) and the RIS centre
    (0, 0, sqrt(3)/2 * d) as (P, 3) stacks, whose frames come from one
    specular_frame call, each row with the bits of its one-point frame."""
    d = np.asarray(ds, dtype=float)[:, None]
    zero = np.zeros_like(d)
    t_pos = np.hstack((-d / 2, zero, zero))
    r_pos = np.hstack((d / 2, zero, zero))
    i_pos = np.hstack((zero, zero, np.sqrt(3) / 2 * d))
    frames = zip(*specular_frame(i_pos, t_pos, r_pos))
    return [(_ula_at(cfg, t, [0.0, 1.0, 0.0]), _panel_at(cfg, i, frame), r)
            for t, r, i, frame in zip(t_pos, r_pos, i_pos, frames)]


def plane_endpoints(cfg: SceneConfig):
    """T and R of the Fig.-4-style setup: plane S is z = 0, both endpoints
    at height h, projected onto T' = origin and R' = (d_TR, 0)."""
    h = cfg.height
    # equal heights: the projected separation equals d_TR
    return (_ula_at(cfg, np.array([0.0, 0.0, h]), [0.0, 0.0, 1.0]),
            np.array([cfg.d_tr, 0.0, h]))


def _point_arrays(*args):
    """The shape the point arguments broadcast to, and each argument as a
    float array of that shape, or of shape (1,) when all are scalars: a
    scalar call computes on one-element arrays to match an array call bit
    for bit (numpy rounds `x**k` on scalars differently)."""
    shape = np.broadcast_shapes(*map(np.shape, args))
    return shape, [np.broadcast_to(np.asarray(a, dtype=float), shape or (1,))
                   for a in args]


def _ris_terms(cfg: SceneConfig, d_ti, d_ir, d_tr):
    """a_TIR = delta_1 * sqrt(f) and the RIS-only power
    N * L^2 * P_t * delta_1^2 * f at optimally oriented RIS positions, from
    distance arrays of one shape: f is the position factor f_object, and
    delta_1 is tir_delta with the pattern set to 1.  It raises as
    optimal_orientation does, and f is f_object's expression on the one
    cos(theta_0) of those checks."""
    f = _position_factor(_triangle_cos(d_ti, d_ir, d_tr), d_ti, d_ir,
                         cfg.pattern_exponent)
    delta = tir_delta(cfg.tx_gain, cfg.rx_gain, cfg.ris_gain,
                      cfg.element_size_x, cfg.element_size_y, cfg.wavelength,
                      1.0, 1.0, cfg.reflection_coeff)
    return delta * np.sqrt(f), closed_form_predicted_power(
        delta, cfg.antennas, cfg.ris_rows * cfg.ris_cols, cfg.tx_power) * f


def ris_point_power(cfg: SceneConfig, d_ti, d_ir, d_tr):
    """Closed-form RIS-only received power (W) at RIS positions with optimal
    orientation: N * L^2 * P_t * delta_1^2 times the position factor
    placement.f_object, with the bits of analytic_point_power's "ris" and
    none of its two-path terms.  The distances broadcast as numpy arrays;
    scalars give a float.
    """
    shape, (d_ti, d_ir, d_tr) = _point_arrays(d_ti, d_ir, d_tr)
    power = _ris_terms(cfg, d_ti, d_ir, d_tr)[1]
    return power if shape else float(power[0])


def analytic_point_power(cfg: SceneConfig, d_ti, d_ir, d_tr, cos_mu_ti,
                         cos_mu_tr) -> dict:
    """Closed-form RIS-only, direct-only and combined two-path received
    powers (W) and the coherence factor O at RIS positions with optimal
    orientation: the RIS-only term of ris_point_power, and the two-path
    terms on top of it.  The inputs broadcast as numpy arrays to the shape
    of every result; scalars give floats, with the bits of an array call.
    A caller that reads only the RIS-only power calls ris_point_power.
    """
    shape, (d_ti, d_ir, d_tr, cos_mu_ti, cos_mu_tr) = _point_arrays(
        d_ti, d_ir, d_tr, cos_mu_ti, cos_mu_tr)
    a_tir, ris = _ris_terms(cfg, d_ti, d_ir, d_tr)
    n = cfg.antennas
    a_tr = friis_amplitude(cfg.tx_gain, cfg.rx_gain, cfg.wavelength, d_tr)
    o = two_path_o(n, cfg.spacing, cos_mu_ti, cos_mu_tr, cfg.wavelength)
    powers = {"ris": ris,
              "direct": n * a_tr**2 * cfg.tx_power,
              "combined": two_path_power_closed_form(
                  a_tir, a_tr, o, n, cfg.ris_rows * cfg.ris_cols,
                  cfg.tx_power),
              "o": o}
    if shape:
        return powers
    return {key: float(value[0]) for key, value in powers.items()}


def _enforce_far_field(cfg: SceneConfig, ratios: np.ndarray) -> None:
    """Apply the profile's far_field_mode to the quotients (P, 3) of
    far_field_check at all P poses of one study: "strict" raises and "warn"
    warns once if any pose fails, "off" skips the verdict.  A pose passes
    where all three quotients are >= 1, as in sweep_distance's far_field_ok."""
    mode = cfg.far_field_mode
    if mode not in ("strict", "warn", "off"):
        raise DomainError(f"unknown far-field mode {mode!r}")
    # one pass over the whole array; the per-pose verdict only on a failure
    if mode == "off" or np.all(ratios >= 1.0):
        return
    failing = ~np.all(ratios >= 1.0, axis=-1)
    count = (f" at {failing.sum()} of {len(failing)} poses"
             if len(failing) > 1 else "")
    msg = (f"far-field conditions fail{count}: "
           f"ratios {tuple(ratios[np.argmax(failing)].tolist())}")
    if mode == "strict":
        raise FarFieldViolation(msg)
    warnings.warn(msg, FarFieldWarning)


def _judge_far_field(cfg: SceneConfig, tx: TransmitterArray,
                     ris: RisPanel, d_ti, d_ir) -> None:
    """_enforce_far_field of one panel at the hop distances d_TI and d_IR
    of its poses, whose quotients are built only when a pose fails
    far_field_holds; when all pass, the mode is still checked, against
    quotients of 1."""
    passing = far_field_holds(tx, ris, d_ti, d_ir)
    _enforce_far_field(cfg, np.ones(3) if passing
                       else far_field_check(tx, ris, d_ti, d_ir))


def _plane_panel(cfg: SceneConfig) -> tuple[TransmitterArray, RisPanel]:
    """The array at T of plane_endpoints and the configured panel on plane
    S, which the far-field policy judges at hop distances of
    PlaneScene.hops."""
    tx, _ = plane_endpoints(cfg)
    return tx, _panel_at(cfg, np.zeros(3), (_EZ, _EX, _EY))


def _plane_point_power(cfg: SceneConfig, d_ti, d_ir,
                       direct: bool = True) -> dict:
    """analytic_point_power with the RIS on plane S at hop distances of
    PlaneScene.hops, between the endpoints of plane_endpoints.  Without
    `direct`, only the RIS-only route runs: ris_point_power, returned as
    the one key "ris"."""
    if not direct:
        return {"ris": ris_point_power(cfg, d_ti, d_ir, cfg.d_tr)}
    # ULA axis is the plane normal, so cos(mu_TI) = h / d_TI and the
    # horizontal T->R direction gives cos(mu_TR) = 0
    return analytic_point_power(cfg, d_ti, d_ir, cfg.d_tr,
                                cos_mu_ti=cfg.height / d_ti, cos_mu_tr=0.0)


def _meta(cfg: SceneConfig, experiment: str, **settings) -> dict:
    """Sidecar metadata: the profile's hash and the settings resolved on top
    of it by the command line (panel grid, far-field mode, and the study's
    own `settings` such as the direct link of the studies that model it),
    so that runs differing only in such a flag write different sidecars."""
    return {"tool": "rislink", "version": __version__,
            "experiment": experiment, "config_hash": cfg.config_hash,
            "ris_rows": cfg.ris_rows, "ris_cols": cfg.ris_cols,
            "far_field_mode": cfg.far_field_mode, **settings}


def sweep_distance(cfg: SceneConfig) -> SweepResult:
    """Equilateral-scene distance sweep: closed-form and SVD designs against
    the upper bound, all evaluated on the exact per-pair channel."""
    radio = _radio(cfg)
    sw = cfg.sweeps
    ds = np.linspace(sw.distance_min, sw.distance_max, sw.distance_points)
    closed, svd, bound = (np.empty(len(ds)) for _ in range(3))
    for i, (tx, ris, rx) in enumerate(_equilateral_scenes(cfg, ds)):
        route = scene_route(tx, ris, rx, radio)
        channels = exact_channel(route)
        sol = closed_form_solution(route)
        closed[i] = received_power(channels, sol.theta, sol.v)
        svd[i] = svd_solution(channels, cfg.tx_power).predicted_power
        bound[i] = power_upper_bound(channels, cfg.tx_power)
        # release this point's L x N channel before the next one is built,
        # so that the next reuses its memory: with two alive at once the
        # heap grows and is trimmed again on every pass of the sweep
        del channels
    # every point has the same array and panel, and the equilateral hops
    # are d_TI = d_IR = d: one check over every distance
    ok = np.all(far_field_check(tx, ris, ds, ds) >= 1.0, axis=-1).astype(int)
    return SweepResult(kind="line",
                       columns={"d_m": ds, "closed_form_w": closed,
                                "svd_w": svd, "upper_bound_w": bound,
                                "closed_form_dbm": watts_to_dbm(closed),
                                "svd_dbm": watts_to_dbm(svd),
                                "upper_bound_dbm": watts_to_dbm(bound),
                                "far_field_ok": ok},
                       meta=_meta(cfg, "sweep-distance"))


def sweep_plane(cfg: SceneConfig) -> SweepResult:
    """Received power versus RIS position on plane S, analytic per-point
    optimal design; adds the two-path balance when the direct link is on.
    The far-field policy judges the configured panel at every position,
    in one verdict over the whole grid.

    The columns have the grid's shape: x_m and y_m are broadcast views of
    the two axes, and direct_dbm, which no position changes, is one value
    broadcast.  The model runs on blocks of _BLOCK_ROWS points, and each
    block's powers go to dBm, and its O to |O|, in the block's rows of the
    written columns: no full-grid x, y, watt or O array is built.
    """
    sw = cfg.sweeps
    xs = np.linspace(sw.plane_x[0], sw.plane_x[1], sw.plane_points)
    ys = np.linspace(sw.plane_y[0], sw.plane_y[1], sw.plane_points)
    x, y = np.meshgrid(xs, ys, copy=False)   # y outer, x inner
    d_ti, d_ir = (d.ravel() for d in PlaneScene(
        cfg.height, cfg.height, cfg.d_tr).hops(xs, ys[:, None]))
    _judge_far_field(cfg, *_plane_panel(cfg), d_ti, d_ir)
    # each written column, from the model's key it carries to dBm or |O|
    carried = {"ris_dbm": ("ris", watts_to_dbm)}
    if cfg.direct_link:
        carried.update(total_dbm=("combined", watts_to_dbm),
                       abs_o=("o", np.abs))
    written = {name: np.empty(x.shape) for name in carried}
    # the model is elementwise: blocks of _BLOCK_ROWS points give the bits
    # of one whole-grid call and keep the temporaries small
    for start in range(0, d_ti.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        p = _plane_point_power(cfg, d_ti[rows], d_ir[rows], cfg.direct_link)
        for name, (key, carry) in carried.items():
            written[name].reshape(-1)[rows] = carry(p[key])
    columns = {"x_m": x, "y_m": y, "ris_dbm": written["ris_dbm"]}
    if cfg.direct_link:
        # the direct path does not see the panel: one value at every point
        columns.update(direct_dbm=np.broadcast_to(
                           watts_to_dbm(p["direct"][:1]), x.shape),
                       total_dbm=written["total_dbm"],
                       abs_o=written["abs_o"])
    return SweepResult(kind="heatmap", columns=columns,
                       meta=_meta(cfg, "sweep-plane",
                                  direct_link=cfg.direct_link))


def sweep_wavelength(cfg: SceneConfig) -> SweepResult:
    """Wavelength sweep with the fixed-area anti-decay panel design; RIS
    fixed at R' on plane S.  The far-field policy judges each wavelength's
    panel at R', all wavelengths at once.
    """
    sw = cfg.sweeps
    lams = np.linspace(sw.wavelength_min, sw.wavelength_max,
                       sw.wavelength_points)
    designs = [anti_decay_design(lam, sw.element_ratio, sw.total_area)
               for lam in lams.tolist()]
    scenes = [cfg._replace(wavelength=lam, ris_rows=design.rows,
                           ris_cols=design.cols, element_size_x=design.d_x,
                           element_size_y=design.d_y,
                           spacing=cfg.spacing / cfg.wavelength * lam)
              for lam, design in zip(lams.tolist(), designs)]
    # the panel moves with none of the wavelengths: one pair of hops
    plane = PlaneScene(cfg.height, cfg.height, cfg.d_tr)
    d_ti, d_ir = plane.hops(cfg.d_tr, 0.0)
    _enforce_far_field(cfg, np.stack([
        far_field_check(*_plane_panel(scene), d_ti, d_ir)
        for scene in scenes]))
    # one model call per wavelength, since each has its own panel
    points = [_plane_point_power(scene, d_ti, d_ir) for scene in scenes]
    ris, direct, combined = (np.array([p[key] for p in points])
                             for key in ("ris", "direct", "combined"))
    # the panels are the rows x cols designs, not the profile's grid
    meta = _meta(cfg, "sweep-wavelength")
    del meta["ris_rows"], meta["ris_cols"]
    return SweepResult(kind="line",
                       columns={"wavelength_m": lams, "ris_w": ris,
                                "direct_w": direct, "combined_w": combined,
                                "ris_dbm": watts_to_dbm(ris),
                                "direct_dbm": watts_to_dbm(direct),
                                "combined_dbm": watts_to_dbm(combined),
                                "rows": np.array([d.rows for d in designs]),
                                "cols": np.array([d.cols for d in designs])},
                       meta=meta)


def robustness(cfg: SceneConfig) -> SweepResult:
    """Normalized power deviation of the closed-form beamformer and phase
    shifts derived at the assumed position T' but applied at perturbed true
    positions.

    Only the beamformer and phase shifts are estimated; the panel keeps the
    (locally known) specular orientation at its true position.  That frame
    puts u_TI + u_IR along the panel normal at every true position, as at
    the assumed one, so the phases still match: theta . d_vec is exactly L
    at every position, and the deviation measures only the mismatch in
    a_TIR and in b_vec . v.  A true position where the panel does not see
    both ends receives 0 W.  The far-field policy judges the panel at
    every true position.
    """
    radio = _radio(cfg)
    sw = cfg.sweeps
    tx, rx = plane_endpoints(cfg)
    assumed = np.array([0.0, 0.0, 0.0])
    ris = _panel_at(cfg, assumed, specular_frame(assumed, tx.center, rx))

    offs = np.linspace(-sw.robustness_extent, sw.robustness_extent,
                       sw.robustness_points)
    grid = np.meshgrid(offs, offs, copy=False)   # y outer, x inner
    x, y = (g.ravel() for g in grid)
    d_ti, d_ir = PlaneScene(cfg.height, cfg.height, cfg.d_tr).hops(x, y)
    _judge_far_field(cfg, tx, ris, d_ti, d_ir)
    centers = np.stack([x, y, np.zeros_like(x)], axis=1)
    poses = PanelPoses(centers, *specular_frame(centers, tx.center, rx))
    est_power = farfield_power(scene_route(tx, ris, rx, radio), poses)
    ideal = ris_point_power(cfg, d_ti, d_ir, cfg.d_tr)
    dev = np.abs(est_power - ideal) / np.maximum(est_power, ideal)
    # the columns take the grid's shape, the axes as broadcast views
    shape = grid[0].shape
    return SweepResult(kind="robustness",
                       columns={"x_m": grid[0], "y_m": grid[1],
                                "deviation": dev.reshape(shape),
                                "estimated_dbm": watts_to_dbm(
                                    est_power).reshape(shape),
                                "ideal_dbm": watts_to_dbm(
                                    ideal).reshape(shape)},
                       meta=_meta(cfg, "robustness"))


def solve(cfg: SceneConfig) -> SweepResult:
    """One fixed scene: every method's predicted and evaluated power, and
    the upper bound as the last row.  The far-field policy judges the
    panel's pose only before the two-path design of the direct link.  The
    channel, the designs and the verdict read one scene route."""
    radio = _radio(cfg)
    tx, ris, rx = equilateral_scene(cfg, cfg.d_tr)
    route = scene_route(tx, ris, rx, radio)
    channels = exact_channel(route, direct=cfg.direct_link)
    sols = [closed_form_solution(route)]
    if cfg.direct_link:
        _judge_far_field(cfg, tx, ris, route.angles.d_ti, route.angles.d_ir)
        sols.append(two_path_solution(route))
    sols.append(svd_solution(channels, cfg.tx_power))
    bound = power_upper_bound(channels, cfg.tx_power)
    evaluated = [received_power(channels, s.theta, s.v) for s in sols]
    return SweepResult(kind="bar",
                       columns={"method": [s.method.value for s in sols]
                                + ["upper-bound"],
                                "predicted_dbm": watts_to_dbm(
                                    [s.predicted_power for s in sols]
                                    + [bound]),
                                "evaluated_dbm": watts_to_dbm(
                                    evaluated + [bound])},
                       meta=_meta(cfg, "solve",
                                  direct_link=cfg.direct_link))
