"""Reproducible verification scenarios over the whole operator stack.

A scenario measures both sides of one of the square-function inequalities on
a structured family of closed-form test functions (shapes x dilations x
translates) and reports per-member ratios.  "Verification" here means ratio
boundedness and stability across the family, never a claim about the
inexplicit constants: the central anti-artifact check is that both sides of
every inequality transform identically under dilation, so per-shape ratio
spread across dilates must stay within tight bounds.

Scenarios
---------
ladder_compare (prop23)   weighted q-square-function of psi = d/dx phi
                          against that of phi
vanishing_symbol (thm210) psi with symbol vanishing near 0 against phi,
                          with an independent spectral-multiplier oracle
                          at q = 2 and unit weight
hardy_lower (cor31)       grand-maximal H^p norm against the g-function
discrete_ladder (prop36)  normalized discrete ladder sum against the
                          continuous square function
synthesis_atoms (lemma33) H^1 size of synthesized atoms, uniform over the
                          scale cutoff
constants_audit           the admissibility condition verdicts

Configs are single JSON documents with every physical parameter explicit;
identical config + seed produces bit-identical CSV output.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import families
from .calderon import build_partition, find_intervals
from .constants import check_conditions
from .fields import Grid, SampledField, ScaleGrid, lp_norm, to_spectrum, weighted_lp_norm
from .io import restore_nonfinite, write_json
from .kernels import (
    KernelFamily,
    KernelSpec,
    check_cancellation,
    constant_multiplier,
    coordinate_multiplier,
    derived_kernel,
    make_builtin,
    power_tail_kernel,
)
from .maximal import GrandMaxConfig, default_grand_scales, grand_max
from .transforms import g_discrete, g_function, make_atom, synthesize
from .weights import Weight, admissible_power_range

SCENARIOS = (
    "prop23",
    "thm210",
    "cor31",
    "prop36",
    "lemma33",
    "constants_audit",
)


class ConfigError(ValueError):
    """Invalid experiment configuration (reported, never silently downgraded)."""


def _number(key: str, v, kind=float):
    """``v`` if it is a JSON number of the kind (float admits integers)."""
    if isinstance(v, bool) or not isinstance(v, (int,) if kind is int else (int, float)):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {v!r}")
    return v


def _log_scales(key: str, s: dict, default_count: int) -> ScaleGrid:
    return ScaleGrid.log_spaced(float(_number(f"{key}.t_min", s["t_min"])),
                                float(_number(f"{key}.t_max", s["t_max"])),
                                _number(f"{key}.count", s.get("count", default_count), int))


def resolve_kernel(name: str, params=None) -> KernelSpec:
    if name == "power_tail" and not params:
        raise ConfigError("power_tail kernel needs params [tau]")
    try:
        if name == "power_tail":
            return power_tail_kernel(float(params[0]))
        return make_builtin(name, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_weight(spec) -> Weight:
    if spec is None:
        return Weight.const(1.0)
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return Weight.const(float(spec.get("c", 1.0)))
    if kind == "power":
        return Weight.power(float(spec["a"]))
    raise ConfigError(f"unknown weight kind {kind!r}")


@dataclass
class ExperimentConfig:
    scenario: str
    phi: dict = field(default_factory=lambda: {"name": "poissonQ", "params": []})
    psi: dict | None = None  # scenario-dependent default, see psi_spec()
    p: float = 2.0
    q: float = 2.0
    N: int = 2
    A: float | None = None
    b: float = 0.5
    weight: dict | None = None
    grid: dict = field(default_factory=lambda: {"dimension": 1, "points_per_axis": 4096,
                                                "half_extent": 16.0})
    scales: dict = field(default_factory=lambda: {"t_min": 1e-4, "t_max": 1e2, "count": 128})
    grand_scales: dict | None = None
    test_family: dict = field(default_factory=dict)
    seed: int = 1234
    epsilons: tuple = (1e-1, 1e-2, 1e-3)
    atom_count: int = 20
    discrete_b: float = 0.99

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        scenario = d.pop("scenario", None)
        if scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        cfg = cls(scenario=scenario)
        for k, v in d.items():
            if not hasattr(cfg, k):
                raise ConfigError(f"unknown config key {k!r}")
            setattr(cfg, k, v)
        if isinstance(cfg.epsilons, list):
            cfg.epsilons = tuple(cfg.epsilons)
        cfg._check_types_and_ranges()
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc

    def _check_types_and_ranges(self):
        for key in ("p", "q", "N", "b", "discrete_b"):
            if not _number(key, getattr(self, key)) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if self.A is not None and not _number("A", self.A) >= 1:
            raise ConfigError(f"A must be >= 1, got {self.A}")
        for key in ("seed", "atom_count"):
            _number(key, getattr(self, key), int)
        if not isinstance(self.epsilons, tuple):
            raise ConfigError(f"epsilons must be a list, got {self.epsilons!r}")
        if not self.epsilons:
            raise ConfigError("epsilons must be nonempty")
        for e in self.epsilons:
            if not 0 < _number("epsilons[]", e) < 1:
                raise ConfigError(f"epsilons must lie in (0, 1), got {e}")
        for key in ("phi", "grid", "scales", "test_family", "psi", "weight", "grand_scales"):
            v = getattr(self, key)
            if not isinstance(v, dict) and (v is not None or key in ("phi", "grid", "scales")):
                raise ConfigError(f"{key} must be a JSON object, got {v!r}")
        for shape in self.test_family.get("shapes", families.SHAPES):
            if shape not in families.SHAPES:
                raise ConfigError(f"unknown test_family shape {shape!r} "
                                  f"(choose from {families.SHAPES})")
        try:
            self.make_grand_scales(self.make_grid())
            self.make_scales()
            resolve_weight(self.weight)
        except KeyError as exc:
            raise ConfigError(f"grid, scales or weight entry lacks the key {exc}") from exc
        except ValueError as exc:  # raised by Grid, ScaleGrid and Weight
            raise ConfigError(str(exc)) from exc

    def psi_spec(self, default_name: str) -> dict:
        """The configured psi kernel, or the scenario's natural default
        (the gradient pair for the ladder comparison, the annulus bump for
        vanishing-symbol scenarios)."""
        return self.psi if self.psi else {"name": default_name, "params": []}

    def make_grid(self) -> Grid:
        g = self.grid
        return Grid(_number("grid.dimension", g.get("dimension", 1), int),
                    _number("grid.points_per_axis", g["points_per_axis"], int),
                    float(_number("grid.half_extent", g["half_extent"])))

    def make_scales(self) -> ScaleGrid:
        return _log_scales("scales", self.scales, 128)

    def make_grand_scales(self, grid: Grid) -> ScaleGrid:
        """The configured grand-maximal scale grid, or the grid's default."""
        if not self.grand_scales:
            return default_grand_scales(grid)
        return _log_scales("grand_scales", self.grand_scales, 64)

    def make_family(self) -> list:
        fam = dict(self.test_family)
        return families.default_family(
            dilations=fam.get("dilations", families.DEFAULT_DILATIONS),
            shifts=fam.get("shifts", (0.0,)),
            seed=int(fam.get("seed", self.seed)),
            shapes=fam.get("shapes", families.SHAPES),
        )

    def validate(self):
        grid = self.make_grid()
        n = grid.dimension
        if self.scenario in ("prop23", "thm210"):
            if self.N != int(self.N) or self.N <= 0:
                raise ConfigError("N must be a positive integer")
            if not (self.N > max(n / self.p, n / self.q)):
                raise ConfigError(
                    f"need N > max(n/p, n/q) = {max(n / self.p, n / self.q):.3g}"
                )
            w = resolve_weight(self.weight)
            if w.kind == "power":
                lo, hi = admissible_power_range(self.p, self.N, n)
                if not (lo < w.exponent < hi):
                    raise ConfigError(
                        f"power weight exponent {w.exponent} outside the admissible "
                        f"range ({lo:.3g}, {hi:.3g}) for this (p, N)"
                    )
        if self.scenario == "cor31" and not (0 < self.p <= 1):
            raise ConfigError("hardy_lower scenario needs p in (0, 1]")
        if not (0 < self.b < 1):
            raise ConfigError("b must lie in (0, 1)")


@dataclass
class Report:
    scenario: str
    rows: list
    family_max_ratio: float
    family_min_ratio: float
    passed: bool
    criterion: str
    diagnostics: dict
    environment: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        """The report of ``to_dict`` or of a parsed report.json."""
        return cls(**restore_nonfinite(d))


def _row(fname: str, lam: float, lhs: float, rhs: float) -> dict:
    ratio = lhs / rhs if rhs > 0 else math.inf
    return {"fname": fname, "lambda": lam, "lhs": lhs, "rhs": rhs, "ratio": ratio}


def _family_stats(rows) -> tuple:
    ratios = [r["ratio"] for r in rows if math.isfinite(r["ratio"])]
    if not ratios:
        return (math.nan, math.nan)
    return (max(ratios), min(ratios))


def _dilation_spread(rows) -> dict:
    by_shape: dict = {}
    for r in rows:
        shape = r["fname"].split("[")[0]
        by_shape.setdefault(shape, []).append(r["ratio"])
    return {
        shape: (max(v) / min(v) if min(v) > 0 else math.inf)
        for shape, v in by_shape.items()
    }


def _translation_gap(tf, measure) -> float:
    """Relative ratio change under a translate of the first family member
    (unweighted scenarios only; the periodic grid makes this a pure
    discretization diagnostic)."""
    _, lhs0, rhs0 = measure(replace(tf, lam=1.0, shift=0.0))
    _, lhs1, rhs1 = measure(replace(tf, lam=1.0, shift=1.5))
    if rhs0 <= 0 or rhs1 <= 0:
        return math.nan
    return abs((lhs1 / rhs1) / (lhs0 / rhs0) - 1.0)


def _environment(cfg: ExperimentConfig) -> dict:
    return {
        "grid": dict(cfg.grid),
        "scales": dict(cfg.scales),
        "seed": cfg.seed,
        "b": cfg.b,
    }


def _build_partition_for(cfg: ExperimentConfig, phi: KernelSpec):
    cover = find_intervals(phi, dimension=cfg.make_grid().dimension)
    if cfg.b < cover.b0:
        raise ConfigError(f"b must lie in [b0, 1) = [{cover.b0:.4g}, 1) for {phi.name}, "
                          f"got {cfg.b}")
    return build_partition(KernelFamily((phi,)), cfg.b, cover)


#: the 1-d grid resolving the partition annulus for the constants audit
CONSTANTS_GRID = Grid(1, 8192, 256.0)


def _resolve_psi(cfg: ExperimentConfig, phi: KernelSpec, default_name: str):
    """The configured psi and its config entry; ``phi_gradient`` is d/dx phi."""
    psi_cfg = cfg.psi_spec(default_name)
    if psi_cfg.get("name") == "phi_gradient":
        return derived_kernel(f"ddx_{phi.name}", phi, coordinate_multiplier(0)), psi_cfg
    return resolve_kernel(**psi_cfg), psi_cfg


def _splitting(cfg: ExperimentConfig, P, phi: KernelSpec, psi: KernelSpec, psi_cfg: dict,
               vanishing: bool) -> tuple:
    """The pair (A, Theta) with psi_hat = phi_hat * Theta on {|xi| < r2/A},
    checked on a probe of that ball.  A vanishing psi takes Theta = 0 and A
    past its support edge (first param, default 1/2); the gradient pair the
    derivative multiplier, any other psi Theta = 1, at the configured A."""
    # a vanishing symbol is exactly 0 on the ball; two agreeing symbols differ by round-off
    if vanishing:
        support_edge = (psi_cfg.get("params") or [0.5])[0]
        A, theta, tol = max(1.0, 1.05 * P.r2 / support_edge), constant_multiplier(0.0), 1e-12
    else:
        gradient = psi_cfg.get("name") == "phi_gradient"
        theta = coordinate_multiplier(0) if gradient else constant_multiplier(1.0)
        A, tol = 1.0 if cfg.A is None else cfg.A, 1e-8
    probe = np.linspace(1e-6, P.r2 / A, 256)[np.newaxis, :]
    product = np.asarray(phi.symbol(probe)) * np.asarray(theta.symbol(probe))
    gap = float(np.max(np.abs(np.asarray(psi.symbol(probe)) - product)))
    if gap > tol:
        raise ConfigError(
            f"psi_hat differs from phi_hat * {theta.name} near the origin (max {gap:.2e} "
            f"on |xi| < {P.r2 / A:.3g}); this scenario needs that relation"
        )
    return A, theta


def constants_audit(cfg: ExperimentConfig) -> tuple:
    """(P, psi, A, report): the partition, psi (default: the annulus bump, the
    vanishing case), A and the admissibility audit on CONSTANTS_GRID."""
    phi = resolve_kernel(**cfg.phi)
    psi, psi_cfg = _resolve_psi(cfg, phi, "annulus_bump")
    P = _build_partition_for(cfg, phi)
    A, theta = _splitting(cfg, P, phi, psi, psi_cfg, psi_cfg.get("name") == "annulus_bump")
    return P, psi, A, check_conditions(P, phi, psi, theta, A, float(cfg.N), CONSTANTS_GRID)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Compute both sides of the scenario's inequality over the test family."""
    cfg.validate()
    if cfg.scenario == "prop23":
        return _run_ladder_compare(cfg, vanishing=False)
    if cfg.scenario == "thm210":
        return _run_ladder_compare(cfg, vanishing=True)
    if cfg.scenario == "cor31":
        return _run_hardy_lower(cfg)
    if cfg.scenario == "prop36":
        return _run_discrete_ladder(cfg)
    if cfg.scenario == "lemma33":
        return _run_synthesis_atoms(cfg)
    if cfg.scenario == "constants_audit":
        return _run_constants_audit(cfg)
    raise ConfigError(f"unhandled scenario {cfg.scenario!r}")


class _SpectralRatioOracle:
    """Independent q=2 oracle: sqrt of the |f_hat|^2-weighted multiplier ratio,
    with m(xi) = integral |symbol(t xi)|^2 dt/t by a rectangle sum in log t
    over 4097 log-uniform nodes, the end nodes at full weight (Plancherel on
    the symbols, independent of the measured path's per-scale convolutions
    on the configured scale grid)."""

    def __init__(self, psi: KernelSpec, phi: KernelSpec, grid: Grid, scales: ScaleGrid):
        fg = grid.frequency_grid()
        xi = fg.coords()
        self._r = np.sqrt(np.sum(xi**2, axis=0))
        u = np.exp(np.linspace(math.log(scales.t_min), math.log(scales.t_max), 4097))
        du = math.log(u[1] / u[0])

        def multiplier(k: KernelSpec) -> np.ndarray:
            rr = self._r[self._r > 0]
            out = np.zeros(self._r.shape)
            vals = np.zeros(rr.shape)
            for block in np.array_split(u, max(1, u.size // 256)):
                pts = (block[:, np.newaxis] * rr[np.newaxis, :])[np.newaxis]  # (1, T, R)
                vals += np.sum(np.abs(np.asarray(k.symbol(pts))) ** 2, axis=0) * du
            out[self._r > 0] = vals
            return out

        self._m_psi = multiplier(psi)
        self._m_phi = multiplier(phi)

    def ratio(self, f: SampledField) -> float:
        power = np.abs(to_spectrum(f).values) ** 2
        num = float(np.sum(power * self._m_psi))
        den = float(np.sum(power * self._m_phi))
        return math.sqrt(num / den)


def _run_ladder_compare(cfg: ExperimentConfig, vanishing: bool) -> Report:
    grid = cfg.make_grid()
    scales = cfg.make_scales()
    phi = resolve_kernel(**cfg.phi)
    weight = resolve_weight(cfg.weight)
    wf = weight.materialize(grid)

    psi, psi_cfg = _resolve_psi(cfg, phi, "annulus_bump" if vanishing else "phi_gradient")

    P = _build_partition_for(cfg, phi)
    A, theta = _splitting(cfg, P, phi, psi, psi_cfg, vanishing)
    audit = check_conditions(P, phi, psi, theta, A, float(cfg.N), CONSTANTS_GRID)
    diagnostics: dict = {"conditions": {
        k: {"passed": v.passed, "measured": v.measured}
        for k, v in audit.condition_verdicts.items()
    }}
    if not audit.all_passed:
        raise ConfigError("kernel pair fails the admissibility conditions")

    def measure(tf):
        f = tf.sample(grid)
        g_psi = g_function(f, psi, scales, cfg.q)
        g_phi = g_function(f, phi, scales, cfg.q)
        return (f, weighted_lp_norm(g_psi, wf, cfg.p), weighted_lp_norm(g_phi, wf, cfg.p))

    rows = []
    oracle_gaps = []
    leakage = 0.0
    unit_weight = weight.kind == "constant"
    use_oracle = vanishing and unit_weight and cfg.q == 2.0
    oracle = _SpectralRatioOracle(psi, phi, grid, scales) if use_oracle else None
    family = cfg.make_family()
    for tf in family:
        f, lhs, rhs = measure(tf)
        leakage = max(leakage, families.boundary_leakage(f))
        row = _row(tf.name, tf.lam, lhs, rhs)
        if use_oracle:
            row["oracle"] = oracle.ratio(f)
            oracle_gaps.append(abs(row["ratio"] / row["oracle"] - 1.0))
        rows.append(row)

    fmax, fmin = _family_stats(rows)
    spread = _dilation_spread(rows)
    diagnostics["dilation_spread"] = spread
    diagnostics["boundary_leakage"] = leakage
    if family and unit_weight:
        diagnostics["translation_gap"] = _translation_gap(family[0], measure)
    if use_oracle:
        diagnostics["max_oracle_gap"] = max(oracle_gaps)
        passed = max(oracle_gaps) <= 0.02
        criterion = "ratio matches the spectral-multiplier oracle within 2%"
    elif vanishing:
        passed = fmax / fmin <= 3.0 and all(s <= 1.02 for s in spread.values())
        criterion = "family ratio max/min <= 3 and per-shape dilation spread <= 2%"
    else:
        passed = fmax / fmin <= 5.0 and all(s <= 1.02 for s in spread.values())
        criterion = "family ratio max/min <= 5 and per-shape dilation spread <= 2%"
    return Report(cfg.scenario, rows, fmax, fmin, bool(passed), criterion,
                  diagnostics, _environment(cfg))


def _run_hardy_lower(cfg: ExperimentConfig) -> Report:
    grid = cfg.make_grid()
    scales = cfg.make_scales()
    phi = resolve_kernel(**cfg.phi)
    canc = check_cancellation(phi, grid.dimension)
    if not canc.passed:
        raise ConfigError(
            f"analysis kernel must be mean-zero (symbol(0) residual {canc.residual:.2e})"
        )
    gm_cfg = GrandMaxConfig(make_builtin("gaussian"), cfg.make_grand_scales(grid))

    def measure(tf):
        f = tf.sample(grid)
        star = grand_max(f, gm_cfg)
        gq = g_function(f, phi, scales, 2.0)
        return (f, lp_norm(star, cfg.p), lp_norm(gq, cfg.p))

    rows = []
    leakage = 0.0
    family = cfg.make_family()
    for tf in family:
        f, lhs, rhs = measure(tf)
        leakage = max(leakage, families.boundary_leakage(f))
        rows.append(_row(tf.name, tf.lam, lhs, rhs))
    fmax, fmin = _family_stats(rows)
    spread = _dilation_spread(rows)
    passed = fmax / fmin <= 5.0 and all(s <= 1.02 for s in spread.values())
    diagnostics = {"dilation_spread": spread, "boundary_leakage": leakage}
    if family:
        diagnostics["translation_gap"] = _translation_gap(family[0], measure)
    return Report(
        cfg.scenario, rows, fmax, fmin, bool(passed),
        "per-shape dilation spread <= 2% and family max/min <= 5",
        diagnostics,
        _environment(cfg),
    )


def _discrete_j_range(scales: ScaleGrid, b: float) -> range:
    j_lo = math.ceil(math.log(scales.t_max) / math.log(b))
    j_hi = math.floor(math.log(scales.t_min) / math.log(b))
    return range(j_lo, j_hi + 1)


def _run_discrete_ladder(cfg: ExperimentConfig) -> Report:
    grid = cfg.make_grid()
    scales = cfg.make_scales()
    phi = resolve_kernel(**cfg.phi)
    b = cfg.discrete_b
    if not 0 < b < 1:
        raise ConfigError("discrete_b must lie in (0, 1)")
    jr = _discrete_j_range(scales, b)
    norm = math.log(1.0 / b) ** (1.0 / cfg.q)
    rows = []
    for tf in cfg.make_family():
        f = tf.sample(grid)
        gc = g_function(f, phi, scales, cfg.q)
        gd = g_discrete(f, phi, b, jr, cfg.q)
        diff = SampledField(grid, norm * gd.values - gc.values)
        rows.append(_row(tf.name, tf.lam, lp_norm(diff, 2.0), lp_norm(gc, 2.0)))
    fmax, fmin = _family_stats(rows)
    bound = 0.02 if b >= 0.99 else (0.15 if b >= 0.9 else 0.5)
    passed = all(r["ratio"] <= bound for r in rows)
    return Report(
        cfg.scenario, rows, fmax, fmin, bool(passed),
        f"relative L2 difference <= {bound:.0%} at b = {b}",
        {"j_count": len(jr), "normalization": norm},
        _environment(cfg),
    )


def _run_synthesis_atoms(cfg: ExperimentConfig) -> Report:
    grid = cfg.make_grid()
    p = cfg.p if 0 < cfg.p <= 1 else 1.0
    eps_list = tuple(float(e) for e in cfg.epsilons)
    need = 1.0 / min(eps_list)
    scales = ScaleGrid.log_spaced(min(eps_list) / 2.0, 2.0 * need, 128)
    psi_cfg = cfg.psi_spec("annulus_bump")
    if psi_cfg.get("name") == "annulus_bump" and not psi_cfg.get("params"):
        # narrow default: symbol supported in {1 <= |xi| <= 2}
        psi = make_builtin("annulus_bump", [1.0, 1.2, 1.7, 2.0])
    else:
        psi = resolve_kernel(**psi_cfg)
    gm_cfg = GrandMaxConfig(make_builtin("gaussian"), default_grand_scales(grid))
    cube_side = min(4.0, grid.half_extent / 2.0)

    rows = []
    per_atom: dict = {}
    rng = np.random.default_rng(cfg.seed)
    for k in range(cfg.atom_count):
        seed = int(rng.integers(0, 2**31 - 1))
        center = float(rng.uniform(-grid.half_extent / 4.0, grid.half_extent / 4.0))
        centers = (center,) * grid.dimension
        atom = make_atom(grid, scales, centers, cube_side, p, seed)
        name = f"atom{k:02d}[seed={seed}]"
        vals = []
        for eps in eps_list:
            synth = synthesize(atom.values, psi, eps)
            star = grand_max(synth, gm_cfg)
            vals.append(lp_norm(star, p))
        ref = min(vals)
        for eps, v in zip(eps_list, vals):
            rows.append(_row(name, eps, v, ref))
        per_atom[name] = max(vals) / min(vals) if min(vals) > 0 else math.inf
    fmax, fmin = _family_stats(rows)
    passed = all(s <= 1.5 for s in per_atom.values())
    return Report(
        cfg.scenario, rows, fmax, fmin, bool(passed),
        "per-atom max/min of the synthesized H^p size <= 1.5 across cutoffs",
        {"per_atom_spread": per_atom, "across_atom_max": fmax},
        _environment(cfg),
    )


def _run_constants_audit(cfg: ExperimentConfig) -> Report:
    *_, audit = constants_audit(cfg)
    rows = [
        {"fname": k, "lambda": 0.0, "lhs": v.measured, "rhs": math.nan,
         "ratio": math.nan, "passed": v.passed}
        for k, v in audit.condition_verdicts.items()
    ]
    return Report(
        cfg.scenario, rows, math.nan, math.nan, bool(audit.all_passed),
        "all admissibility condition verdicts pass",
        {"tau_fit": audit.tau_fit, "d_value": audit.d_value,
         "c_values": {str(k): v for k, v in audit.c_values.items()}},
        _environment(cfg),
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def emit_report(report: Report, out_dir) -> list:
    """Write report.json, ratios.csv and plot-ready per-shape CSVs; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    write_json(json_path, report.to_dict())
    csv_path = out / "ratios.csv"
    with open(csv_path, "w") as fh:
        fh.write("fname,lambda,lhs,rhs,ratio\n")
        for r in report.rows:
            fh.write(
                f"{r['fname']},{_fmt(r['lambda'])},{_fmt(r['lhs'])},"
                f"{_fmt(r['rhs'])},{_fmt(r['ratio'])}\n"
            )
    written = [json_path, csv_path]
    plotdir = out / "plotdata"
    plotdir.mkdir(exist_ok=True)
    by_shape: dict = {}
    for r in report.rows:
        shape = r["fname"].split("[")[0]
        by_shape.setdefault(shape, []).append(r)
    for shape, rws in by_shape.items():
        ppath = plotdir / f"{shape}.csv"
        with open(ppath, "w") as fh:
            fh.write("lambda,ratio\n")
            for r in rws:
                fh.write(f"{_fmt(r['lambda'])},{_fmt(r['ratio'])}\n")
        written.append(ppath)
    return written
