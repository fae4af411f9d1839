"""Seeded workloads: generated inputs, timed user operations, output checks.

Every workload draws its input configurations from its seed.  A *pass* is
the list of user operations a user of that pipeline runs for every
configuration; a run repeats passes.  Within a pass the configurations are
interleaved operation by operation, so a run that stops part-way through a
pass still weights them almost equally.  The draws are stratified so that
each run covers the phase and ratio range: a saddle search costs up to 10 %
more or less depending on (phi, R), and exactly the same at phi and
phi + pi, so the cost of a run then depends little on the seed.  The
program only sees the generated CLI arguments and data; building inputs and
checking outputs happen outside the timed calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import oracle_grid_points

LAMBDA_NM = 800.0
I1_WCM2 = 1.5e14
SPECIES = "Ar"
R_RANGE = (0.06, 0.18)
SELECTION_RATIO = 1e-12        # acceptance criterion 1
HALVING_DRIFT_GATE = 0.05      # acceptance criterion 6
BAND_SUM_RTOL = 1e-12
FIT_NOISE = 0.01               # relative noise on the shifted scan copy
FIT_TAU_GATE = 0.05            # rad; recovered minus injected shift, mod pi


@dataclass
class Outcome:
    """What the checks found in one operation's output."""

    problems: list = field(default_factory=list)
    digest: str | None = None     # compared across passes, by Op.key
    quality: dict = field(default_factory=dict)
    bytes_written: int = 0


@dataclass
class Op:
    """One user operation: ``run`` is timed, ``prepare``/``check`` are not."""

    kind: str
    key: str                 # names the operation and input; equal keys
                             # must give byte-identical outputs
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    orders: int = 0          # harmonic orders delivered
    cells: int = 0           # (q, phi) intensity cells delivered
    grid_points: int = 0     # oracle (tr, tau) integrand points evaluated
    prepare: Callable[[], None] | None = None


def strata(rng, n):
    """One uniform draw in each of ``n`` equal strata of [0, 1), shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def phases(rng, n):
    """Uniform on [0, 2 pi), stratified over [0, pi) plus a random half turn."""
    return np.pi * (strata(rng, n) + rng.integers(0, 2, n))


def ratios(rng, n):
    return R_RANGE[0] + (R_RANGE[1] - R_RANGE[0]) * strata(rng, n)


def field_args(phi, ratio):
    return ["--lambda-nm", repr(LAMBDA_NM), "--i1", repr(I1_WCM2),
            "--species", SPECIES, "--phi", repr(float(phi)),
            "--ratio", repr(float(ratio))]


# -- reading the program's outputs -------------------------------------------

def read_csv(path):
    """(metadata dict, column dict of string lists) of an emitted CSV."""
    meta, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# config "):
            key, _, val = line[len("# config "):].partition(" = ")
            meta[key] = val
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header")
    return meta, {name: [r[i] for r in rows] for i, name in enumerate(header)}


def body_digest(outdir, names):
    """Digest of the emitted files, without the '#' metadata of CSVs."""
    h = hashlib.sha256()
    for name in names:
        text = (Path(outdir) / name).read_text()
        if name.endswith(".csv"):
            text = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def dir_bytes(outdir):
    return sum(p.stat().st_size for p in Path(outdir).iterdir() if p.is_file())


def intensity_problems(tag, qs, ix, iy):
    """Finite, non-negative intensities and the exact selection rules."""
    problems = []
    for q, a, b in zip(qs, ix, iy):
        if not (math.isfinite(a) and math.isfinite(b)) or a < 0 or b < 0:
            problems.append(f"{tag}: q={q:g} intensities ({a}, {b}) not finite/non-negative")
            continue
        major, minor = (a, b) if int(q) % 2 else (b, a)
        if not minor < SELECTION_RATIO * major:
            problems.append(f"{tag}: q={q:g} selection rule broken "
                            f"(minor/major {minor:.3e}/{major:.3e})")
    return problems


def floats(col):
    return [float(v) for v in col]


def _cli_op(lib, kind, key, argv, outdir, check, **work):
    outdir.mkdir(parents=True, exist_ok=True)

    def run():
        return lib.cli.main([*argv, "--outdir", str(outdir)])

    def checked(rc):
        out = Outcome()
        if rc != 0:
            out.problems.append(f"{kind}: exit code {rc}")
        check(out)
        out.bytes_written = dir_bytes(outdir)
        return out
    return Op(kind, key, run, checked, **work)


# -- spectrum -----------------------------------------------------------------

class Spectrum:
    """`spectrum --oracle` over q = 12..35 in four bands of six orders,
    `orbits` at two plateau orders, then the oracle convergence study."""

    name = "spectrum"
    LATENCY_KINDS = ("spectrum",)
    N_CONFIGS = 2
    BANDS = ((12, 17), (18, 23), (24, 29), (30, 35))
    ORBIT_ORDERS = (24, 25)      # plateau orders, one of each parity
    OFFSET_ORDERS = range(15, 28)

    def __init__(self, seed, workdir, lib):
        rng = np.random.default_rng([seed, 1])
        n = self.N_CONFIGS
        self.study = OracleStudy(lib)
        self.configs = [{"phi": float(phi), "ratio": float(r),
                         "band_orders": self.study.draw_band_orders(rng)}
                        for phi, r in zip(phases(rng, n), ratios(rng, n))]
        self.workdir, self.lib = workdir, lib
        self.setup_argv = self._spectrum_argv(self.configs[0], self.BANDS[0])
        self._spectra = {}       # (pass, config) -> {q: (I_saddle, I_direct)}

    def _spectrum_argv(self, c, band):
        return ["spectrum", "--oracle", "--q-min", str(band[0]),
                "--q-max", str(band[1]), *field_args(c["phi"], c["ratio"])]

    def ops(self, n_pass, configs=None):
        configs = range(len(self.configs)) if configs is None else configs
        grid = oracle_grid_points(self.lib.oracle.OracleConfig())
        ops = []
        for band in self.BANDS:
            for k in configs:
                sdir = self.workdir / f"p{n_pass}" / f"c{k}" / f"q{band[0]}"
                n_orders = band[1] - band[0] + 1
                ops.append(_cli_op(
                    self.lib, "spectrum", f"spectrum q{band[0]}-{band[1]} c{k}",
                    self._spectrum_argv(self.configs[k], band), sdir,
                    lambda out, sdir=sdir, k=k: self._check_spectrum(
                        sdir, (n_pass, k), out),
                    orders=n_orders, cells=n_orders, grid_points=grid))
        q_lo, q_hi = self.ORBIT_ORDERS
        for k in configs:
            c = self.configs[k]
            odir = self.workdir / f"p{n_pass}" / f"c{k}" / "orbits"
            argv = ["orbits", "--q-min", str(q_lo), "--q-max", str(q_hi),
                    *field_args(c["phi"], c["ratio"])]
            ops.append(_cli_op(self.lib, "orbits", f"orbits c{k}", argv, odir,
                               lambda out, odir=odir: self._check_orbits(odir, out),
                               orders=q_hi - q_lo + 1))
        for k in configs:
            ops += self.study.ops(k, self.configs[k])
        return ops

    def _check_spectrum(self, outdir, at, out):
        meta, sad = read_csv(outdir / "spectrum.csv")
        _, direct = read_csv(outdir / "spectrum_direct.csv")
        qs = floats(sad["q"])
        photon = float(meta["omega_au"])
        ip = float(meta["Ip_au"])
        for q, flag in zip(qs, sad["flags"]):
            if q * photon > ip and flag != "ok":
                out.problems.append(f"spectrum: q={q:g} above threshold has no dipole")
        out.problems += intensity_problems("saddle", qs, floats(sad["Ix"]),
                                           floats(sad["Iy"]))
        out.problems += intensity_problems("direct", floats(direct["q"]),
                                           floats(direct["Ix"]),
                                           floats(direct["Iy"]))
        got = self._spectra.setdefault(at, {})
        i_dir = dict(zip(floats(direct["q"]), floats(direct["Itotal"])))
        for q, i_sad in zip(qs, floats(sad["Itotal"])):
            got[q] = (i_sad, i_dir.get(q, 0.0))
        if len(got) == self.BANDS[-1][1] - self.BANDS[0][0] + 1:
            out.quality.update(self._agreement(got))
        out.digest = body_digest(outdir, ["spectrum.csv", "spectrum_direct.csv",
                                          "audit.txt", "comparison.txt"])

    def _agreement(self, got):
        """Saddle-versus-direct agreement over the whole q = 12..35 spectrum
        of one configuration, once all its bands are in: the log-intensity
        Pearson correlation exactly as `spectrum --oracle` computes it for
        its own orders, and the median plateau offset."""
        sad, direct = (np.array(v) for v in zip(*(got[q] for q in sorted(got))))
        good = (sad > 0) & (direct > 0)
        pearson = float(np.corrcoef(np.log10(sad[good]),
                                    np.log10(direct[good]))[0, 1])
        offsets = [abs(math.log10(got[q][0] / got[q][1])) for q in self.OFFSET_ORDERS
                   if got.get(q, (0, 0))[0] > 0 and got[q][1] > 0]
        return {"oracle_log_pearson": pearson,
                "oracle_log10_offset": float(np.median(offsets))}

    def _check_orbits(self, outdir, out):
        _, cols = read_csv(outdir / "orbits.csv")
        missing = set(range(self.ORBIT_ORDERS[0], self.ORBIT_ORDERS[1] + 1)) - {
            int(float(q)) for q in cols["q"]}
        if missing:
            out.problems.append(f"orbits: no relevant orbit at q={sorted(missing)}")
        for name in ("t", "sx", "sy"):
            if not all(math.isfinite(v) for v in floats(cols[name])):
                out.problems.append(f"orbits: non-finite {name}")
        out.digest = body_digest(outdir, ["orbits.csv"])


# -- scan ---------------------------------------------------------------------

class Scan:
    """`scan` of H24 or H25 over 64 phases, then `fit` of a shifted, noisy
    copy against it."""

    name = "scan"
    LATENCY_KINDS = ("scan",)
    N_CONFIGS = 4                # R strata; the scan's cost rises with R
    ORDERS = (24, 25)            # alternately, one per configuration
    N_PHI = 64

    def __init__(self, seed, workdir, lib):
        rng = np.random.default_rng([seed, 2])
        n = self.N_CONFIGS
        self.configs = [{"q": self.ORDERS[k % len(self.ORDERS)],
                         "ratio": float(r), "tau": float(t),
                         "noise_seed": int(rng.integers(2 ** 31))}
                        for k, (r, t) in enumerate(zip(ratios(rng, n),
                                                       np.pi * strata(rng, n)))]
        self.workdir, self.lib = workdir, lib
        self.setup_argv = self._scan_argv(self.configs[0])

    def _scan_argv(self, c):
        return ["scan", "--q-min", str(c["q"]), "--q-max", str(c["q"]),
                "--n-phi", str(self.N_PHI), *field_args(0.0, c["ratio"])]

    def ops(self, n_pass, configs=None):
        configs = range(len(self.configs)) if configs is None else configs
        base = self.workdir / f"p{n_pass}"
        ops = []
        for k in configs:
            c, sdir = self.configs[k], base / f"c{k}" / "scan"
            ops.append(_cli_op(self.lib, "scan", f"scan q{c['q']} c{k}",
                               self._scan_argv(c), sdir,
                               lambda out, sdir=sdir, q=c["q"]: self._check_scan(
                                   sdir, q, out),
                               orders=1, cells=self.N_PHI))
        for k in configs:
            c = self.configs[k]
            sdir, fdir = base / f"c{k}" / "scan", base / f"c{k}" / "fit"
            measured = fdir / "measured.csv"
            argv = ["fit", str(measured), "--reference", str(sdir / "scan.csv"),
                    *field_args(0.0, c["ratio"])]
            fit = _cli_op(self.lib, "fit", f"fit c{k}", argv, fdir,
                          lambda out, fdir=fdir, sdir=sdir, c=c: self._check_fit(
                              fdir, sdir, c, out))
            fit.prepare = (lambda s=sdir / "scan.csv", m=measured, c=c:
                           self._write_measured(s, m, c))
            ops.append(fit)
        return ops

    def _check_scan(self, outdir, q, out):
        _, cols = read_csv(outdir / "scan.csv")
        qs = floats(cols["q"])
        if set(qs) != {float(q)} or len(qs) != self.N_PHI:
            out.problems.append(f"scan: expected {self.N_PHI} cells of q={q}, "
                                f"got {len(qs)}")
        vals = {n: floats(cols[n]) for n in ("Ix", "Iy", "Itotal")}
        nan = sum(1 for v in vals["Itotal"] if math.isnan(v))
        if nan:
            out.problems.append(f"scan: {nan} NaN cells")
        out.problems += intensity_problems("scan", qs, vals["Ix"], vals["Iy"])
        # exact pi-periodicity: cell j and cell j + n/2 print identically
        half = self.N_PHI // 2
        for name in ("Ix", "Iy", "Itotal"):
            col = cols[name]
            if col[:half] != col[half:]:
                out.problems.append(f"scan: q={q} {name} not pi-periodic")
        _, axes = read_csv(outdir / "axes.csv")
        for name in ("Mx", "My", "Nx", "Ny", "gamma", "ellipticity"):
            if not all(math.isfinite(v) for v in floats(axes[name])):
                out.problems.append(f"scan: non-finite {name} in axes.csv")
        json.loads((outdir / "fits.json").read_text())
        out.digest = body_digest(outdir, ["scan.csv", "axes.csv", "fits.json"])

    def _write_measured(self, scan_csv, path, c):
        """Shift the series by tau (exact Fourier interpolation) and overlay
        pi-periodic multiplicative noise, so the fit's modality
        classification runs instead of refusing a non-periodic series."""
        _, cols = read_csv(scan_csv)
        rng = np.random.default_rng(c["noise_seed"])
        n = self.N_PHI
        k = np.fft.fftfreq(n, d=1.0 / n)
        shift = np.exp(-1j * k * c["tau"])
        noise = 1.0 + FIT_NOISE * np.tile(rng.standard_normal(n // 2), 2)
        names = ("Ix", "Iy", "Itotal")
        series = {m: np.fft.ifft(np.fft.fft(floats(cols[m])) * shift).real * noise
                  for m in names}
        lines = ["phi,q," + ",".join(names)]
        for j, (phi, q) in enumerate(zip(cols["phi"], cols["q"])):
            lines.append(",".join([phi, q] + ["%.12e" % series[m][j] for m in names]))
        path.write_text("\n".join(lines) + "\n")

    def _check_fit(self, outdir, scan_dir, c, out):
        report = json.loads((outdir / "fit_report.json").read_text())
        q = c["q"]
        tau = report[f"H{q}"]["tau"]
        # Intensities are pi-periodic, so tau is recovered modulo pi.  Where
        # the reference's cos/sin(phi) and (2 phi) terms together are smaller
        # than the injected noise, the series is pi/2-periodic to within that
        # noise: tau and tau + pi/2 then fit the noisy copy equally well, and
        # tau can only be recovered modulo pi/2.
        ref = json.loads((scan_dir / "fits.json").read_text())["fits"][f"H{q}"]
        breaking = math.hypot(ref["a1"], ref["b1"], ref["a2"], ref["b2"])
        period = np.pi / 2 if breaking < FIT_NOISE * abs(ref["a0"]) else np.pi
        err = abs((tau - c["tau"] + 0.5 * period) % period - 0.5 * period)
        if not err < FIT_TAU_GATE:
            out.problems.append(f"fit: H{q} tau {tau:.4f} vs injected "
                                f"{c['tau']:.4f} modulo {period:.4f} "
                                f"(error {err:.3e})")
        out.quality["fit_tau_error"] = err
        out.digest = body_digest(outdir, ["fit_report.json"])


# -- oracle study -------------------------------------------------------------

class OracleStudy:
    """The oracle convergence study a user runs to trust a spectrum, which
    the CLI does not expose: `direct_dipole` over q = 15..27 at the default
    step and at half of it, plus short/long excursion bands of
    `windowed_dipole` at two drawn plateau orders."""

    KINDS = ("direct", "direct_half_dt", "windowed")
    ORDERS = np.arange(15, 28)
    BAND_ORDERS = range(17, 26)
    SHORT_LONG_SPLIT = 0.65     # periods; short/long band edge
    TAPER = 0.4                 # periods; raised-cosine band edge width

    def __init__(self, lib):
        self.lib = lib

    def draw_band_orders(self, rng):
        return sorted(int(q) for q in rng.choice(self.BAND_ORDERS, 2, replace=False))

    def ops(self, k, c):
        """The study's calls for configuration ``k``, in order: a band check
        needs the same configuration's default-step spectrum."""
        lib = self.lib
        omega, e1 = lib.field.convert_units(LAMBDA_NM, I1_WCM2)
        p = lib.field.FieldParams.from_ratio(e1, omega, c["ratio"], c["phi"])
        tgt = lib.field.TargetParams(Ip=lib.cli.SPECIES[SPECIES])
        cfg = lib.oracle.OracleConfig()
        fine = lib.oracle.OracleConfig(steps_per_period=2 * cfg.steps_per_period)
        state = {}
        n = len(self.ORDERS)

        def direct(conf):
            return lambda: lib.oracle.direct_dipole(p, tgt, conf, self.ORDERS)

        ops = [Op("direct", f"direct c{k}", direct(cfg),
                  lambda s: self._check_direct(s, state),
                  orders=n, cells=n, grid_points=oracle_grid_points(cfg)),
               Op("direct_half_dt", f"direct_half_dt c{k}", direct(fine),
                  lambda s: self._check_halving(s, state),
                  orders=n, cells=n, grid_points=oracle_grid_points(fine))]
        split = self.SHORT_LONG_SPLIT * p.period
        bands = {"short": (0.0, split),
                 "long": (split, cfg.tau_max_periods * p.period)}
        for q in c["band_orders"]:
            for fam, band in bands.items():
                run = (lambda q=q, band=band: lib.oracle.windowed_dipole(
                    p, tgt, cfg, q, band, taper=self.TAPER * p.period))
                check = (lambda d, q=q, fam=fam:
                         self._check_band(d, q, fam, state))
                ops.append(Op("windowed", f"windowed q{q} {fam} c{k}", run, check,
                              orders=1, cells=1,
                              grid_points=oracle_grid_points(cfg)))
        return ops

    @staticmethod
    def _spectrum_digest(spec):
        h = hashlib.sha256()
        for arr in (spec.Ix, spec.Iy, np.asarray(spec.dipoles)):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def _check_direct(self, spec, state):
        state["direct"] = spec
        out = Outcome(digest=self._spectrum_digest(spec))
        out.problems += intensity_problems("direct", spec.qs, spec.Ix, spec.Iy)
        return out

    def _check_halving(self, fine, state):
        out = Outcome(digest=self._spectrum_digest(fine))
        out.problems += intensity_problems("direct_half_dt", fine.qs, fine.Ix, fine.Iy)
        base = state.get("direct")
        if base is None:
            out.problems.append("direct_half_dt: no default-step result to compare")
            return out
        drift = float(np.max(np.abs(base.Itotal - fine.Itotal) / fine.Itotal))
        out.quality["oracle_halving_drift"] = drift
        if not drift < HALVING_DRIFT_GATE:
            out.problems.append(f"direct_half_dt: step-halving drift {drift:.3e}")
        return out

    def _check_band(self, d, q, fam, state):
        d = np.asarray(d)
        out = Outcome(digest=hashlib.sha256(d.tobytes()).hexdigest())
        if not np.all(np.isfinite(d)):
            out.problems.append(f"windowed: q={q} {fam} band not finite")
            return out
        state[(q, fam)] = d
        if fam == "long":
            base = state.get("direct")
            if base is None or (q, "short") not in state:
                out.problems.append(f"windowed: q={q} missing parts of the band sum")
                return out
            full = np.asarray(base.dipoles)
            total = full[list(base.qs).index(q)]
            # bands are summed in floating point; the rounding is relative to
            # the magnitude of the integral's terms, which the largest dipole
            # of the spectrum bounds (the per-order dipole can be far smaller)
            scale = np.max(np.linalg.norm(full, axis=1))
            err = np.linalg.norm(state[(q, "short")] + d - total) / scale
            if not err < BAND_SUM_RTOL:
                out.problems.append(f"windowed: q={q} bands miss the unrestricted "
                                    f"integral by {err:.3e} (relative)")
        return out


WORKLOADS = {w.name: w for w in (Spectrum, Scan)}
