"""Command-line interface: configuration, batch runs, and CSV/JSON emission.

Subcommands: spectrum, scan, saddles, orbits, lissajous, fit, oracle.
Physical inputs are accepted either in laboratory units (wavelength in nm,
intensities in W/cm^2) or directly in atomic units; the flag names carry the
unit.  Every emitted file starts with '#'-prefixed metadata lines (version,
full configuration echo, unit conventions) and uses fixed float formatting,
so identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .field import (ATOMIC_INTENSITY, FieldParams, SamplingError, TargetParams,
                    _check_samples, convert_units, lissajous)
from .dipole import DME_FORMS, labelled_orbits
from .dipole import spectrum as saddle_spectrum
from .oracle import OracleConfig, ResolutionError, direct_dipole
from .phasescan import (ClassificationRefusedError, IllConditionedFitError,
                        NonFiniteSampleError, align_shift, classify_modality,
                        fourier_fit, run_scan)
from .taxonomy import amplitude
from .trajectory import MIN_SAMPLES, displacement

# standard tabulated ionisation potentials (a.u.)
SPECIES = {
    "H": 0.5000,
    "He": 0.9036,
    "Ne": 0.7925,
    "Ar": 0.5792,
    "Kr": 0.5145,
    "Xe": 0.4458,
}

FLOAT_FMT = "%.12e"

_PAIRS = [
    ("lambda_nm", "omega"),
    ("i1", "e1"),
    ("ratio", "i2"),
    ("species", "ip"),
]

_DEFAULTS = {
    "lambda_nm": 800.0,
    "i1": 1.5e14,
    "ratio": 0.12,
    "phi": 0.0,
    "species": "Ar",
    "q_min": 12,
    "q_max": 35,
    "n_phi": 64,
    "dme_form": "paper",
    "outdir": ".",
}


class UsageError(ValueError):
    """Invalid configuration; reported before any computation."""


def _load_config_file(path):
    """The settings of an INI file as one flat dict.  The sections only group
    the keys, so a key set in two sections is a UsageError, as is a file that
    does not parse.  No section inherits another's keys: [DEFAULT] is a
    section like the rest."""
    cp = configparser.ConfigParser(default_section="")
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise UsageError(f"config file not found: {path}")
    flat, home = {}, {}
    for section in cp.sections():
        for key, val in cp.items(section):
            key = key.replace("-", "_")
            if key in home:
                raise UsageError(f"{path}: {key} is set in [{home[key]}] and "
                                 f"again in [{section}]")
            flat[key], home[key] = val, section
    return flat


def resolve_config(args):
    """Merge config file and flags into (FieldParams, TargetParams, options).

    For each alternative pair (wavelength/omega, I1/E1, ratio/I2,
    species/Ip) at most one member may be supplied; defaults fill the rest.
    A value that does not parse, an unknown dme_form, or a config-file key
    that is none of these settings is a UsageError naming its key.
    """
    keys = ("lambda_nm", "omega", "i1", "e1", "ratio", "i2", "phi", "species",
            "ip", "q_min", "q_max", "n_phi", "dme_form", "outdir")
    supplied = {}
    if getattr(args, "config", None):
        supplied.update(_load_config_file(args.config))
        unknown = sorted(set(supplied) - set(keys))
        if unknown:
            raise UsageError(f"{unknown[0]}: unknown key in config file "
                             f"{args.config}")
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            supplied[key] = val
    for a, b in _PAIRS:
        if a in supplied and b in supplied:
            raise UsageError(f"supply only one of --{a} / --{b}")

    def value(key, kind=float):
        """The supplied (else default) value of ``key`` as ``kind``; a float
        must be finite."""
        v = supplied.get(key, _DEFAULTS.get(key))
        try:
            out = kind(v)
        except ValueError:
            raise UsageError(f"{key}: expected {kind.__name__}, got {v!r}") from None
        if kind is float and not np.isfinite(out):
            raise UsageError(f"{key}: expected a finite number, got {v!r}")
        return out

    def positive(key, zero_ok=False):
        """value(key), refused unless positive (or zero, when ``zero_ok``)."""
        v = value(key)
        if not (v >= 0.0 if zero_ok else v > 0.0):
            raise UsageError(f"{key}: must be "
                             f"{'nonnegative' if zero_ok else 'positive'}, got {v}")
        return v

    if "omega" in supplied:
        omega = positive("omega")
    else:
        try:
            omega, _ = convert_units(value("lambda_nm"), _DEFAULTS["i1"])
        except ValueError as exc:
            raise UsageError(f"lambda_nm: {exc}") from None
    if "e1" in supplied:
        e1 = positive("e1")
    else:
        e1 = np.sqrt(positive("i1") / ATOMIC_INTENSITY)
    if "i2" in supplied:
        e2 = np.sqrt(positive("i2", zero_ok=True) / ATOMIC_INTENSITY)
    else:
        ratio = positive("ratio", zero_ok=True)
        with np.errstate(over="ignore"):
            e2 = e1 * np.sqrt(ratio)
        if not np.isfinite(e2):
            raise UsageError(f"ratio: E2 = E1 * sqrt(ratio) overflows at "
                             f"E1 = {e1:g} and ratio = {ratio:g}")
    phi = value("phi")
    if "ip" in supplied:
        ip = positive("ip")
    else:
        species = value("species", str)
        if species not in SPECIES:
            raise UsageError(f"unknown species {species!r}; known: "
                             + ", ".join(sorted(SPECIES)))
        ip = SPECIES[species]
    try:
        p = FieldParams(E1=e1, E2=e2, omega=omega, phi=phi)
        tgt = TargetParams(Ip=ip)
    except ValueError as exc:
        raise UsageError(str(exc))
    opts = {
        "q_min": value("q_min", int),
        "q_max": value("q_max", int),
        "n_phi": value("n_phi", int),
        "dme_form": value("dme_form", str),
        "outdir": Path(value("outdir", str)),
    }
    if opts["dme_form"] not in DME_FORMS:
        raise UsageError(f"dme_form: unknown form {opts['dme_form']!r}; known: "
                         + ", ".join(DME_FORMS))
    if opts["q_min"] > opts["q_max"]:
        raise UsageError("q_min must not exceed q_max")
    echo = {
        "E1_au": e1, "E2_au": e2, "omega_au": omega, "phi_rad": phi,
        "Ip_au": ip, **{k: str(v) for k, v in opts.items()},
    }
    return p, tgt, opts, echo


def _meta_lines(echo, extra=None):
    lines = [f"# twocolor-hhg {__version__}",
             "# units: atomic units throughout; intensities in arbitrary "
             "units proportional to (q omega)^4 |D|^2 / (2 pi c^3)"]
    for k in sorted(echo):
        v = echo[k]
        lines.append(f"# config {k} = "
                     + (FLOAT_FMT % v if isinstance(v, float) else str(v)))
    for k in sorted(extra or {}):
        lines.append(f"# {k} = {extra[k]}")
    return lines


def _write_text(path, text):
    """Write ``text`` to ``path``, creating the output directory on the first
    write, so a run that stops with a usage error leaves no directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_table(path, echo, columns, rows, extra_meta=None):
    """Emit a deterministic CSV with '#' metadata header lines."""
    out = _meta_lines(echo, extra_meta)
    out.append(",".join(columns))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(FLOAT_FMT % v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    _write_text(path, "\n".join(out) + "\n")


def read_table(path):
    """Read back an emitted CSV: (metadata lines, column dict of arrays).

    A row whose cell count differs from the header's is a UsageError naming
    the file and line.
    """
    meta, header, data = [], None, []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        elif line.strip():
            row = line.split(",")
            if len(row) != len(header):
                raise UsageError(f"{path}:{lineno}: {len(row)} cells, the "
                                 f"header has {len(header)}")
            data.append(row)
    if header is None:
        raise UsageError(f"{path}: no column header found")
    cols = {}
    for k, name in enumerate(header):
        vals = [row[k] for row in data]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = np.array(vals)
    return meta, cols


def _q_range(opts):
    return np.arange(opts["q_min"], opts["q_max"] + 1, dtype=float)


def cmd_spectrum(p, tgt, opts, echo, args):
    qs = _q_range(opts)
    if args.oracle:     # before any output is written
        OracleConfig().validate(p, qs[-1])
    spec = saddle_spectrum(p, tgt, qs, dme_form=opts["dme_form"])
    rows = []
    n_fail = 0
    for hd, ix, iy, it in zip(spec.dipoles, spec.Ix, spec.Iy, spec.Itotal):
        flag = "below-threshold" if hd.below_threshold else "ok"
        if hd.below_threshold and hd.q * p.omega > tgt.Ip:
            n_fail += 1
        rows.append((hd.q, ix, iy, it, len(hd.contributions), flag))
    outdir = opts["outdir"]
    write_table(outdir / "spectrum.csv", echo,
                ["q", "Ix", "Iy", "Itotal", "n_saddles", "flags"], rows,
                {"method": "saddle"})
    _write_text(outdir / "audit.txt", "\n".join(spec.audit) + "\n")
    if args.oracle:
        direct = _write_direct(p, tgt, qs, opts, echo)
        good = (spec.Itotal > 0) & (direct.Itotal > 0)
        ratio = np.log10(spec.Itotal[good] / direct.Itotal[good])
        lines = [f"q={q:g} log10(I_saddle/I_direct) = {x:+.6f}"
                 for q, x in zip(qs[good], ratio)]
        if ratio.size:
            lines.append(f"median log10(I_saddle/I_direct) = {np.median(ratio):+.6f}, "
                         f"max |log10(I_saddle/I_direct)| = {np.max(np.abs(ratio)):.6f}")
        # no correlation below two orders; the line stays last, ending in ": <value>"
        r = (float(np.corrcoef(np.log10(spec.Itotal[good]),
                               np.log10(direct.Itotal[good]))[0, 1])
             if ratio.size > 1 else float("nan"))
        lines.append(f"log-intensity Pearson correlation (saddle vs direct, "
                     f"{ratio.size} orders): {r:.6f}")
        _write_text(outdir / "comparison.txt", "\n".join(lines) + "\n")
    if n_fail:
        print(f"{n_fail} orders produced no dipole; see audit.txt",
              file=sys.stderr)
        return 1
    return 0


def cmd_scan(p, tgt, opts, echo, args):
    qs = list(range(opts["q_min"], opts["q_max"] + 1))
    scan = run_scan(p, tgt, qs, opts["n_phi"], dme_form=opts["dme_form"])
    rows = []
    for m, q in enumerate(scan.qs):
        for j, phi in enumerate(scan.phis):
            rows.append((phi, q, scan.Ix[m, j], scan.Iy[m, j],
                         scan.Itotal[m, j]))
    outdir = opts["outdir"]
    write_table(outdir / "scan.csv", echo,
                ["phi", "q", "Ix", "Iy", "Itotal"], rows)
    _write_text(outdir / "audit.txt",
                "\n".join(f"q={q} phi={phi}: {reason}"
                          for q, phi, reason in scan.gaps) + "\n")
    arow = []
    for (q, bid) in sorted(scan.axes):
        M = scan.axes[(q, bid)]
        N = scan.minor[(q, bid)]
        g = scan.gamma[(q, bid)]
        e = scan.ellipticity[(q, bid)]
        for j, phi in enumerate(scan.phis):
            if np.isfinite(M[j]).all():
                arow.append((q, phi, bid, M[j, 0], M[j, 1], N[j, 0], N[j, 1],
                             g[j], e[j]))
    write_table(outdir / "axes.csv", echo,
                ["q", "phi", "branch_id", "Mx", "My", "Nx", "Ny", "gamma",
                 "ellipticity"], arow)
    fits = {}
    for q in scan.qs:
        series = scan.series(q)
        try:
            fit = fourier_fit(series, scan.phis)
        except NonFiniteSampleError as exc:     # failed cells are NaN
            fits[f"H{q:g}"] = {"error": f"refused ({exc})"}
            continue
        try:
            modality, n_max = classify_modality(series, scan.phis)
        except ClassificationRefusedError as exc:
            modality, n_max = f"refused ({exc})", 0
        fits[f"H{q:g}"] = {
            "a0": fit.a0, "a1": fit.a1, "b1": fit.b1, "a2": fit.a2,
            "b2": fit.b2, "a4": fit.a4, "b4": fit.b4,
            "extended": fit.extended, "tau": fit.tau, "rms": fit.rms,
            "modality": modality, "maxima_per_pi": n_max,
        }
    _write_text(
        outdir / "fits.json",
        json.dumps({"model": "a0 + a1 cos(phi) + b1 sin(phi) + a2 cos(2 phi)"
                             " + b2 sin(2 phi) [+ a4 cos(4 phi) + b4 sin(4"
                             " phi) when extended]",
                    "fits": fits}, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_saddles(p, tgt, opts, echo, args):
    rows = []
    for q, labelled in labelled_orbits(p, tgt, _q_range(opts)):
        for s2, label in labelled:
            rows.append((q, label.branch_id, s2.ti.real, s2.ti.imag,
                         s2.tr.real, s2.tr.imag, s2.ps[0].real, s2.ps[0].imag,
                         s2.ps[1].real, s2.ps[1].imag, s2.action.real,
                         s2.action.imag, amplitude(s2), s2.residual,
                         int(label.relevant)))
    write_table(opts["outdir"] / "saddles.csv", echo,
                ["q", "branch_id", "ti_re", "ti_im", "tr_re", "tr_im",
                 "psx_re", "psx_im", "psy_re", "psy_im", "S_re", "S_im",
                 "amplitude", "residual", "relevant"], rows)
    return 0


def cmd_orbits(p, tgt, opts, echo, args):
    _check_samples(args.n_samples, MIN_SAMPLES)     # before the saddles are solved
    rows = []
    for q, labelled in labelled_orbits(p, tgt, _q_range(opts)):
        for sp, label in labelled:
            if not label.relevant:
                continue
            orbit = displacement(p, sp, n_samples=args.n_samples, label=label)
            for t, sx, sy in zip(orbit.t, orbit.sx, orbit.sy):
                rows.append((q, label.branch_id, t, sx, sy))
    write_table(opts["outdir"] / "orbits.csv", echo,
                ["q", "branch_id", "t", "sx", "sy"], rows)
    return 0


def cmd_lissajous(p, tgt, opts, echo, args):
    curve = lissajous(p, args.n_samples)
    ts = np.linspace(0.0, p.period, args.n_samples, endpoint=False)
    rows = list(zip(ts, curve[:, 0], curve[:, 1]))
    write_table(opts["outdir"] / "lissajous.csv", echo,
                ["t", "Ex", "Ey"], rows)
    return 0


def _series_from_table(cols, path):
    """(phase, q, value) columns: the phase from phi or phi_or_angle, the
    value from Itotal or intensity, each first name taking precedence."""
    names = set(cols)
    phi_col = next((c for c in ("phi", "phi_or_angle") if c in names), None)
    val_col = next((c for c in ("Itotal", "intensity") if c in names), None)
    if phi_col is None or val_col is None or "q" not in names:
        raise UsageError(
            f"{path}: unrecognized columns {sorted(names)}; need phi or "
            "phi_or_angle, q, and Itotal or intensity")
    for name in (phi_col, "q", val_col):
        if cols[name].dtype.kind != "f":
            raise UsageError(f"{path}: column {name} is not numeric")
    if not np.isfinite(cols["q"]).all():
        raise UsageError(f"{path}: column q holds a non-finite order")
    return cols[phi_col], cols["q"], cols[val_col]


def cmd_fit(p, tgt, opts, echo, args):
    _, mcols = read_table(args.data)
    mphi, mq, mval = _series_from_table(mcols, args.data)
    _, rcols = read_table(args.reference)
    rphi, rq, rval = _series_from_table(rcols, args.reference)
    report = {}
    for q in sorted(set(mq)):
        msel, rsel = mq == q, rq == q
        if not rsel.any():
            report[f"H{q:g}"] = {"error": "order missing from reference"}
            continue
        try:
            ref_fit = fourier_fit(rval[rsel], rphi[rsel])
        except (NonFiniteSampleError, SamplingError, IllConditionedFitError) as exc:
            raise UsageError(f"{args.reference}: H{q:g}: {exc}") from None
        try:
            tau = align_shift(ref_fit, mval[msel], mphi[msel])
        except (NonFiniteSampleError, SamplingError) as exc:
            raise UsageError(f"{args.data}: H{q:g}: {exc}") from None
        try:
            modality, n_max = classify_modality(mval[msel], mphi[msel])
        except ClassificationRefusedError as exc:
            modality, n_max = f"refused ({exc})", 0
        report[f"H{q:g}"] = {
            "tau": tau, "rms": ref_fit.rms, "extended": ref_fit.extended,
            "modality": modality, "maxima_per_pi": n_max,
        }
    _write_text(opts["outdir"] / "fit_report.json",
                json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _write_direct(p, tgt, qs, opts, echo):
    """The oracle spectrum at ``qs``, also written to spectrum_direct.csv."""
    direct = direct_dipole(p, tgt, OracleConfig(), qs, dme_form=opts["dme_form"])
    rows = [(q, ix, iy, it, 0, "ok") for q, ix, iy, it in
            zip(direct.qs, direct.Ix, direct.Iy, direct.Itotal)]
    write_table(opts["outdir"] / "spectrum_direct.csv", echo,
                ["q", "Ix", "Iy", "Itotal", "n_saddles", "flags"], rows,
                {"method": "direct"})
    return direct


def cmd_oracle(p, tgt, opts, echo, args):
    _write_direct(p, tgt, _q_range(opts), opts, echo)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="twocolor-hhg",
        description="Quantum-orbit HHG simulator for two-colour orthogonal "
                    "fields (atomic units).")
    ap.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--lambda-nm", dest="lambda_nm", type=float,
                        help="fundamental wavelength (nm)")
    common.add_argument("--omega", type=float, help="fundamental frequency (a.u.)")
    common.add_argument("--i1", type=float, help="fundamental intensity (W/cm^2)")
    common.add_argument("--e1", type=float, help="fundamental field amplitude (a.u.)")
    common.add_argument("--ratio", type=float, help="intensity ratio I2/I1")
    common.add_argument("--i2", type=float, help="second-harmonic intensity (W/cm^2)")
    common.add_argument("--phi", type=float, help="relative phase (rad)")
    common.add_argument("--species", help="target species (default Ar)")
    common.add_argument("--ip", type=float, help="ionisation potential (a.u.)")
    common.add_argument("--q-min", dest="q_min", type=int, help="lowest order")
    common.add_argument("--q-max", dest="q_max", type=int, help="highest order")
    common.add_argument("--n-phi", dest="n_phi", type=int,
                        help="phase points per 2 pi")
    common.add_argument("--dme-form", dest="dme_form",
                        choices=DME_FORMS,
                        help="dipole matrix element denominator form")
    common.add_argument("--outdir", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("spectrum", parents=[common],
                        help="saddle-point harmonic spectrum")
    sp.add_argument("--oracle", action="store_true",
                    help="also run the direct-integration oracle and compare")
    sp.set_defaults(func=cmd_spectrum)
    sc = sub.add_parser("scan", parents=[common], help="relative-phase scan")
    sc.set_defaults(func=cmd_scan)
    sa = sub.add_parser("saddles", parents=[common], help="saddle-point table")
    sa.set_defaults(func=cmd_saddles)
    orb = sub.add_parser("orbits", parents=[common],
                         help="real-space displacement orbits")
    orb.add_argument("--n-samples", dest="n_samples", type=int, default=256)
    orb.set_defaults(func=cmd_orbits)
    li = sub.add_parser("lissajous", parents=[common],
                        help="one period of the field curve")
    li.add_argument("--n-samples", dest="n_samples", type=int, default=512)
    li.set_defaults(func=cmd_lissajous)
    fi = sub.add_parser("fit", parents=[common],
                        help="alignment-shift fit of a phase series")
    fi.add_argument("data", help="measured series CSV")
    fi.add_argument("--reference", required=True,
                    help="reference scan CSV (e.g. from the scan subcommand)")
    fi.set_defaults(func=cmd_fit)
    orc = sub.add_parser("oracle", parents=[common],
                         help="direct-integration spectrum")
    orc.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        p, tgt, opts, echo = resolve_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(p, tgt, opts, echo, args)
    except (UsageError, ResolutionError, SamplingError,
            IllConditionedFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
