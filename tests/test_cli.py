"""Command-line surface: emission, determinism, round-trips, usage errors."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twocolor_hhg import FieldParams, PoleError, phasescan, run_scan, saddle, spectrum
from twocolor_hhg.cli import main, read_table

from conftest import E1, OMEGA


GOLDEN_SCAN = Path(__file__).parent / "data" / "golden_scan_h24"
GOLDEN_SCAN_R006 = Path(__file__).parent / "data" / "golden_scan_h24_r006"
GOLDEN_SCAN_R1 = Path(__file__).parent / "data" / "golden_scan_h24_r1"
GOLDEN_SCAN_Q14_17 = Path(__file__).parent / "data" / "golden_scan_q14_17_r006"
GOLDEN_Q20_23 = Path(__file__).parent / "data" / "golden_q20_23"
GOLDEN_Q20_23_R1 = Path(__file__).parent / "data" / "golden_q20_23_r1"


def run(args):
    return main([str(a) for a in args])


class TestSpectrumCommand:
    def test_emits_rows_and_audit(self, tmp_path):
        assert run(["spectrum", "--q-min", "20", "--q-max", "22",
                    "--outdir", tmp_path]) == 0
        meta, cols = read_table(tmp_path / "spectrum.csv")
        assert len(cols["q"]) == 3
        assert (tmp_path / "audit.txt").exists()
        assert any("twocolor-hhg" in line for line in meta)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["spectrum", "--q-min", "20", "--q-max", "21",
                        "--outdir", d]) == 0
        def data_lines(path):
            return [ln for ln in path.read_text().splitlines()
                    if not ln.startswith("#")]
        assert data_lines(a / "spectrum.csv") == data_lines(b / "spectrum.csv")

    def test_oracle_comparison(self, tmp_path):
        assert run(["spectrum", "--q-min", "19", "--q-max", "21", "--oracle",
                    "--outdir", tmp_path]) == 0
        assert (tmp_path / "spectrum_direct.csv").exists()
        text = (tmp_path / "comparison.txt").read_text()
        assert "Pearson" in text
        r = float(text.rsplit(":", 1)[1])
        assert r > 0.9
        lines = text.splitlines()
        assert [ln.split()[0] for ln in lines[:3]] == ["q=19", "q=20", "q=21"]
        assert lines[3].startswith("median log10(I_saddle/I_direct) = ")

    @pytest.mark.parametrize("q_min, q_max, n_lines", [(5, 8, 1), (12, 12, 3)])
    def test_oracle_comparison_with_too_few_orders(self, tmp_path, q_min, q_max,
                                                   n_lines):
        # q = 5..8 lie below the Ar threshold, so no order compares; one
        # order has a median but no correlation
        assert run(["spectrum", "--q-min", q_min, "--q-max", q_max, "--oracle",
                    "--outdir", tmp_path]) == 0
        lines = (tmp_path / "comparison.txt").read_text().splitlines()
        assert len(lines) == n_lines
        if n_lines == 3:
            assert lines[0].startswith("q=12 ")
            assert lines[1].startswith("median log10(I_saddle/I_direct) = ")
        assert lines[-1].startswith("log-intensity Pearson correlation")
        assert lines[-1].endswith(f"{n_lines // 2} orders): nan")

    def test_dme_form_switch_keeps_selection_rules(self, tmp_path):
        assert run(["spectrum", "--q-min", "20", "--q-max", "21",
                    "--dme-form", "hydrogenic", "--outdir", tmp_path]) == 0
        _, cols = read_table(tmp_path / "spectrum.csv")
        assert cols["Ix"][0] < 1e-12 * cols["Iy"][0]
        assert cols["Iy"][1] < 1e-12 * cols["Ix"][1]


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scan")
    assert run(["scan", "--q-min", "20", "--q-max", "21",
                "--n-phi", "32", "--outdir", d]) == 0
    return d


class TestScanCommand:
    def test_row_counts(self, scan_dir):
        _, cols = read_table(scan_dir / "scan.csv")
        assert len(cols["phi"]) == 2 * 32

    def test_axes_table(self, scan_dir):
        _, cols = read_table(scan_dir / "axes.csv")
        assert set(np.unique(cols["q"])) == {20.0, 21.0}
        assert np.all(cols["ellipticity"] >= 0.0)

    def test_fit_report(self, scan_dir):
        fits = json.loads((scan_dir / "fits.json").read_text())["fits"]
        assert set(fits) == {"H20", "H21"}
        for rec in fits.values():
            assert {"a0", "a2", "b2", "tau", "rms", "modality"} <= set(rec)

    def test_self_fit_shift_is_zero(self, scan_dir, tmp_path):
        assert run(["fit", scan_dir / "scan.csv",
                    "--reference", scan_dir / "scan.csv",
                    "--outdir", tmp_path]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        for rec in report.values():
            tau = rec["tau"]
            assert min(tau, 2 * np.pi - tau, abs(tau - np.pi)) < 1e-3

    @pytest.mark.parametrize("orders, ratio, golden, names", [
        (("24", "24"), "0.12", GOLDEN_SCAN, ("scan.csv", "axes.csv")),
        # continuation halves its steps, and the audit lists anti-Stokes phi-bans
        (("24", "24"), "0.06", GOLDEN_SCAN_R006, ("scan.csv", "axes.csv", "audit.txt")),
        # the paper's regime of comparable intensities of the two colours
        (("24", "24"), "1.0", GOLDEN_SCAN_R1, ("scan.csv", "axes.csv", "audit.txt")),
        # four orders share each continuation call: the order of the cells
        # across orders, and each lost branch named by its index within its
        # own order and refresh segment
        (("14", "17"), "0.06", GOLDEN_SCAN_Q14_17, ("scan.csv", "axes.csv", "audit.txt")),
    ], ids=["r012", "r006", "r1", "q14_17_r006"])
    def test_golden_bytes(self, orders, ratio, golden, names, tmp_path, monkeypatch):
        # reference tables of scans over 32 phases; the relative --outdir
        # keeps the config echo in the header identical
        monkeypatch.chdir(tmp_path)
        q_min, q_max = orders
        assert run(["scan", "--q-min", q_min, "--q-max", q_max, "--n-phi", "32",
                    "--ratio", ratio, "--outdir", "out"]) == 0
        for name in names:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (golden / name).read_bytes()), name

    def test_dme_form_reaches_the_scan(self, tmp_path, params, target):
        # the hydrogenic matrix element changes the H24 intensities, and the
        # phi = 0 cell agrees with the spectrum computed with it
        rows = {}
        for form in ("paper", "hydrogenic"):
            out = tmp_path / form
            assert run(["scan", "--q-min", "24", "--q-max", "24", "--n-phi", "32",
                        "--dme-form", form, "--outdir", out]) == 0
            rows[form] = [ln for ln in (out / "scan.csv").read_text().splitlines()
                          if not ln.startswith("#")]
            assert len(rows[form]) == 33
        assert rows["paper"][1:] != rows["hydrogenic"][1:]
        _, cols = read_table(tmp_path / "hydrogenic" / "scan.csv")
        ref = spectrum(params, target, [24], dme_form="hydrogenic").Itotal[0]
        assert cols["Itotal"][0] == pytest.approx(ref, rel=1e-9)

    def test_audit_lists_every_gap(self, tmp_path, target):
        # at R = 0.06 the H14 scan loses a branch in continuation; its
        # audit line keeps the phase at which the branch stalled
        assert run(["scan", "--q-min", "14", "--q-max", "14", "--n-phi", "64",
                    "--ratio", "0.06", "--outdir", tmp_path]) == 0
        lines = (tmp_path / "audit.txt").read_text().splitlines()
        p = FieldParams.from_ratio(E1, OMEGA, 0.06, 0.0)
        gaps = run_scan(p, target, [14], 64).gaps
        assert len(lines) == len(gaps) > 0
        assert lines == [f"q={q} phi={phi}: {reason}" for q, phi, reason in gaps]
        assert any("stalled at" in line for line in lines)

    def test_failed_cell_refuses_its_fit(self, tmp_path, monkeypatch):
        # a failed cell is NaN in scan.csv; fits.json refuses that order's
        # fit instead of writing NaN coefficients, and stays valid JSON
        harmonic_dipole = phasescan.harmonic_dipole

        def failing_dipole(p, tgt, q, labelled, dme_form="paper"):
            if q == 21 and p.phi == 0.0:
                raise PoleError("injected pole")
            return harmonic_dipole(p, tgt, q, labelled, dme_form=dme_form)

        monkeypatch.setattr(phasescan, "harmonic_dipole", failing_dipole)
        assert run(["scan", "--q-min", "20", "--q-max", "21", "--n-phi", "32",
                    "--outdir", tmp_path]) == 0

        def no_constants(name):
            raise AssertionError(f"fits.json holds {name}")

        fits = json.loads((tmp_path / "fits.json").read_text(),
                          parse_constant=no_constants)["fits"]
        assert fits["H21"] == {
            "error": "refused (2 of 32 series samples are not finite)"}
        assert {"a0", "tau", "modality"} <= set(fits["H20"])


class TestGoldenTables:
    @pytest.mark.parametrize("command, names, golden", [
        pytest.param("spectrum", ("spectrum.csv", "audit.txt"), GOLDEN_Q20_23,
                     id="spectrum-names0"),
        pytest.param("saddles", ("saddles.csv",), GOLDEN_Q20_23,
                     id="saddles-names1"),
        pytest.param("spectrum --oracle", ("spectrum.csv", "audit.txt",
                                           "spectrum_direct.csv",
                                           "comparison.txt"), GOLDEN_Q20_23,
                     id="spectrum-oracle"),
        # the paper's regime of comparable intensities of the two colours
        pytest.param("saddles --ratio 1.0", ("saddles.csv",), GOLDEN_Q20_23_R1,
                     id="saddles-r1"),
        # the dipole sum at R = 1.0, 1.1 to 2.6 decades above the oracle
        # there: it pins today's sum, not the right answer
        pytest.param("spectrum --oracle --ratio 1.0", ("spectrum.csv", "audit.txt",
                                                       "spectrum_direct.csv",
                                                       "comparison.txt"),
                     GOLDEN_Q20_23_R1, id="spectrum-oracle-r1"),
    ])
    def test_golden_bytes(self, command, names, golden, tmp_path, monkeypatch):
        # reference tables of q = 20..23; the relative --outdir keeps the
        # config echo in the header identical
        monkeypatch.chdir(tmp_path)
        assert run([*command.split(), "--q-min", "20", "--q-max", "23",
                    "--outdir", "out"]) == 0
        for name in names:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (golden / name).read_bytes()), name


class TestSaddlesAgreeWithSpectrum:
    def test_relevant_counts_match_n_saddles(self, tmp_path):
        # the top of the range needs the same padded branch history in both
        args = ["--q-min", "30", "--q-max", "35", "--phi", "2.1",
                "--ratio", "0.18"]
        assert run(["spectrum", *args, "--outdir", tmp_path / "spec"]) == 0
        assert run(["saddles", *args, "--outdir", tmp_path / "sad"]) == 0
        _, spec = read_table(tmp_path / "spec" / "spectrum.csv")
        _, sad = read_table(tmp_path / "sad" / "saddles.csv")
        relevant = [int(sad["relevant"][sad["q"] == q].sum()) for q in spec["q"]]
        assert relevant == [int(n) for n in spec["n_saddles"]]


class TestTableCommands:
    def test_saddles(self, tmp_path):
        assert run(["saddles", "--q-min", "20", "--q-max", "22",
                    "--outdir", tmp_path]) == 0
        _, cols = read_table(tmp_path / "saddles.csv")
        assert np.max(cols["residual"]) <= 1e-10
        assert set(np.unique(cols["relevant"])) <= {0.0, 1.0}
        assert np.any(cols["relevant"] == 1.0)

    def test_orbits(self, tmp_path):
        assert run(["orbits", "--q-min", "24", "--q-max", "24",
                    "--n-samples", "32", "--outdir", tmp_path]) == 0
        _, cols = read_table(tmp_path / "orbits.csv")
        assert len(cols["t"]) % 32 == 0
        assert len(cols["t"]) > 0

    def test_lissajous(self, tmp_path):
        assert run(["lissajous", "--n-samples", "64",
                    "--outdir", tmp_path]) == 0
        _, cols = read_table(tmp_path / "lissajous.csv")
        assert len(cols["t"]) == 64
        # phi = 0 field starts at the origin
        assert cols["Ex"][0] == 0.0 and cols["Ey"][0] == 0.0

    def test_oracle_command(self, tmp_path):
        assert run(["oracle", "--q-min", "19", "--q-max", "20",
                    "--outdir", tmp_path]) == 0
        meta, cols = read_table(tmp_path / "spectrum_direct.csv")
        assert len(cols["q"]) == 2
        assert cols["Ix"][1] < 1e-6 * cols["Ix"][0] or \
            cols["Iy"][0] < np.inf  # table well-formed; values positive
        assert np.all(cols["Itotal"] > 0)


class TestConfigValidation:
    def test_conflicting_frequency_inputs(self, tmp_path, capsys):
        assert run(["spectrum", "--lambda-nm", "800", "--omega", "0.057",
                    "--outdir", tmp_path]) == 2

    def test_conflicting_intensity_inputs(self, tmp_path):
        assert run(["spectrum", "--i1", "1.5e14", "--e1", "0.065",
                    "--outdir", tmp_path]) == 2

    def test_conflicting_target_inputs(self, tmp_path):
        assert run(["spectrum", "--species", "Ar", "--ip", "0.5",
                    "--outdir", tmp_path]) == 2

    def test_unknown_species(self, tmp_path):
        assert run(["spectrum", "--species", "Unobtainium",
                    "--outdir", tmp_path]) == 2

    @pytest.mark.parametrize("command", ["oracle", "spectrum --oracle"],
                             ids=["oracle", "spectrum-oracle"])
    def test_order_too_high_for_the_oracle_step(self, command, tmp_path, capsys):
        # at 800 nm the default step resolves orders up to q = 40.7
        assert run([*command.split(), "--q-min", "41", "--q-max", "42",
                    "--outdir", tmp_path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "q=42" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, message", [
        ("scan --n-phi 31", "need at least 32 phase points, got 31"),
        ("scan --n-phi 16", "need at least 32 phase points, got 16"),
        ("scan --n-phi 33", "need an even number of phase points, got 33"),
        ("lissajous --n-samples 4", "need at least 8 samples, got 4"),
        ("orbits --n-samples 8", "need at least 16 samples, got 8"),
    ], ids=["scan-31", "scan-16", "scan-33", "lissajous-4", "orbits-8"])
    def test_unusable_sample_counts(self, command, message, tmp_path, capsys,
                                    monkeypatch):
        def no_solve(*args):
            raise AssertionError("a saddle was solved")

        monkeypatch.setattr(saddle, "_evaluate", no_solve)
        assert run([*command.split(), "--q-min", "24", "--q-max", "24",
                    "--outdir", tmp_path]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        "oracle --q-min 41 --q-max 42",
        "scan --q-min 24 --q-max 24 --n-phi 16",
    ], ids=["oracle-q42", "scan-16"])
    def test_usage_error_leaves_no_outdir(self, command, tmp_path, capsys):
        # a missing, nested --outdir is created only with the first output
        out = tmp_path / "missing" / "nested"
        assert run([*command.split(), "--outdir", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_missing_nested_outdir_is_created(self, tmp_path):
        out = tmp_path / "missing" / "nested"
        assert run(["lissajous", "--n-samples", "64", "--outdir", out]) == 0
        assert [f.name for f in out.iterdir()] == ["lissajous.csv"]

    def test_fit_rejects_unknown_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["fit", bad, "--reference", bad,
                    "--outdir", tmp_path]) == 2

    @pytest.mark.parametrize("line, key", [
        ("q_min = twelve", "q_min"),
        ("ratio = abc", "ratio"),
        ("dme_form = foo", "dme_form"),
        ("ration = 0.5", "ration"),
        # physical inputs out of range, refused before any square root
        ("i1 = -1e14", "i1"),
        ("i2 = -1e13", "i2"),
        ("lambda_nm = -800", "lambda_nm"),
        # non-finite inputs
        ("e1 = nan", "e1"),
        ("ratio = nan", "ratio"),
        ("omega = nan", "omega"),
        ("phi = inf", "phi"),
        ("i1 = inf", "i1"),
        ("ip = nan", "ip"),
        # finite inputs whose E2 = E1 sqrt(ratio) overflows
        ("e1 = 1e200\nratio = 1e300", "ratio"),
    ], ids=["q_min", "ratio", "dme_form", "unknown_key", "i1-negative",
            "i2-negative", "lambda-negative", "e1-nan", "ratio-nan", "omega-nan",
            "phi-inf", "i1-inf", "ip-nan", "ratio-overflow"])
    def test_bad_config_file_values(self, line, key, tmp_path, capsys,
                                    monkeypatch):
        def no_solve(*args):
            raise AssertionError("a saddle was solved")

        monkeypatch.setattr(saddle, "_evaluate", no_solve)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\n{line}\n")
        out = tmp_path / "out"
        assert run(["spectrum", "--config", cfg, "--outdir", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("ratio = 0.5\n", "File contains no section headers."),
        ("[run]\nratio = 0.5\nratio = 0.6\n", "option 'ratio' in section 'run' "
                                             "already exists"),
        ("[run]\nratio = 0.5\n[more]\nq-min = 20\nratio = 0.6\n",
         "ratio is set in [run] and again in [more]"),
        ("[DEFAULT]\nq_min = 20\n[run]\nq_min = 21\n",
         "q_min is set in [DEFAULT] and again in [run]"),
        ("[run]\nratio = 0.5\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["no-section", "repeated-in-section", "in-two-sections", "default-section",
            "not-utf-8"])
    def test_unparsable_config_file(self, text, message, tmp_path, capsys,
                                    monkeypatch):
        # each key has one home in the file, so no setting is taken silently
        # from whichever section comes last
        def no_solve(*args):
            raise AssertionError("a saddle was solved")

        monkeypatch.setattr(saddle, "_evaluate", no_solve)
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(text.encode("latin-1"))
        out = tmp_path / "out"
        assert run(["spectrum", "--config", cfg, "--outdir", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: ")
        assert message in err[0]
        assert not out.exists()

    def test_config_sections_only_group_keys(self, tmp_path):
        # keys of several sections, [DEFAULT] among them, all apply
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\nq_min = 20\n[field]\nratio = 0.5\n"
                       "[orders]\nq-max = 20\n")
        assert run(["lissajous", "--config", cfg, "--n-samples", "64",
                    "--outdir", tmp_path]) == 0
        meta, _ = read_table(tmp_path / "lissajous.csv")
        assert {"# config q_min = 20", "# config q_max = 20",
                f"# config E2_au = {'%.12e' % (E1 * np.sqrt(0.5))}"} <= set(meta)


def _phase_table(path, phis, q=24):
    """A minimal scan-like CSV: one order sampled at ``phis``."""
    rows = [f"{phi:.17g},{q},{1.0 + 0.5 * np.cos(2 * phi) + 0.1 * k:.17g}"
            for k, phi in enumerate(phis)]
    path.write_text("phi,q,Itotal\n" + "\n".join(rows) + "\n")
    return path


class TestFitInputErrors:
    """Each bad fit input gives one error line, status 2 and no report."""

    def fit_fails(self, data, reference, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["fit", data, "--reference", reference, "--outdir", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (out / "fit_report.json").exists()
        return err[0]

    def test_reference_with_too_few_phases(self, tmp_path, capsys):
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        data = _phase_table(tmp_path / "data.csv", grid)
        ref = _phase_table(tmp_path / "ref.csv", grid[:6])
        assert self.fit_fails(data, ref, tmp_path, capsys) == \
            f"error: {ref}: H24: need at least 8 points, got 6"

    @pytest.mark.parametrize("n", [1, 7])
    def test_data_with_too_few_phases(self, n, tmp_path, capsys):
        # a short measured order is refused, not aligned
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        data = _phase_table(tmp_path / "data.csv", grid[:n])
        ref = _phase_table(tmp_path / "ref.csv", grid)
        assert self.fit_fails(data, ref, tmp_path, capsys) == \
            f"error: {data}: H24: need at least 8 points, got {n}"

    def test_reference_that_cannot_resolve_the_model(self, tmp_path, capsys):
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        data = _phase_table(tmp_path / "data.csv", grid)
        ref = _phase_table(tmp_path / "ref.csv", np.zeros(16))
        assert self.fit_fails(data, ref, tmp_path, capsys) == \
            f"error: {ref}: H24: degenerate design matrix column"

    @pytest.mark.parametrize("bad", ["data", "reference"])
    def test_non_finite_sample(self, bad, tmp_path, capsys):
        # one nan cell: an error naming the file and the order, not a fit
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        good = _phase_table(tmp_path / "good.csv", grid)
        broken = _phase_table(tmp_path / "broken.csv", grid)
        lines = broken.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
        broken.write_text("\n".join(lines) + "\n")
        data, ref = (broken, good) if bad == "data" else (good, broken)
        assert self.fit_fails(data, ref, tmp_path, capsys) == \
            f"error: {broken}: H24: 1 of 16 series samples are not finite"

    @pytest.mark.parametrize("cell, message", [
        ("nan", "column q holds a non-finite order"),
        ("H24", "column q is not numeric"),
    ], ids=["nan", "text"])
    def test_bad_order_cell(self, cell, message, tmp_path, capsys):
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        ref = _phase_table(tmp_path / "ref.csv", grid)
        data = _phase_table(tmp_path / "data.csv", grid)
        data.write_text(data.read_text().replace(",24,", f",{cell},", 1))
        assert self.fit_fails(data, ref, tmp_path, capsys) == \
            f"error: {data}: {message}"

    def test_short_row(self, tmp_path, capsys):
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        ref = _phase_table(tmp_path / "ref.csv", grid)
        data = _phase_table(tmp_path / "data.csv", grid)
        lines = data.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        data.write_text("\n".join(lines) + "\n")
        assert self.fit_fails(data, ref, tmp_path, capsys) == \
            f"error: {data}:4: 2 cells, the header has 3"

    @pytest.mark.parametrize("missing", ["data", "reference"])
    def test_missing_input_file(self, missing, tmp_path, capsys):
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        present = _phase_table(tmp_path / "present.csv", grid)
        absent = tmp_path / "absent.csv"
        data, ref = (absent, present) if missing == "data" else (present, absent)
        assert str(absent) in self.fit_fails(data, ref, tmp_path, capsys)


class TestFitColumns:
    @pytest.mark.parametrize("phase", ["phi", "phi_or_angle"])
    @pytest.mark.parametrize("value", ["Itotal", "intensity"])
    def test_every_header_pair(self, phase, value, tmp_path):
        # the phase and value columns are picked independently, so every
        # pair of names gives the report of the scan's own header
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        ref = _phase_table(tmp_path / "ref.csv", grid)
        data = tmp_path / "data.csv"
        data.write_text(ref.read_text().replace("phi,q,Itotal",
                                                f"{phase},q,{value}", 1))
        for name, table in (("plain", ref), ("renamed", data)):
            assert run(["fit", table, "--reference", ref,
                        "--outdir", tmp_path / name]) == 0
        assert ((tmp_path / "renamed" / "fit_report.json").read_bytes()
                == (tmp_path / "plain" / "fit_report.json").read_bytes())


class TestFitOrders:
    def test_non_integer_orders_keep_their_own_keys(self, tmp_path):
        # orders 20 and 20.5 are two reports, neither overwrites the other
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        tables = [_phase_table(tmp_path / f"q{q}.csv", grid, q)
                  for q in (20, 20.5)]
        both = tmp_path / "both.csv"
        both.write_text(tables[0].read_text()
                        + tables[1].read_text().split("\n", 1)[1])
        assert run(["fit", both, "--reference", both, "--outdir", tmp_path]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert sorted(report) == ["H20", "H20.5"]
        for q in (20, 20.5):
            assert run(["fit", tmp_path / f"q{q}.csv", "--reference", both,
                        "--outdir", tmp_path / f"only{q}"]) == 0
            only = json.loads((tmp_path / f"only{q}" / "fit_report.json").read_text())
            assert only == {f"H{q:g}": report[f"H{q:g}"]}


class TestRoundTrip:
    def test_all_emitted_tables_reingest(self, tmp_path):
        assert run(["spectrum", "--q-min", "20", "--q-max", "21",
                    "--outdir", tmp_path]) == 0
        assert run(["lissajous", "--n-samples", "64",
                    "--outdir", tmp_path]) == 0
        for name in ("spectrum.csv", "lissajous.csv"):
            meta, cols = read_table(tmp_path / name)
            assert meta and cols
            for v in cols.values():
                assert len(v) > 0


def test_scipy_optimize_not_loaded_by_the_cli(tmp_path):
    # numpy is the only runtime dependency: with scipy made unimportable,
    # the package imports and scan and fit run and write their reports
    src = Path(__file__).parent.parent / "src"
    code = ("import sys; sys.modules['scipy'] = None; "
            "sys.path.insert(0, sys.argv[1]); "
            "from twocolor_hhg.cli import main; out = sys.argv[2]; "
            "s = main(['scan', '--q-min', '24', '--q-max', '24', "
            "'--n-phi', '32', '--outdir', out]); "
            "f = main(['fit', out + '/scan.csv', '--reference', "
            "out + '/scan.csv', '--outdir', out]); "
            "print(s, f, [m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code, str(src), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 0 ['scipy']"
    for name in ("scan.csv", "fits.json", "fit_report.json"):
        assert (tmp_path / name).stat().st_size > 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert set(report) == {"H24"} and "tau" in report["H24"]
