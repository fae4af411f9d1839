"""Command-line surface: emission, determinism, round-trips, usage errors."""

import json
from pathlib import Path

import numpy as np
import pytest

from twocolor_hhg import FieldParams, run_scan, saddle, spectrum
from twocolor_hhg.cli import main, read_table

from conftest import E1, OMEGA


GOLDEN_SCAN = Path(__file__).parent / "data" / "golden_scan_h24"
GOLDEN_Q20_23 = Path(__file__).parent / "data" / "golden_q20_23"


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

    def test_golden_bytes(self, tmp_path, monkeypatch):
        # reference tables of the H24 scan at R = 0.12 over 32 phases; the
        # relative --outdir keeps the config echo in the header identical
        monkeypatch.chdir(tmp_path)
        assert run(["scan", "--q-min", "24", "--q-max", "24", "--n-phi", "32",
                    "--ratio", "0.12", "--outdir", "out"]) == 0
        for name in ("scan.csv", "axes.csv"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (GOLDEN_SCAN / name).read_bytes()), name

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
        # at R = 0.06 the H24 scan loses branches in continuation; their
        # audit lines keep the phase at which the branch stalled
        assert run(["scan", "--q-min", "24", "--q-max", "24", "--n-phi", "64",
                    "--ratio", "0.06", "--outdir", tmp_path]) == 0
        lines = (tmp_path / "audit.txt").read_text().splitlines()
        p = FieldParams.from_ratio(E1, OMEGA, 0.06, 0.0)
        gaps = run_scan(p, target, [24], 64).gaps
        assert len(lines) == len(gaps) > 0
        assert lines == [f"q={q} phi={phi}: {reason}" for q, phi, reason in gaps]
        assert any("stalled at" in line for line in lines)


class TestGoldenTables:
    @pytest.mark.parametrize("command, names", [
        ("spectrum", ("spectrum.csv", "audit.txt")),
        ("saddles", ("saddles.csv",)),
        pytest.param("spectrum --oracle", ("spectrum.csv", "audit.txt",
                                           "spectrum_direct.csv",
                                           "comparison.txt"),
                     id="spectrum-oracle"),
    ])
    def test_golden_bytes(self, command, names, tmp_path, monkeypatch):
        # reference tables of q = 20..23 at the default configuration; the
        # relative --outdir keeps the config echo in the header identical
        monkeypatch.chdir(tmp_path)
        assert run([*command.split(), "--q-min", "20", "--q-max", "23",
                    "--outdir", "out"]) == 0
        for name in names:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (GOLDEN_Q20_23 / name).read_bytes()), name


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

    def test_fit_rejects_unknown_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["fit", bad, "--reference", bad,
                    "--outdir", tmp_path]) == 2


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
