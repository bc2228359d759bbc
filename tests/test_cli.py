import hashlib
import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from treemrf import mpmrf
from treemrf.cli import EXIT_INPUT, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, _parser, main
from treemrf.poset import DEFAULT_ALPHA_GRID
from treemrf.tree_core import Tree

from helpers import mc_cov_stats, path_star_moments, poisson_pmf, random_tree


def write_model(path, d, edges, lam=1.0, alpha=0.5):
    path.write_text(json.dumps(
        {"d": d, "edges": [list(e) for e in edges], "lambda": lam, "alpha": alpha}))
    return str(path)


def write_tree(path, d, edges):
    path.write_text(json.dumps({"d": d, "edges": [list(e) for e in edges]}))
    return str(path)


STAR10 = [(1, i) for i in range(2, 11)]
T12 = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7),
       (5, 8), (5, 9), (5, 10), (5, 11), (5, 12)]
T12P = [(1, 2), (1, 3), (3, 4), (2, 5), (3, 6), (3, 7),
        (5, 8), (5, 9), (5, 10), (5, 11), (5, 12)]
SPIDER9 = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8), (7, 9)]
CATERPILLAR9 = [(1, 2), (2, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]


class TestPmf:
    def test_independent_model_is_poisson(self, tmp_path):
        model = write_model(tmp_path / "m.json", 3, [(1, 2), (2, 3)], alpha=0.0)
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--model", model, "-o", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,p"
        assert lines[-1].startswith("# tail_mass,")
        pmf = np.array([float(l.split(",")[1]) for l in lines[1:-1]])
        assert np.max(np.abs(pmf - poisson_pmf(3.0, len(pmf) - 1))) < 1e-12

    def test_single_vertex(self, tmp_path):
        model = write_model(tmp_path / "m.json", 1, [], lam=2.0, alpha=0.0)
        out = tmp_path / "pmf.csv"
        # a d=1 model has no edges; alpha scalar is accepted and unused
        assert main(["pmf", "--model", model, "-o", str(out)]) == EXIT_OK
        pmf = [float(l.split(",")[1]) for l in out.read_text().strip().splitlines()[1:-1]]
        assert abs(pmf[0] - np.exp(-2.0)) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        model = write_model(tmp_path / "m.json", 4, [(1, 2), (2, 3), (3, 4)], alpha=0.7)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["pmf", "--model", model, "-o", str(out1)]) == EXIT_OK
        assert main(["pmf", "--model", model, "-o", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file(self, tmp_path):
        assert main(["pmf", "--model", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_high_rate_path_returns(self, tmp_path):
        # rate 800: exp(-800) underflows, the aggregate is Poisson(800)
        d = 800
        model = write_model(tmp_path / "m.json", d, [(i, i + 1) for i in range(1, d)], lam=1.0, alpha=0.0)
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--model", model, "-o", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert 0.0 <= float(lines[-1].split(",")[1]) < 1e-12  # the tail mass trailer
        pmf = np.array([float(l.split(",")[1]) for l in lines[1:-1]])
        assert np.max(np.abs(pmf - scipy.stats.poisson.pmf(np.arange(len(pmf)), d))) < 1e-12

    def test_unreachable_tol_exits_4(self, tmp_path, capsys):
        model = write_model(tmp_path / "m.json", 4, [(1, 2), (2, 3), (3, 4)], lam=1.0, alpha=0.0)
        argv = ["pmf", "--model", model, "--tol", "1e-300", "-o", str(tmp_path / "pmf.csv")]
        assert main(argv) == EXIT_TOLERANCE
        err = capsys.readouterr().err
        assert err.startswith("error: tolerance:") and "is not below tol 1e-300 by K = " in err
        assert "compound-Poisson rate 4.0" in err

    @pytest.mark.parametrize("shape,d,lam,alpha", [
        ("path", 1000, 0.5, 0.5),
        ("star", 1000, 1.0, 0.5),
    ])
    def test_rounding_floor_models_return(self, tmp_path, shape, d, lam, alpha):
        edges = ([(i, i + 1) for i in range(1, d)] if shape == "path"
                 else [(1, i) for i in range(2, d + 1)])
        model = write_model(tmp_path / "m.json", d, edges, lam=lam, alpha=alpha)
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--model", model, "-o", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert float(lines[-1].split(",")[1]) < 1e-12  # the tail mass trailer
        pmf = np.array([float(l.split(",")[1]) for l in lines[1:-1]])
        ks = np.arange(len(pmf))
        mean, var = path_star_moments(shape, d, lam, alpha)
        assert ks @ pmf == pytest.approx(mean, rel=1e-9)
        assert (ks - mean) ** 2 @ pmf == pytest.approx(var, rel=1e-9)

    def test_bad_tol(self, tmp_path):
        model = write_model(tmp_path / "m.json", 2, [(1, 2)])
        assert main(["pmf", "--model", model, "--tol", "0.5"]) == EXIT_INPUT

    @pytest.mark.parametrize("d,edges", [
        (3.9, [[1, 2], [2, 3]]),  # once read as a 3-vertex path
        (3, [[1, 2.7], [2, 3]]),  # once read as the edge (1, 2)
        (True, []),  # once read as a single vertex
        ("3", [[1, 2], [2, 3]]),
    ])
    def test_non_integer_d_or_label_exits_3(self, tmp_path, capsys, d, edges):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": d, "edges": edges, "lambda": 1.0, "alpha": 0.5}))
        assert main(["pmf", "--model", str(path), "-o", str(tmp_path / "out.csv")]) == EXIT_INPUT
        assert "must be integers" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("lam,alpha", [
        (True, 0.5),  # once read as lambda = 1.0
        (1.0, True),  # once read as alpha = 1.0
        ("2.5", 0.5),  # once read as the number 2.5
        (1.0, "0.5"),
        (1.0, {"1-2": "0.3", "2-3": 0.5}),  # once read as alpha[1-2] = 0.3
        (1.0, {"1-2": False, "2-3": 0.5}),
        (None, 0.5),
        (10 ** 400, 0.5),  # an int past the float range: once an OverflowError trace
    ], ids=["lambda-true", "alpha-true", "lambda-str", "alpha-str", "edge-alpha-str",
            "edge-alpha-bool", "lambda-null", "lambda-huge-int"])
    def test_non_number_lambda_or_alpha_exits_3(self, tmp_path, capsys, lam, alpha):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 3, "edges": [[1, 2], [2, 3]], "lambda": lam, "alpha": alpha}))
        assert main(["pmf", "--model", str(path), "-o", str(tmp_path / "out.csv")]) == EXIT_INPUT
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["pmf", "allocate", "mc"])
    @pytest.mark.parametrize("lam", [float("inf"), float("nan"), 1e308, 1e12])
    def test_nonfinite_lambda_or_rate_exits_3(self, tmp_path, capsys, command, lam):
        # 1e308 is finite, but the rate 1e308 * (3 - 2 * 0.5) overflows;
        # 1e12 is finite, but its aggregate or sampler table would pass MAX_K
        model = write_model(tmp_path / "m.json", 3, [(1, 2), (2, 3)], lam=lam)
        assert main([command, "--model", model, "-o", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: input:")
        if lam == 1e12:
            assert "MAX_K" in err and "rate" in err


class TestAllocate:
    def test_star_covariance_column(self, tmp_path):
        model = write_model(tmp_path / "m.json", 10, STAR10)
        out = tmp_path / "alloc.csv"
        assert main(["allocate", "--model", model, "-o", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        covs = {int(r[0]): float(r[2]) for r in rows}
        assert abs(covs[1] - 5.5) < 1e-9
        assert all(abs(covs[v] - 3.5) < 1e-9 for v in range(2, 11))

    def test_kappa_zero_sums_to_total_mean(self, tmp_path):
        model = write_model(tmp_path / "m.json", 6,
                            [(1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])
        out = tmp_path / "alloc.csv"
        assert main(["allocate", "--model", model, "--kappa", "0.0",
                     "-o", str(out)]) == EXIT_OK
        sums = [l for l in out.read_text().splitlines() if l.startswith("# sum")][0]
        assert abs(float(sums.split(",")[3]) - 6.0) < 1e-8

    def test_ranking_follows_criterion(self, tmp_path):
        # vertex 3 outranks vertex 2 on the 6-vertex hub tree at every level
        model = write_model(tmp_path / "m.json", 6,
                            [(1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])
        for kappa in ("0.1", "0.5", "0.9"):
            out = tmp_path / f"a{kappa}.csv"
            assert main(["allocate", "--model", model, "--kappa", kappa,
                         "-o", str(out)]) == EXIT_OK
            rows = [l.split(",") for l in out.read_text().splitlines()[1:]
                    if l and not l.startswith("#")]
            contrib = {int(r[0]): float(r[3]) for r in rows}
            assert contrib[2] <= contrib[3] + 1e-9

    def test_contributions_are_the_library_table(self, tmp_path):
        # the command's one aggregate serves the whole table
        edges = [(1, 2), (2, 3), (3, 4), (3, 5), (3, 6)]
        model = write_model(tmp_path / "m.json", 6, edges, lam=0.8, alpha=0.6)
        out = tmp_path / "alloc.csv"
        assert main(["allocate", "--model", model, "--kappa", "0.93", "-o", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        m = mpmrf.MpmrfModel.homogeneous(Tree.of(6, edges), 0.8, 0.6)
        table = mpmrf.tvar_contribution_table(m, mpmrf.aggregate_dist(m), [0.93])
        assert {int(r[0]): r[3] for r in rows} == {v: repr(float(c[0])) for v, c in table.items()}

    def test_tvar_check_matches_the_sum(self, tmp_path):
        # both count the aggregate's mass beyond its cut K through E[M] = d * lambda
        rng = np.random.default_rng(30)
        t = random_tree(rng, 100)
        alpha = {f"{a}-{b}": float(rng.uniform(0.05, 0.95)) for a, b in t.edges}
        model = write_model(tmp_path / "m.json", 100, t.edges, lam=1.6, alpha=alpha)
        for kappa in ("0.0", "0.5", "0.9556"):
            out = tmp_path / f"a{kappa}.csv"
            assert main(["allocate", "--model", model, "--kappa", kappa, "-o", str(out)]) == EXIT_OK
            trailers = {l.split(",")[0]: float(l.split(",")[3])
                        for l in out.read_text().splitlines() if l.startswith("#")}
            assert abs(trailers["# tvar_check"] - trailers["# sum"]) < 1e-11

    def test_kappa_roots_the_tree_at_most_three_times(self, tmp_path, root_calls):
        # the aggregate, every H law and every covariance: one rooting each
        t = random_tree(np.random.default_rng(33), 200)
        model = write_model(tmp_path / "m.json", 200, t.edges, lam=0.2, alpha=0.5)
        out = tmp_path / "alloc.csv"
        assert main(["allocate", "--model", model, "--kappa", "0.9", "-o", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 200 + 2
        assert len(root_calls) <= 3

    @pytest.mark.parametrize("kappa", ["1.0", "-0.1", "nan"])
    def test_kappa_out_of_range_exits_3(self, tmp_path, capsys, kappa):
        model = write_model(tmp_path / "m.json", 3, [(1, 2), (2, 3)])
        assert main(["allocate", "--model", model, "--kappa", kappa]) == EXIT_INPUT
        assert "kappa must be in [0, 1)" in capsys.readouterr().err


class TestCompare:
    def test_incomparable_pair(self, tmp_path):
        model = write_model(tmp_path / "m.json", 12, T12, alpha=0.9)
        tree2 = write_tree(tmp_path / "t2.json", 12, T12P)
        out = tmp_path / "verdict.json"
        assert main(["compare", "--model", model, tree2, "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["relation"] == "INCOMPARABLE"
        assert "inconclusive" in obj["note"]

    def test_identical_files(self, tmp_path):
        model = write_model(tmp_path / "m.json", 4, [(1, 2), (2, 3), (3, 4)])
        out = tmp_path / "verdict.json"
        assert main(["compare", "--model", model, model, "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["relation"] == "EQ" and obj["method"] == "identical"

    def test_multi_move_pair_through_poset(self, tmp_path):
        model = write_model(tmp_path / "m.json", 9, SPIDER9)
        tree2 = write_tree(tmp_path / "t2.json", 9, CATERPILLAR9)
        out = tmp_path / "verdict.json"
        assert main(["compare", "--model", model, tree2,
                     "--alpha-grid", "0.3", "0.6", "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["relation"] == "LE" and obj["method"] == "poset_closure"

    def test_isomorphic_pair_through_poset(self, tmp_path):
        # vertex labels reversed: several edges differ, the shape is the same
        model = write_model(tmp_path / "m.json", 9, SPIDER9)
        tree2 = write_tree(tmp_path / "t2.json", 9, [(10 - a, 10 - b) for a, b in SPIDER9])
        out = tmp_path / "verdict.json"
        assert main(["compare", "--model", model, tree2, "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["relation"] == "EQ" and obj["method"] == "poset_closure"

    def test_poset_fallback_ignores_lambda(self, tmp_path):
        # the shape poset depends on alpha alone; a large lambda once failed
        # the fallback's aggregate sanity check
        model = write_model(tmp_path / "m.json", 9, SPIDER9, lam=200.0)
        tree2 = write_tree(tmp_path / "t2.json", 9, CATERPILLAR9)
        out = tmp_path / "verdict.json"
        assert main(["compare", "--model", model, tree2, "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["relation"] == "LE" and obj["method"] == "poset_closure"

    def test_bad_second_file(self, tmp_path):
        model = write_model(tmp_path / "m.json", 4, [(1, 2), (2, 3), (3, 4)])
        assert main(["compare", "--model", model,
                     str(tmp_path / "nope.json")]) == EXIT_INPUT

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"lambda"', "null"])
    def test_second_file_not_an_object(self, tmp_path, capsys, text):
        model = write_model(tmp_path / "m.json", 4, [(1, 2), (2, 3), (3, 4)])
        tree2 = tmp_path / "t2.json"
        tree2.write_text(text)
        assert main(["compare", "--model", model, str(tree2)]) == EXIT_INPUT
        assert f"bad tree file {tree2}" in capsys.readouterr().err


# SHA-256 of the `poset --d k` JSON and DOT files, taken before the move loop
# keyed its moves by one AHU pass per residual; the outputs must not move
POSET_SHA256 = {
    4: ("e62f2f145ceea18411e451c0030b848ba3e062f9a4f28268093db49036120161",
        "17f0d91cbb7b64cd3c21c0f0a05d17bdb35086557f640d201e53b87c2e056abb"),
    5: ("8314d46accc9b86926b821471debc7682558cb265f0af6824f05ca6fb1a95f1d",
        "e0bcea2ef69dcd39885b707520bbd8f13a3996e83379f31160e6389c047ec06a"),
    6: ("83fdcdb9f6f27285a4e4e5c78c11776f6edc94f40454eb8a12aad53a1f465a4b",
        "858aab45cfac1cdd59fbff53de9434a25293b6d292dfab38d8cc51b71a5bc2e8"),
    7: ("18ef4351918ee70fa3628069996b56c581f4809f6884d9e98dc646fa8122593b",
        "f2d00d2c6a62365a56f22d5a2a95c06c4144abba3382c022caec03f8aa8e5c8c"),
    8: ("a767718d62dfa0e83bed18dc7a1ac54ab4fa917ed64d19b84dbfd4534423f399",
        "6c288537817396d35d79e01273e967ec24d0e1413b63f74dd816af6d2fcbe0ad"),
    9: ("0b2c5d44f0964d433436f26b600acc8dc58b7ad709ba816def244c43795b168c",
        "9b3bd5d92a05a393c2ed78aacfa0375ad460cd41686bc7547f700b10274baa57"),
}


class TestPoset:
    @pytest.mark.parametrize("d", sorted(POSET_SHA256))
    def test_artifacts_are_pinned(self, tmp_path, d):
        prefix = tmp_path / f"poset{d}"
        assert main(["poset", "--d", str(d), "-o", str(prefix)]) == EXIT_OK
        digests = tuple(hashlib.sha256((tmp_path / f"poset{d}.{ext}").read_bytes()).hexdigest()
                        for ext in ("json", "dot"))
        assert digests == POSET_SHA256[d]

    def test_d4_artifacts(self, tmp_path):
        prefix = tmp_path / "poset4"
        assert main(["poset", "--d", "4", "-o", str(prefix)]) == EXIT_OK
        dot = (tmp_path / "poset4.dot").read_text()
        assert dot.count("[label=") == 2 and dot.count("->") == 1
        obj = json.loads((tmp_path / "poset4.json").read_text())
        assert obj["d"] == 4 and len(obj["shapes"]) == 2

    def test_d8_json_lists_undecided_moves_and_grid(self, tmp_path):
        prefix = tmp_path / "poset8"
        assert main(["poset", "--d", "8", "--format", "json", "-o", str(prefix)]) == EXIT_OK
        obj = json.loads((tmp_path / "poset8.json").read_text())
        assert obj["alpha_grid"] == list(DEFAULT_ALPHA_GRID)
        assert len(obj["undecided"]) == 20 and obj["flags"] == []
        for move in obj["undecided"]:
            assert move["relations"] == ["INCOMPARABLE"] * len(DEFAULT_ALPHA_GRID)

    def test_out_of_range(self, tmp_path):
        assert main(["poset", "--d", "3"]) == EXIT_INPUT

    def test_stdout_mode(self, capsys):
        assert main(["poset", "--d", "4"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "digraph" in text and '"shapes":' in text


class TestMc:
    def test_report_within_bands(self, tmp_path):
        model = write_model(tmp_path / "m.json", 2, [(1, 2)], alpha=0.5)
        out = tmp_path / "mc.json"
        assert main(["mc", "--model", model, "--n", "300000", "--seed", "11",
                     "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["ok"] is True
        assert obj["tv_distance"] < 5e-3
        assert obj["vertices"]["1"]["ok"] and obj["vertices"]["2"]["ok"]

    def test_bands_allow_for_many_vertices(self, tmp_path):
        # this stream's worst per-vertex deviation is about 3.4 sigma: a false
        # alarm under uncorrected 3-sigma bands, inside the corrected ones
        model = write_model(tmp_path / "m.json", 6,
                            [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6)], alpha=0.5)
        out = tmp_path / "mc.json"
        assert main(["mc", "--model", model, "--n", "200000", "--seed", "41",
                     "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["ok"] is True
        assert all(v["ok"] for v in obj["vertices"].values())

    @pytest.mark.parametrize("seed", [4, 49])
    def test_tv_limit_scales_with_n(self, tmp_path, seed):
        # these streams read a TV distance above 5e-3, which a fixed cut once
        # rejected; at n=200000 the limit is about 8.4e-3
        model = write_model(tmp_path / "m.json", 6,
                            [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6)], alpha=0.5)
        out = tmp_path / "mc.json"
        assert main(["mc", "--model", model, "--n", "200000", "--seed", str(seed),
                     "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert 5e-3 < obj["tv_distance"] < obj["tv_limit"] < 9e-3
        assert obj["ok"] is True

    def test_tv_limit_catches_a_wrong_sampler(self, tmp_path, monkeypatch):
        # draws from alpha=0.55 checked against the alpha=0.5 law
        edges = [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6)]
        wrong = mpmrf.MpmrfModel.homogeneous(Tree.of(6, edges), 1.0, 0.55)
        sample = mpmrf.sample
        monkeypatch.setattr(mpmrf, "sample",
                            lambda _model, root, seed, n: sample(wrong, root, seed, n))
        model = write_model(tmp_path / "m.json", 6, edges, alpha=0.5)
        out = tmp_path / "mc.json"
        assert main(["mc", "--model", model, "--n", "200000", "--seed", "4",
                     "-o", str(out)]) == EXIT_TOLERANCE
        obj = json.loads(out.read_text())
        assert obj["tv_distance"] > 2 * obj["tv_limit"]

    def test_huge_carried_count_exits_3(self, tmp_path, capsys):
        # both Poisson tables pass MAX_K; thinning the root's n * lambda,
        # about 10^11 carried events, would not
        model = write_model(tmp_path / "m.json", 2, [(1, 2)], lam=1e6)
        assert main(["mc", "--model", model, "-o", str(tmp_path / "mc.json")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: input:") and "MAX_K" in err

    def test_huge_n_exits_3(self, tmp_path, capsys):
        # 2 * 10^12 draws would take 14.6 TiB; the bound stops it before allocating
        model = write_model(tmp_path / "m.json", 2, [(1, 2)])
        assert main(["mc", "--model", model, "--n", str(10**12),
                     "-o", str(tmp_path / "mc.json")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: input:") and "MAX_K" in err

    def test_deterministic_given_seed(self, tmp_path):
        # n is small enough that the TV band may fail; the report must still
        # be written and be byte-identical across reruns
        model = write_model(tmp_path / "m.json", 2, [(1, 2)], alpha=0.3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        codes = set()
        for out in (a, b):
            codes.add(main(["mc", "--model", model, "--n", "5000", "--seed", "7",
                            "-o", str(out)]))
        assert codes <= {EXIT_OK, EXIT_TOLERANCE} and len(codes) == 1
        assert a.read_bytes() == b.read_bytes()


def _no_nan(token):
    raise ValueError(f"{token} is not JSON")


PER_EDGE4 = ([(1, 2), (2, 3), (2, 4)], {"1-2": 0.0, "2-3": 1.0, "2-4": 0.4})


class TestMcReport:
    """The streamed covariance statistics against np.cov and np.std."""

    @pytest.mark.parametrize("d, edges, lam, alpha, n, seed", [
        (4, [(1, 2), (2, 3), (3, 4)], 1.0, 0.5, 70_000, 3),
        (6, [(1, i) for i in range(2, 7)], 2.0, 0.3, 20_000, 8),
        (8, list(random_tree(np.random.default_rng(17), 8).edges), 0.5, 0.7, 65_537, 21),
        (4, *PER_EDGE4[:1], 1.3, PER_EDGE4[1], 70_000, 5),
        (4, *PER_EDGE4[:1], 1.3, PER_EDGE4[1], 2, 6),  # the smallest n
        (6, [(1, i) for i in range(2, 7)], 0.4, 0.9, 3, 1),
        (1, [], 2.0, 0.0, 1000, 4),
    ])
    def test_matches_the_np_cov_oracle(self, tmp_path, d, edges, lam, alpha, n, seed):
        model = write_model(tmp_path / "m.json", d, edges, lam=lam, alpha=alpha)
        out = tmp_path / "mc.json"
        code = main(["mc", "--model", model, "--n", str(n), "--seed", str(seed),
                     "-o", str(out)])
        obj = json.loads(out.read_text(), parse_constant=_no_nan)
        m = mpmrf.MpmrfModel.from_json(json.loads((tmp_path / "m.json").read_text()))
        draws = mpmrf.sample(m, m.tree.vertices[0], seed, n)
        total = draws.sum(axis=1)
        z = statistics.NormalDist().inv_cdf(1 - 0.0027 / (4 * d))
        ok = obj["tv_distance"] < obj["tv_limit"]
        for i, v in enumerate(m.tree.vertices):
            rep = obj["vertices"][str(v)]
            cov, spread = mc_cov_stats(draws[:, i], total, lam)
            cov_band = z * spread / n ** 0.5
            assert rep["cov_with_sum"] == pytest.approx(cov, rel=1e-12, abs=0.0)
            assert rep["cov_band"] == pytest.approx(cov_band, rel=1e-12, abs=0.0)
            v_ok = (abs(rep["mean"] - lam) < rep["mean_band"]
                    and abs(cov - rep["cov_expected"]) < cov_band)
            assert rep["ok"] is v_ok
            ok = ok and v_ok
        assert obj["ok"] is ok
        assert code == (EXIT_OK if ok else EXIT_TOLERANCE)

    def test_other_fields_are_pinned(self, tmp_path):
        # values of the np.cov report: only cov_with_sum and cov_band may
        # differ from it, in their last bits; tv_distance reads the blocked
        # Panjer pass's law of M, whose summation order moves its last bit
        model = write_model(tmp_path / "m.json", 4, PER_EDGE4[0], lam=1.3, alpha=PER_EDGE4[1])
        out = tmp_path / "mc.json"
        assert main(["mc", "--model", model, "--n", "70000", "--seed", "5",
                     "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert (obj["tv_distance"], obj["tv_limit"]) == (0.004703607990490325,
                                                         0.013406848020661775)
        band = 0.015448000513003182
        assert {v: (r["mean"], r["mean_band"], r["cov_expected"])
                for v, r in obj["vertices"].items()} == {
            "1": (1.3008285714285714, band, 1.3),
            "2": (1.3032142857142857, band, 3.12),
            "3": (1.3032142857142857, band, 3.12),
            "4": (1.3022857142857143, band, 2.3400000000000003),
        }

    def test_working_memory_is_the_draws_and_three_columns(self, tmp_path):
        # 8 n d bytes of draws, the centred total and one scratch column, with
        # a column to spare for the thinning's cumulative counts
        d, n = 4, 10**6
        model = write_model(tmp_path / "m.json", d, [(1, 2), (2, 3), (3, 4)])
        tracemalloc.start()
        try:
            code = main(["mc", "--model", model, "--n", str(n), "--seed", "3",
                         "-o", str(tmp_path / "mc.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 8 * n * (d + 3)

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_n_below_2_exits_2(self, tmp_path, capsys, how):
        # one draw has no sample covariance: the report would divide by n - 1 = 0
        model = write_model(tmp_path / "m.json", 2, [(1, 2)])
        out = tmp_path / "mc.json"
        argv = ["mc", "--model", model, "-o", str(out)]
        if how == "flag":
            argv += ["--n", "1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": 1}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert "n must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_a_nan_statistic_exits_3_without_a_report(self, tmp_path, monkeypatch, capsys):
        # a bare NaN token is not JSON: the report is refused, not written
        monkeypatch.setattr(mpmrf, "cov_with_sum",
                            lambda model: {v: math.nan for v in model.tree.vertices})
        model = write_model(tmp_path / "m.json", 2, [(1, 2)])
        out = tmp_path / "mc.json"
        assert main(["mc", "--model", model, "--n", "1000", "-o", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: input:")
        assert not out.exists()


class TestSpectral:
    def test_path3(self, tmp_path):
        tree = write_tree(tmp_path / "t.json", 3, [(1, 2), (2, 3)])
        out = tmp_path / "spec.json"
        assert main(["spectral", "--model", tree, "-o", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert abs(obj["rho"] - 2 ** 0.5) < 1e-9
        assert abs(obj["algebraic_connectivity"] - 1.0) < 1e-9
        assert obj["degrees"] == [2, 1, 1]

    @pytest.mark.parametrize("argv", [
        ["spectral", "--model", "{t}"],
        ["compare", "--model", "{m}", "{t}"],
        ["poset", "--d", "4"],
    ])
    def test_tol_is_not_a_flag(self, tmp_path, argv):
        # only pmf, allocate and mc compute an aggregate law to a tolerance
        paths = {"t": write_tree(tmp_path / "t.json", 3, [(1, 2), (2, 3)]),
                 "m": write_model(tmp_path / "m.json", 3, [(1, 2), (1, 3)])}
        argv = [a.format(**paths) for a in argv]
        assert main(argv) == EXIT_OK
        assert main(argv + ["--tol", "1e-6"]) == EXIT_USAGE


class TestAllocationTableExport:
    def test_k_value_csv(self, tmp_path):
        model = write_model(tmp_path / "m.json", 3, [(1, 2), (2, 3)], alpha=0.4)
        out = tmp_path / "table.csv"
        assert main(["allocate", "--model", model, "--table", "2",
                     "-o", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,value"
        values = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert abs(values.sum() - 1.0) < 1e-6  # totals E[N_v] = lambda

    def test_unknown_vertex(self, tmp_path):
        model = write_model(tmp_path / "m.json", 3, [(1, 2), (2, 3)])
        assert main(["allocate", "--model", model, "--table", "9"]) == EXIT_INPUT


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        model = write_model(tmp_path / "m.json", 2, [(1, 2)], alpha=0.0)
        out = tmp_path / "pmf.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "output": str(out)}))
        assert main(["pmf", "--config", str(cfg)]) == EXIT_OK
        assert out.read_text().startswith("k,p")

    def test_flags_override_config(self, tmp_path):
        m1 = write_model(tmp_path / "m1.json", 2, [(1, 2)], alpha=0.0, lam=1.0)
        m2 = write_model(tmp_path / "m2.json", 1, [], alpha=0.0, lam=9.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": m1}))
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--config", str(cfg), "--model", m2,
                     "-o", str(out)]) == EXIT_OK
        first = float(out.read_text().splitlines()[1].split(",")[1])
        assert abs(first - np.exp(-9.0)) < 1e-12

    def test_tol_key_ignored_by_poset(self, tmp_path, capsys):
        # like any key of another subcommand: tol is a flag of pmf, allocate and mc
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-6}))
        assert main(["poset", "--d", "4", "--format", "json", "--config", str(cfg)]) == EXIT_OK
        with_key = capsys.readouterr().out
        assert main(["poset", "--d", "4", "--format", "json"]) == EXIT_OK
        assert with_key == capsys.readouterr().out and '"hasse"' in with_key

    @pytest.mark.parametrize("blob", [{"kappa": 0.5}, {"kappa": 0.5, "tol": "abc"}])
    def test_config_holds_for_its_call_only(self, tmp_path, capsys, blob):
        # the second blob sets kappa, then fails on tol: neither may leak
        model = write_model(tmp_path / "m.json", 4, [(1, 2), (2, 3), (2, 4)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blob))
        assert main(["allocate", "--model", model, "--kappa", "0.95"]) == EXIT_OK
        explicit = capsys.readouterr().out
        main(["allocate", "--model", model, "--config", str(cfg)])
        with_config = capsys.readouterr().out
        assert main(["allocate", "--model", model]) == EXIT_OK
        assert capsys.readouterr().out == explicit != with_config

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["pmf", "--config", str(cfg)]) == EXIT_INPUT

    # key, argv without it, the key as flags, the key as a config value;
    # "{m}", "{t2}" and "{out}" stand for the model, second tree and output paths
    @pytest.mark.parametrize("key,argv,flag,value", [
        ("model", ["pmf"], ["--model", "{m}"], "{m}"),
        ("tree2", ["compare", "--model", "{m}"], ["{t2}"], "{t2}"),
        ("tol", ["pmf", "--model", "{m}"], ["--tol", "0.5"], 0.5),  # out of range
        ("seed", ["mc", "--model", "{m}", "--n", "2000"], ["--seed", "5"], 5),
        ("n", ["mc", "--model", "{m}"], ["--n", "3000"], 3000),
        ("kappa", ["allocate", "--model", "{m}"], ["--kappa", "0.7"], 0.7),
        ("table", ["allocate", "--model", "{m}"], ["--table", "2"], 2),
        ("d", ["poset"], ["--d", "5"], 5),
        ("alpha_grid", ["poset", "--d", "5"], ["--alpha-grid", "0.2", "0.7"], [0.2, 0.7]),
        ("output", ["pmf", "--model", "{m}"], ["-o", "{out}"], "{out}"),
        ("format", ["poset", "--d", "4"], ["--format", "json"], "json"),
    ])
    def test_config_key_matches_flag(self, tmp_path, capsys, key, argv, flag, value):
        paths = {"m": write_model(tmp_path / "m.json", 4, [(1, 2), (2, 3), (2, 4)]),
                 "t2": write_tree(tmp_path / "t2.json", 4, [(1, 2), (2, 3), (3, 4)])}

        def fill(x, out):
            return x.format(out=out, **paths) if isinstance(x, str) else x

        runs = []
        for how in ("flag", "config", "neither"):
            out = tmp_path / f"out-{how}"
            args = [fill(a, out) for a in argv]
            if how == "flag":
                args += [fill(a, out) for a in flag]
            elif how == "config":
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps({key: fill(value, str(out))}))
                args += ["--config", str(cfg)]
            code = main(args)
            written = out.read_bytes() if out.exists() else None
            runs.append((code, capsys.readouterr().out, written))
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]  # the key is not a no-op

    @pytest.mark.parametrize("command,blob", [
        (["pmf", "--model", "{m}"], {"tol": "abc"}),
        (["pmf", "--model", "{m}"], {"tol": [1]}),
        (["poset"], {"d": "x"}),
        # an untyped (path or name) flag takes only a string: 1 and 5 would
        # reach open() as file descriptors
        (["pmf", "--model", "{m}"], {"output": 1}),
        (["pmf"], {"model": 5}),
        (["poset", "--d", "4"], {"format": 1}),
        (["compare", "--model", "{m}"], {"tree2": None}),
        (["poset", "--d", "4"], {"format": "xml"}),  # not one of its choices
    ])
    def test_wrong_typed_value_exits_3(self, tmp_path, capsys, command, blob):
        model = write_model(tmp_path / "m.json", 2, [(1, 2)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blob))
        argv = [a.format(m=model) for a in command] + ["--config", str(cfg)]
        assert main(argv) == EXIT_INPUT
        assert repr(next(iter(blob))) in capsys.readouterr().err


class TestUsage:
    def test_parser_is_built_once(self, capsys):
        _parser.cache_clear()
        assert main(["poset", "--d", "4", "--format", "dot"]) == EXIT_OK
        assert main(["pmf"]) == EXIT_USAGE
        assert main(["poset", "--d", "4", "--format", "dot"]) == EXIT_OK
        assert _parser.cache_info().misses == 1

    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["pmf"]) == EXIT_USAGE

    # only poset has a choice of output: the others take no --format, not
    # even naming the one format they write
    @pytest.mark.parametrize("command,fmt", [
        ("pmf", "json"), ("pmf", "csv"), ("allocate", "csv"), ("compare", "json"),
        ("mc", "json"), ("spectral", "json"),
    ])
    def test_unsupported_format(self, tmp_path, command, fmt):
        model = write_model(tmp_path / "m.json", 2, [(1, 2)])
        tree2 = [model] if command == "compare" else []
        assert main([command, "--model", model, *tree2, "--format", fmt]) == EXIT_USAGE

    def test_poset_single_format(self, capsys):
        assert main(["poset", "--d", "4", "--format", "dot"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "digraph" in text and '"shapes":' not in text
