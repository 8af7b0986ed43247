import re

import pytest

from marketrec.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)
from marketrec.evalharness import HybridDef

from conftest import PLANTED_SPLIT_SEED


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    code = main(
        ["generate", "--users", "40", "--clusters", "4", "--noise", "0.1",
         "--seed", "19", "--out", str(out)]
    )
    assert code == EXIT_OK
    return out


def _config_file(tmp_path, dataset, body=""):
    path = tmp_path / "experiment.ini"
    path.write_text(
        "[experiment]\n"
        f"data = {dataset}\n"
        f"out = {tmp_path / 'results'}\n"
        "seed = 5\n"
        "k = 10\n"
        "n = 10\n"
        "task = products\n"
        "\n"
        "[recommenders]\n"
        "ids = most_popular, sn.graph.cn\n" + body,
        encoding="utf-8",
    )
    return path


def test_generate_validate_run_roundtrip(tmp_path, dataset, capsys):
    assert main(["validate", "--data", str(dataset)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "users\t40" in out

    config = _config_file(
        tmp_path,
        dataset,
        "\n[hybrid:all]\ncomponents = mp.purchases.jaccard, sn.graph.cn\n",
    )
    assert main(["run", "--config", str(config)]) == EXIT_OK
    report = (tmp_path / "results" / "products" / "report.tsv").read_text()
    lines = report.strip().splitlines()
    assert lines[0].startswith("recommender\tndcg@10")
    names = [line.split("\t")[0] for line in lines[1:]]
    assert names == ["most_popular", "sn.graph.cn", "all"]
    # the popularity baseline serves every eligible user
    assert lines[1].split("\t")[5] == "1.000000"
    curves = (tmp_path / "results" / "products" / "curves.tsv").read_text()
    assert len(curves.strip().splitlines()) == 1 + 10 * 3


def test_run_is_byte_identical(tmp_path, dataset):
    config = _config_file(tmp_path, dataset)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("report.tsv", "curves.tsv", "meta.tsv"):
        first = (tmp_path / "a" / "products" / name).read_bytes()
        second = (tmp_path / "b" / "products" / name).read_bytes()
        assert first == second


def test_seed_flag_changes_split(tmp_path, dataset):
    config = _config_file(tmp_path, dataset)
    main(["run", "--config", str(config), "--out", str(tmp_path / "s5")])
    main(["run", "--config", str(config), "--seed", "6", "--out", str(tmp_path / "s6")])
    meta5 = (tmp_path / "s5" / "products" / "meta.tsv").read_text()
    meta6 = (tmp_path / "s6" / "products" / "meta.tsv").read_text()
    assert "seed\t5" in meta5
    assert "seed\t6" in meta6


def test_task_flag_selects_task(tmp_path, dataset):
    config = _config_file(tmp_path, dataset)
    assert main(["run", "--config", str(config), "--task", "top_categories"]) == EXIT_OK
    assert (tmp_path / "results" / "top_categories" / "report.tsv").exists()


def test_unknown_feature_id_is_config_error(tmp_path, dataset, capsys):
    config = _config_file(tmp_path, dataset)
    text = config.read_text().replace("sn.graph.cn", "mp.bogus.jaccard")
    config.write_text(text)
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    assert "mp.bogus.jaccard" in capsys.readouterr().err


def test_missing_config_and_data(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG
    assert main(["validate", "--data", str(tmp_path / "nowhere")]) == EXIT_DATA


def test_corrupt_dataset_is_data_error(tmp_path, dataset, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for path in dataset.iterdir():
        (broken / path.name).write_bytes(path.read_bytes())
    with open(broken / "purchases.csv", "a", encoding="utf-8") as handle:
        handle.write("u0000,ghost-product\n")
    config = _config_file(tmp_path, broken)
    assert main(["run", "--config", str(config)]) == EXIT_DATA
    assert "ghost-product" in capsys.readouterr().err


def test_usage_errors_exit_with_config_code(capsys):
    assert main(["run"]) == EXIT_CONFIG  # missing --config
    assert main(["frobnicate"]) == EXIT_CONFIG
    assert main(["generate", "--users", "5", "--clusters", "9", "--out", "x"]) == EXIT_CONFIG


def test_config_parsing_details(tmp_path, dataset):
    config = _config_file(
        tmp_path,
        dataset,
        "\n[hybrid:weighted]\n"
        "components = mp.purchases.jaccard, sn.graph.cn\n"
        "weights = 0.7, 0.3\n",
    )
    parsed = load_config(config)
    assert parsed.knn_k == 10
    assert parsed.recommenders[0] == "most_popular"
    hybrid = parsed.recommenders[-1]
    assert isinstance(hybrid, HybridDef)
    assert hybrid.weights == {"mp.purchases.jaccard": 0.7, "sn.graph.cn": 0.3}


@pytest.mark.parametrize(
    "body, message",
    [
        ("\n[hybrid:h]\ncomponents = sn.graph.cn\nweights = 0.5, 0.5\n", "weights"),
        ("\n[hybrid:h]\ncomponents = sn.graph.cn\nweights = 0\n", "positive"),
        ("\n[hybrid:h]\nweights = 1.0\n", "components"),
        ("\n[hybrid:most_popular]\ncomponents = most_popular\n", "duplicate"),
        ("\n[hybrid:h]\ncomponents = sn.graph.cn\nweights = inf\n", "finite"),
        (
            "\n[hybrid:h]\ncomponents = sn.graph.no, sn.graph.no, most_popular\n"
            "weights = 0.2, 0.8, 0.5\n",
            "components twice: sn.graph.no",
        ),
        ("\n[hybrid:h]\ncomponents = sn.graph.no, sn.graph.no\n", "components twice"),
    ],
)
def test_bad_hybrid_sections(tmp_path, dataset, body, message):
    config = _config_file(tmp_path, dataset, body)
    with pytest.raises(ConfigError, match=message):
        load_config(config)


def test_run_rejects_nan_hybrid_weight(tmp_path, dataset, capsys):
    body = "\n[hybrid:h]\ncomponents = sn.graph.cn, most_popular\nweights = nan, 1.0\n"
    config = _config_file(tmp_path, dataset, body)
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {config}: " in err
    assert "hybrid weights must be finite and non-negative" in err
    assert not (tmp_path / "results").exists()


def test_run_reports_all_zero_derived_weights(tmp_path, planted_dataset, capsys):
    directory, _ = planted_dataset
    config = _config_file(tmp_path, directory, "\n[hybrid:h]\ncomponents = mp.purchases.jaccard\n")
    assert main(["run", "--config", str(config), "--seed", str(PLANTED_SPLIT_SEED)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    results = tmp_path / "results" / "products"
    report = (results / "report.tsv").read_text().splitlines()
    assert report[-1] == "h\t0.000000\t0.000000\t0.000000\t0.000000\t0.000000"
    meta = dict(line.split("\t") for line in (results / "meta.tsv").read_text().splitlines())
    assert meta["weight.h.mp.purchases.jaccard"] == "0.000000"
    assert meta["served.h"] == "0"


def test_misspelt_sections_and_keys_fail_the_run(tmp_path, dataset, capsys):
    # each used to be ignored: the run kept k = 10 and n = 10 and had no hybrid
    config = _config_file(tmp_path, dataset, "\n[hybird:x]\ncomponents = sn.graph.no, most_popular\n")
    text = config.read_text()
    config.write_text(text.replace("k = 10", "knn_k = 5").replace("n = 10", "list_length = 3"))
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {config}: [experiment] unknown key 'knn_k'; allowed: averaging")
    assert not (tmp_path / "results").exists()
    for wrong, message in (
        (text.replace("n = 10", "list_length = 3"), "[experiment] unknown key 'list_length'"),
        (text, "unknown section [hybird:x]"),
        ("[DEFAULT]\nseed = 3\n" + text.replace("hybird", "hybrid"), "unknown section [DEFAULT]"),
        (text.replace("hybird", "hybrid").replace("components", "component"), "[hybrid:x] unknown key 'component'"),
        (text.replace("ids =", "id ="), "[recommenders] unknown key 'id'; allowed: ids"),
    ):
        config.write_text(wrong)
        with pytest.raises(ConfigError, match=re.escape(f"{config}: {message}")):
            load_config(config)


def test_config_value_validation(tmp_path, dataset):
    config = _config_file(tmp_path, dataset)
    text = config.read_text().replace("k = 10", "k = 0")
    config.write_text(text)
    with pytest.raises(ConfigError, match="k must be"):
        load_config(config)
    config.write_text(text.replace("k = 0", "k = 10").replace("task = products", "task = nope"))
    with pytest.raises(ConfigError, match="task must be"):
        load_config(config)
    config.write_text(text.replace("k = 0", "k = 10").replace("ids = most_popular, sn.graph.cn", "ids ="))
    with pytest.raises(ConfigError, match="at least one recommender"):
        load_config(config)
