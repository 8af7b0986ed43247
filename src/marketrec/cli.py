"""Command-line interface: run experiments, generate synthetic data, validate datasets.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .corpus import CorpusError, load_corpus
from .evalharness import (
    TASKS,
    HybridDef,
    check_experiment,
    make_split,
    run_experiment,
    write_report,
)
from .recommender import DEFAULT_N
from .simfeatures import DEFAULT_K
from .synth import SyntheticSpec, generate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Invalid configuration file or command-line usage."""


@dataclass(frozen=True)
class ExperimentConfig:
    data_dir: str
    out_dir: str
    recommenders: tuple
    seed: int = 0
    knn_k: int = DEFAULT_K
    list_length: int = DEFAULT_N
    task: str = "products"
    averaging: str = "harsh"


# the keys each section may hold; every [hybrid:<name>] section holds those of "hybrid:"
_SECTION_KEYS = {
    "experiment": {"data", "out", "seed", "k", "n", "task", "averaging"},
    "recommenders": {"ids"},
    "hybrid:": {"components", "weights"},
}


def _split_list(value: str) -> list[str]:
    return [item for item in re.split(r"[,\s]+", value.strip()) if item]


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse an experiment config file (INI format).

    The [experiment] section holds run parameters, [recommenders] the plain
    recommender ids, and each [hybrid:<name>] section one weighted-sum hybrid
    (components plus optional explicit weights aligned with them). Any other
    section or key is an error, and ``;`` after whitespace starts a comment.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    for name in parser.sections():
        allowed = _SECTION_KEYS.get("hybrid:" if name.startswith("hybrid:") else name)
        if allowed is None:
            raise ConfigError(f"{path}: unknown section [{name}]")
        for key in parser.options(name):
            if key not in allowed:
                raise ConfigError(f"{path}: [{name}] unknown key {key!r}; allowed: {', '.join(sorted(allowed))}")
    if "experiment" not in parser:
        raise ConfigError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    try:
        data_dir = section["data"]
    except KeyError:
        raise ConfigError(f"{path}: [experiment] needs a 'data' entry") from None

    recommenders: list = []
    if parser.has_option("recommenders", "ids"):
        recommenders.extend(_split_list(parser["recommenders"]["ids"]))
    for name in parser.sections():
        if not name.startswith("hybrid:"):
            continue
        hybrid_name = name.split(":", 1)[1].strip()
        if not hybrid_name:
            raise ConfigError(f"{path}: empty hybrid name in [{name}]")
        if not parser.has_option(name, "components"):
            raise ConfigError(f"{path}: [{name}] needs a 'components' entry")
        components = tuple(_split_list(parser[name]["components"]))
        weights = None
        if parser.has_option(name, "weights"):
            raw = _split_list(parser[name]["weights"])
            if len(raw) != len(components):
                raise ConfigError(
                    f"{path}: [{name}] has {len(components)} components but {len(raw)} weights"
                )
            try:
                values = [float(item) for item in raw]
            except ValueError as exc:
                raise ConfigError(f"{path}: [{name}] weights: {exc}") from None
            weights = dict(zip(components, values))
        recommenders.append(HybridDef(name=hybrid_name, components=components, weights=weights))

    def _int(key, default):
        try:
            return section.getint(key, default)
        except ValueError as exc:
            raise ConfigError(f"{path}: [experiment] {key}: {exc}") from None

    config = ExperimentConfig(
        data_dir=data_dir,
        out_dir=section.get("out", "results"),
        recommenders=tuple(recommenders),
        seed=_int("seed", 0),
        knn_k=_int("k", DEFAULT_K),
        list_length=_int("n", DEFAULT_N),
        task=section.get("task", "products"),
        averaging=section.get("averaging", "harsh"),
    )
    try:
        check_experiment(
            config.recommenders,
            config.task,
            knn_k=config.knn_k,
            list_length=config.list_length,
            averaging=config.averaging,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


def run(config: ExperimentConfig) -> list[Path]:
    """Execute one experiment and write its report files; returns the paths."""
    corpus = load_corpus(config.data_dir)
    split = make_split(corpus, config.seed)
    report = run_experiment(
        corpus,
        split,
        config.recommenders,
        config.task,
        knn_k=config.knn_k,
        list_length=config.list_length,
        averaging=config.averaging,
    )
    return write_report(report, Path(config.out_dir) / config.task)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; remap them to config errors
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="marketrec", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run a configured experiment")
    run_parser.add_argument("--config", required=True, help="experiment config file")
    run_parser.add_argument("--seed", type=int, help="override the config seed")
    run_parser.add_argument("--task", choices=TASKS, help="override the config task")
    run_parser.add_argument("--out", help="override the output directory")

    gen_parser = commands.add_parser("generate", help="generate a synthetic dataset")
    gen_parser.add_argument("--users", type=int, default=SyntheticSpec.users)
    gen_parser.add_argument("--clusters", type=int, default=SyntheticSpec.clusters)
    gen_parser.add_argument("--noise", type=float, default=SyntheticSpec.noise)
    gen_parser.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    gen_parser.add_argument("--out", required=True, help="output directory")

    val_parser = commands.add_parser("validate", help="load and validate a dataset")
    val_parser.add_argument("--data", required=True, help="dataset directory")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            config = load_config(args.config)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            if args.task is not None:
                config = replace(config, task=args.task)
            if args.out is not None:
                config = replace(config, out_dir=args.out)
            written = run(config)
            for path in written:
                print(path)
        elif args.command == "generate":
            try:
                spec = SyntheticSpec(
                    users=args.users, clusters=args.clusters, noise=args.noise, seed=args.seed
                )
                spec.validate()
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            manifest = generate(spec, args.out)
            counts = ", ".join(f"{table}={count}" for table, count in sorted(manifest["counts"].items()))
            print(f"wrote {args.out}: {counts}")
        else:
            corpus = load_corpus(args.data)
            print(f"users\t{len(corpus.users)}")
            print(f"products\t{len(corpus.products)}")
            print(f"purchases\t{len(corpus.purchases)}")
            print(f"social\t{len(corpus.social)}")
            print(f"groups\t{len(corpus.memberships)}")
            print(f"interests\t{len(corpus.interests)}")
            print(f"locations\t{len(corpus.locations)}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorpusError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
