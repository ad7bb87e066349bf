"""Pipeline orchestration CLI.

Each stage reads a workspace directory and returns the files it produces;
``Workspace.commit`` writes one batch per command, ``run`` included, so a
command that fails writes nothing. ``run`` and a chain of per-stage
subcommands produce identical artifact trees. Every stage records its
resolved configuration, input digests, and artifact digests in
``run-manifest.json``; nothing depends on wall-clock time, so repeated runs
are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 parse error (strict
mode), 4 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from collabmap.errors import CollabmapError, ConfigError, DataError, ParseError

# Each function imports the modules it calls, so a stage process loads only
# what it runs, and calls them through the module, where perfbench's tracer
# rebinds them.
if TYPE_CHECKING:
    from collections.abc import Iterator

    from collabmap import network
    from collabmap.corpus import filtering, records, registry as registry_mod
    from collabmap.layout import Layout, LayoutConfig

MANIFEST_NAME = "run-manifest.json"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_DATA = 4

# the bytes of an input file read at once
READ_SIZE = 64 * 1024


# ---------------------------------------------------------------------------
# configuration: one table of options, from which RunConfig, the flags of
# every subcommand, the config-file checks and the manifest views derive
# ---------------------------------------------------------------------------

# Value parsers take a flag string or a config-file JSON value and raise
# TypeError or ValueError on a bad one.

def _integer(raw) -> int:
    if isinstance(raw, (bool, float)):
        raise TypeError("not an integer")
    return int(raw)


def _real(raw) -> float:
    if isinstance(raw, bool):
        raise TypeError("not a number")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _fraction(raw) -> Fraction:
    if isinstance(raw, bool):
        raise TypeError("not a number")
    return Fraction(str(raw))


def _nonnegative(parse: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def checked(raw):
        value = parse(raw)
        if value < 0:
            raise ValueError("negative")
        return value
    return checked


def _positive(parse: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def checked(raw):
        value = parse(raw)
        if value <= 0:
            raise ValueError("not positive")
        return value
    return checked


def _text(raw) -> str:
    if not isinstance(raw, str):
        raise TypeError("not a string")
    return raw


def _nonblank(raw) -> str:
    """Text with something in it besides white space, kept as given."""
    if not _text(raw).strip():
        raise ValueError("blank")
    return raw


def _switch(raw) -> bool:
    if not isinstance(raw, bool):
        raise TypeError("not true or false")
    return raw


def _texts(raw) -> list[str]:
    if not isinstance(raw, list):
        raise TypeError("not a list")
    return [_text(item) for item in raw]


def _countries(raw) -> list[str]:
    """A comma-separated string or a list of names, upper-cased."""
    items = raw.split(",") if isinstance(raw, str) else _texts(raw)
    return [item.strip().upper() for item in items if item.strip()]


def _synonyms(raw) -> dict[str, str]:
    """Document-type tags onto retained types. A tag is looked up stripped
    and lower-cased, so a key of any other form could never match."""
    if not isinstance(raw, dict):
        raise TypeError("not an object")
    synonyms = {_text(key): _text(value) for key, value in raw.items()}
    if any(key != key.strip().lower() for key in synonyms):
        raise ValueError("a tag that is not lower case and stripped")
    return synonyms


# Manifest renderings, called as show(config, stage). Paths are reduced to
# file names so manifests stay byte-identical across checkouts; content is
# pinned by the digest table.

def _file_name(path: str | None) -> str | None:
    return Path(path).name if path else None


def _size_attr(cfg, stage: str) -> str:
    """The VOSviewer size attribute, defaulting per stage."""
    return cfg.size_attr or ("degree" if stage == "core" else "fractional_papers")


class Option(NamedTuple):
    """One configuration value: RunConfig field, flag, checks and consumers."""

    name: str  # RunConfig attribute and config-file key
    flag: str | None  # None: settable from the config file only
    default: Any
    parse: Callable[[Any], Any]
    stages: tuple[str, ...]  # the commands whose output depends on the value
    help: str
    choices: tuple[str, ...] = ()
    key: str = ""  # manifest key if not the name; "group.key" nests
    show: Callable[[Any, str], Any] | None = None  # manifest value if not the field's

    def coerce(self, raw):
        """The field value for a flag or config-file value; null unsets an optional one."""
        if raw is None and self.default is None:
            return None
        try:
            value = self.parse(raw)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad value for {self.name}: {raw!r}") from exc
        if self.choices and value not in self.choices:
            raise ConfigError(f"{self.name} must be one of {', '.join(self.choices)}, got {value!r}")
        return value


_REGISTRY_USERS = ("synth", "ingest", "summary", "geo")
_THRESHOLD_USERS = ("net", "geo")
_LIST_USERS = ("net", "geo", "core", "ego")
_LAYOUT_USERS = ("net", "core", "ego")

OPTIONS = (
    Option("inputs", "--input", [], _texts, ("ingest",), "record files",
           show=lambda cfg, _: [Path(p).name for p in cfg.inputs]),
    Option("input_format", "--format", "tagged", _text, ("ingest",), "record file format",
           choices=("tagged", "delimited")),
    Option("strict", "--strict", False, _switch, ("ingest",),
           "abort on the first malformed record"),
    Option("registry_path", "--registry", None, _text, _REGISTRY_USERS,
           "override the bundled country CSV", show=lambda cfg, _: _file_name(cfg.registry_path)),
    Option("aliases_path", "--aliases", None, _text, _REGISTRY_USERS,
           "override the bundled alias CSV", show=lambda cfg, _: _file_name(cfg.aliases_path)),
    Option("type_synonyms", None, None, _synonyms, ("ingest",),
           "lower-case document-type tag -> retained type"),
    Option("min_node_fractional", "--min-node-fractional", Fraction(0), _nonnegative(_fraction),
           _THRESHOLD_USERS, "node threshold on fractionally counted papers",
           show=lambda cfg, _: str(cfg.min_node_fractional)),
    Option("min_edge_weight", "--min-link-weight", 0, _nonnegative(_integer), _THRESHOLD_USERS,
           "edge threshold on co-authored document counts"),
    Option("comparator", "--comparator", "ge", _text, _THRESHOLD_USERS,
           "threshold test: at least (ge) or above (gt)", choices=("ge", "gt")),
    Option("core_k", "--core-k", None, _nonnegative(_integer), ("core",), "k of the k-core"),
    Option("core_min_edge_weight", "--core-min-link-weight", 1, _nonnegative(_integer), ("core",),
           "edge threshold applied before the k-core"),
    Option("ego_focus", "--focus", None, _nonblank, ("ego", "export"),
           "focal country of the ego network"),
    Option("ego_min_edge_weight", "--ego-min-link-weight", 1, _nonnegative(_integer), ("ego",),
           "edge threshold of the ego network"),
    Option("ego_alter_ties", "--no-alter-ties", True, _switch, ("ego",),
           "drop the ties among the focus's neighbours"),
    Option("include_countries", "--include-countries", [], _countries, _LIST_USERS,
           "comma-separated inclusion list applied before thresholds",
           show=lambda cfg, _: sorted(cfg.include_countries)),
    Option("exclude_countries", "--exclude-countries", [], _countries, _LIST_USERS,
           "comma-separated exclusion list applied before thresholds",
           show=lambda cfg, _: sorted(cfg.exclude_countries)),
    Option("layout_transform", "--layout-transform", None, _text, _LAYOUT_USERS,
           "edge-length transform (default follows --layout-weights)",
           choices=("inverse_log_weight", "one_minus_similarity", "unit"), key="layout.transform",
           show=lambda cfg, _: cfg.layout_config().transform.value),
    Option("layout_weights", "--layout-weights", "counts", _text, _LAYOUT_USERS,
           "lay out by co-authorship counts or by cosine similarity",
           choices=("counts", "cosine"), key="layout.weights"),
    Option("layout_diameter", "--layout-diameter", 1.0, _positive(_real), _LAYOUT_USERS,
           "longest ideal distance of the layout", key="layout.diameter"),
    Option("layout_spring", "--layout-spring", 1.0, _positive(_real), _LAYOUT_USERS,
           "layout spring constant", key="layout.spring_constant"),
    Option("layout_tolerance", "--layout-tolerance", 1e-4, _positive(_real), _LAYOUT_USERS,
           "layout stops when no gradient exceeds this", key="layout.tolerance"),
    Option("layout_max_iterations", "--layout-max-iter", None, _positive(_integer), _LAYOUT_USERS,
           "layout iteration cap (default 200 per node)", key="layout.max_outer_iterations"),
    Option("layout_seed", "--layout-seed", 42, _integer, _LAYOUT_USERS,
           "seed of the initial layout positions", key="layout.seed"),
    Option("size_attr", "--size-attr", None, _text, _LAYOUT_USERS, "VOSviewer node size",
           choices=("integer_papers", "fractional_papers", "degree"), show=_size_attr),
    Option("size_min", "--size-min", 1.0, _real, ("geo",), "smallest geo marker size"),
    Option("size_scale", "--size-scale", 1.0, _real, ("geo",),
           "geo marker growth per log paper"),
    Option("great_circle", "--great-circle", False, _switch, ("geo",),
           "interpolate geo links along great circles"),
    Option("square_matrices", "--square-matrices", False, _switch, ("net",),
           "also write square matrix CSVs"),
)
_OPTION_BY_NAME = {opt.name: opt for opt in OPTIONS}


class RunConfig:
    """One attribute per row of OPTIONS, set by keyword or to the row's
    default; a list default is copied for each instance."""

    def __init__(self, **values):
        unknown = values.keys() - _OPTION_BY_NAME.keys()
        if unknown:
            raise TypeError(f"RunConfig got unexpected keyword arguments {sorted(unknown)}")
        for opt in OPTIONS:
            default = list(opt.default) if isinstance(opt.default, list) else opt.default
            setattr(self, opt.name, values.get(opt.name, default))

    @cached_property
    def registry(self) -> registry_mod.CountryRegistry:
        from collabmap.corpus import registry as registry_mod

        return registry_mod.load_registry(self.registry_path, self.aliases_path)

    def layout_config(self) -> LayoutConfig:
        from collabmap import layout

        transform = self.layout_transform
        if transform is None:
            transform = (
                "one_minus_similarity" if self.layout_weights == "cosine" else "inverse_log_weight"
            )
        return layout.LayoutConfig(
            transform=layout.EdgeLengthTransform(transform),
            diameter=self.layout_diameter,
            spring_constant=self.layout_spring,
            tolerance=self.layout_tolerance,
            max_outer_iterations=self.layout_max_iterations,
            seed=self.layout_seed,
        )

    def stage_view(self, stage: str) -> dict:
        """Every option the stage consumes, for its manifest entry."""
        view: dict = {}
        for opt in OPTIONS:
            if stage in opt.stages:
                value = opt.show(self, stage) if opt.show else getattr(self, opt.name)
                group, _, key = (opt.key or opt.name).rpartition(".")
                (view.setdefault(group, {}) if group else view)[key] = value
        return view


# ---------------------------------------------------------------------------
# workspace plumbing
# ---------------------------------------------------------------------------

def layout_components(
    nodes: list[str], edges: dict[tuple[str, str], float], cfg: LayoutConfig
) -> Layout:
    """``collabmap.layout.layout_components``, whose module is loaded on
    the first call, so only the stages that draw a map load it."""
    from collabmap import layout

    return layout.layout_components(nodes, edges, cfg)


class Workspace:
    """The artifact directory that stages read from and commit() writes to."""

    def __init__(self, root: Path):
        self.root = Path(root)
        # the running stage's reads: workspace path, or input file name -> sha256
        # of what was read; commit() records them in the stage's manifest entry
        self.inputs: dict[str, str] = {}
        # the files that the stages of the batch being computed made, by relative path
        self._batch: dict[str, str] = {}
        # (sha256 of network.json's text, the network it holds), once read or handed on
        self._network: tuple[str, network.CoauthNetwork] | None = None
        # (nodes, edge pairs, edge weights, settings) -> the layout computed from them
        self._layouts: dict[tuple, Layout] = {}

    def commit(self, stages: list[str], cfg: RunConfig, fresh: bool = False) -> None:
        """Compute the stages in turn into one batch, whose files the later
        ones read, then write it with every stage's manifest entry in one
        write_files call; update_manifest says what ``fresh`` deletes."""
        entries, self._batch = {}, {}
        for stage in stages:
            self.inputs = {}
            files = _STAGE_FUNCS[stage](cfg, self)
            self._batch.update(files)
            entries[stage] = {"config": cfg.stage_view(stage), "inputs": self.inputs,
                              "artifacts": {relpath: _sha256_text(text) for relpath, text in files.items()}}
        files, self._batch, self.inputs = self._batch, {}, {}  # the manifest read next is no input
        manifest, stale = update_manifest(self, entries, fresh)
        self.write_files({**files, MANIFEST_NAME: manifest}, stale)

    def write_files(self, files: dict[str, str], delete: list[str]) -> None:
        """Write each relative path's text to a temporary sibling, then move
        each file to delete and each existing target aside and the temporary
        into its place. If any step fails, put the originals back, remove
        the new files and the temporaries, and re-raise, so every file stays
        as it was. On success, remove the directories the deletions empty.
        Before anything is written, _check_artifact_path holds every
        deletion and every target to the one write rule."""
        for relpath in [*delete, *files]:
            _check_artifact_path(self.root, f"workspace {self.root}", relpath, target=relpath in files)
        staged: list[tuple[Path, Path]] = []
        moved: list[tuple[Path, Path | None]] = []  # (target, its original's backup)
        try:
            for relpath, text in files.items():
                path = self.root / relpath
                path.parent.mkdir(parents=True, exist_ok=True)
                temp = path.with_name(path.name + ".tmp")
                staged.append((temp, path))
                temp.write_text(text, encoding="utf-8", newline="\n")
            for relpath in delete:
                path = self.root / relpath
                if path.is_file():
                    backup = path.with_name(path.name + ".bak")
                    os.replace(path, backup)
                    moved.append((path, backup))
            for temp, path in staged:
                backup = path.with_name(path.name + ".bak") if path.exists() else None
                if backup is not None:
                    os.replace(path, backup)
                moved.append((path, backup))
                os.replace(temp, path)
        except BaseException:
            for path, backup in reversed(moved):
                if backup is None:
                    path.unlink(missing_ok=True)
                else:
                    os.replace(backup, path)
            for temp, _path in staged:
                temp.unlink(missing_ok=True)
            raise
        for _path, backup in moved:
            if backup is not None:
                backup.unlink()
        for relpath in delete:
            for parent in PurePosixPath(relpath).parents[:-1]:
                try:
                    (self.root / parent).rmdir()
                except OSError:  # not empty, or not there
                    break

    def read_text(self, relpath: str) -> str:
        """The text of a workspace file, from the batch if a stage in it made
        the file, else decoded as UTF-8 with its line ends as they are; the
        sha256 of its bytes, as its producer records it, is an input."""
        text = self._batch.get(relpath)
        if text is None:
            path = self.root / relpath
            if not path.is_file():
                raise ConfigError(f"missing intermediate {relpath!r}; run the earlier stages first")
            try:
                text = path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{relpath}: not UTF-8 text: {exc}") from exc
        # strict UTF-8 decodes and encodes back to the same bytes
        self.inputs[relpath] = _sha256_text(text)
        return text

    def input_chunks(self, path: Path) -> Iterator[bytes]:
        """An input file's bytes, READ_SIZE at a time; once the last is
        read, the sha256 of them all is recorded under its file name."""
        digest = hashlib.sha256()
        with path.open("rb") as fh:
            while chunk := fh.read(READ_SIZE):
                digest.update(chunk)
                yield chunk
        self.inputs[path.name] = digest.hexdigest()

    def keep_network(self, text: str, net: network.CoauthNetwork) -> None:
        """Keep ``net``, the network of the network.json text ``text``, for
        network(), which uses it only while the file holds that text."""
        self._network = (_sha256_text(text), net)

    def network(self) -> network.CoauthNetwork:
        """The network of network.json, reused while the file's digest holds;
        a network without countries, which ingest writes for zero documents,
        is a DataError."""
        from collabmap import network

        text = self.read_text("network.json")
        digest = self.inputs["network.json"]
        if self._network is None or self._network[0] != digest:
            self._network = (digest, network.load_network(text))
        net = self._network[1]
        if not net.nodes:
            raise DataError("network.json: the network has no countries; ingest retained no documents")
        return net

    def layout(self, nodes: list[str], edges: dict[tuple[str, str], float], cfg: LayoutConfig) -> Layout:
        """``layout_components(nodes, edges, cfg)``, computed once for each
        distinct node order, edge order and weights, and settings (Dijkstra's
        tie-breaking reads the edge order). Equal maps share the one Layout,
        so its readers must not change it."""
        # flat tuples of the pairs and weights the edges dict already holds
        key = (tuple(nodes), tuple(edges), tuple(edges.values()), cfg)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layouts[key] = layout_components(nodes, edges, cfg)
        return layout


def _json_object(relpath: str, text: str) -> dict:
    """The JSON object that the text of ``relpath`` holds; text that is not
    one is a DataError that names the file."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{relpath}: not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{relpath}: not a JSON object")
    return obj


def _read_intermediate(ws: Workspace, relpath: str, fields: tuple[str, ...], **convert: Callable) -> dict:
    """The JSON object of an intermediate whose keys are ``fields``, each
    one named in ``convert`` parsed back from its JSON form. A file that is
    not such an object is a DataError that names the file."""
    obj = _json_object(relpath, ws.read_text(relpath))
    names = set(fields)
    unknown, missing = sorted(obj.keys() - names), sorted(names - obj.keys())
    if unknown or missing:
        raise DataError(f"{relpath}: unknown keys {unknown}, missing keys {missing}")
    for name, parse in convert.items():
        try:
            obj[name] = parse(obj[name])
        except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise DataError(f"{relpath}: bad {name}: {exc}") from exc
    return obj


def _count(raw) -> int:
    """A count read back from JSON: a non-negative int, not a bool."""
    if type(raw) is not int or raw < 0:
        raise ValueError(f"not a non-negative integer: {raw!r}")
    return raw


def _type_tally(raw) -> dict[str, int]:
    """Documents by type read back from JSON: an object of positive ints."""
    if not isinstance(raw, dict) or not all(type(n) is int and n > 0 for n in raw.values()):
        raise ValueError(f"not an object of positive integers: {raw!r}")
    return raw


def _counts(fields: tuple[str, ...]) -> dict[str, Callable]:
    """``_count`` for each field that names a count, n_..."""
    return {name: _count for name in fields if name.startswith("n_")}


def _check_tallies(relpath: str, tallies: dict, documents: str) -> None:
    """Refuse tallies of the retained documents that contradict each other:
    the documents, counted under ``documents``, are the per-type counts'
    sum; none is international more than once, and each has an address."""
    n_docs, n_intl = tallies[documents], tallies["n_international_docs"]
    n_addresses, n_addresses_intl = tallies["n_addresses_total"], tallies["n_addresses_international"]
    if sum(tallies["per_type"].values()) != n_docs:
        raise DataError(f"{relpath}: per_type does not sum to {documents} ({n_docs})")
    if not n_intl <= n_docs <= n_addresses:
        raise DataError(f"{relpath}: n_international_docs ({n_intl}) <= {documents} ({n_docs}) "
                        f"<= n_addresses_total ({n_addresses}) fails")
    if n_addresses_intl > n_addresses:
        raise DataError(f"{relpath}: n_addresses_international ({n_addresses_intl}) "
                        f"is above n_addresses_total ({n_addresses})")


def _histogram(raw) -> dict[int, int]:
    """A degree histogram read back from JSON: counts keyed by degrees
    written as non-negative decimal integers."""
    if not isinstance(raw, dict):
        raise TypeError(f"not a JSON object: {raw!r}")
    histogram = {}
    for key, count in raw.items():
        degree = int(key)
        if degree < 0 or key != str(degree):
            raise ValueError(f"not a degree: {key!r}")
        histogram[degree] = _count(count)
    return histogram


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_dumps(obj) -> str:
    """Canonical sorted-key JSON, used for the manifest."""
    return json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def _json_artifact(obj) -> str:
    """Schema-ordered JSON for artifact files (dicts are pre-ordered)."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _check_artifact_path(root: Path, where: str, relpath: str, target: bool = False) -> None:
    """The one rule for an artifact path written, deleted or listed: relative
    to ``root``, with no empty, "." or ".." part, and led out by no symbolic
    link, or a DataError; a ``target`` that is a directory, or lies below a
    file, is a ConfigError."""
    path = root / relpath
    if (any(part in ("", ".", "..") for part in relpath.split("/"))
            or not path.resolve().is_relative_to(root.resolve())):
        raise DataError(f"{where}: artifact {relpath!r} is not a path inside the workspace")
    if target:
        _check_output_path("artifact", path, directory=False)


def update_manifest(ws: Workspace, entries: dict[str, dict], fresh: bool) -> tuple[str, list[str]]:
    """The workspace's manifest with the batch's entries replaced, and the
    artifacts to delete with it: for a ``fresh`` batch, which it lists alone,
    every artifact the old one lists that the batch does not rewrite."""
    manifest = {"stages": {}}
    if (ws.root / MANIFEST_NAME).is_file():
        manifest = _json_object(MANIFEST_NAME, ws.read_text(MANIFEST_NAME))
    stages = manifest.setdefault("stages", {})
    if not isinstance(stages, dict):
        raise DataError(f"{MANIFEST_NAME}: stages is not a JSON object")
    for name, entry in stages.items():
        where = f"{MANIFEST_NAME}: stage {name!r}"
        if not isinstance(entry, dict):
            raise DataError(f"{where} is not a JSON object")
        for key in ("config", "inputs", "artifacts"):
            if not isinstance(entry.get(key), dict):
                raise DataError(f"{where}: {key} is not a JSON object")
            if key != "config" and not all(isinstance(v, str) for v in entry[key].values()):
                raise DataError(f"{where}: {key} maps a name to a non-string")
        for relpath in entry["artifacts"]:
            _check_artifact_path(ws.root, where, relpath)
    if not fresh:
        stages.update(entries)
        return _json_dumps(manifest), []
    stale = {relpath for old in stages.values() for relpath in old["artifacts"]}
    stale -= {relpath for entry in entries.values() for relpath in entry["artifacts"]} | {MANIFEST_NAME}
    return _json_dumps({"stages": entries}), sorted(stale)


# ---------------------------------------------------------------------------
# intermediate representations
# ---------------------------------------------------------------------------

def documents_jsonl(documents: list[filtering.Document]) -> str:
    """One line per document, the text of json.dumps(..., sort_keys=True,
    ensure_ascii=False) built directly: keys and countries in sorted order."""
    quoted: dict[str, str] = {}  # country -> its JSON string, encoded once
    lines = []
    for doc in documents:
        parts = []
        for country, count in sorted(doc.country_addresses.items()):
            name = quoted.get(country)
            if name is None:
                name = quoted[country] = encode_basestring(country)
            parts.append(f"{name}: {count}")
        countries = ", ".join(parts)
        lines.append(
            f'{{"country_addresses": {{{countries}}}, "doc_type": {encode_basestring(doc.doc_type)}, '
            f'"record_id": {encode_basestring(doc.record_id)}}}'
        )
    return "\n".join(lines) + ("\n" if lines else "")


def load_documents(text: str) -> list[filtering.Document]:
    """The documents of documents.jsonl; a malformed line is a DataError
    that names its line number. Lines end at "\n" only, as JSONL's do:
    a record id may hold U+2028 or U+0085, which the writer leaves raw.
    No stage calls it; it stays while perfbench's tracer wraps the name."""
    from collabmap.corpus import filtering

    documents = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"documents.jsonl line {line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{where}: not a JSON object")
        missing = [key for key in ("record_id", "doc_type", "country_addresses") if key not in obj]
        if missing:
            raise DataError(f"{where}: missing {', '.join(missing)}")
        if not isinstance(obj["record_id"], str) or not isinstance(obj["doc_type"], str):
            raise DataError(f"{where}: record_id or doc_type is not a string")
        addresses = obj["country_addresses"]
        if not isinstance(addresses, dict) or not addresses:
            raise DataError(f"{where}: country_addresses is not a non-empty object")
        bad = {c: n for c, n in addresses.items() if type(n) is not int or n < 1}
        if bad:
            raise DataError(f"{where}: address counts that are not positive integers: {bad}")
        documents.append(
            filtering.Document(
                record_id=obj["record_id"],
                doc_type=obj["doc_type"],
                country_addresses=addresses,
            )
        )
    return documents


def _restrict_network(cfg: RunConfig, net: network.CoauthNetwork) -> network.CoauthNetwork:
    """Apply the include/exclude country list before thresholding."""
    from collabmap import network

    if cfg.include_countries:
        return network.subnetwork_by_list(net, cfg.include_countries, mode="include")
    if cfg.exclude_countries:
        return network.subnetwork_by_list(net, cfg.exclude_countries, mode="exclude")
    return net


def _subnetwork_files(
    ws: Workspace,
    prefix: str,
    sub: network.CoauthNetwork,
    cfg: RunConfig,
    size_attr: str,
) -> dict[str, str]:
    """The shared artifact set of any extracted subnetwork, by relative path."""
    from collabmap import counting, network
    from collabmap.exports import pajek, vosviewer

    files = {f"{prefix}/edges.csv": network.cooccurrence_triples_csv(sub.edges)}
    node_lines = ["country,integer_papers,fractional_papers,degree,isolated"]
    for country, info in sub.nodes.items():
        degree = sub.degree(country)
        node_lines.append(
            f"{country},{info.integer_papers},{counting.format_fixed(info.fractional_papers)},"
            f"{degree},{'no' if degree else 'yes'}"
        )
    files[f"{prefix}/nodes.csv"] = "\n".join(node_lines) + "\n"
    files[f"{prefix}/stats.json"] = _json_artifact(network.network_stats(sub).as_dict())

    if cfg.layout_weights == "cosine":
        edges = {
            (a, b): network.ochiai(w, sub.nodes[a].integer_papers, sub.nodes[b].integer_papers)
            for (a, b), w in sub.edges.items()
        }
    else:
        edges = {pair: float(w) for pair, w in sub.edges.items()}
    layout = ws.layout(list(sub.nodes), edges, cfg.layout_config())
    layout_lines = ["country,x,y"]
    for country in sub.nodes:
        x, y = layout.coordinates[country]
        layout_lines.append(f"{country},{counting.format_fixed(x)},{counting.format_fixed(y)}")
    files[f"{prefix}/layout.csv"] = "\n".join(layout_lines) + "\n"

    files[f"{prefix}/network.net"] = pajek.export_pajek(sub, layout)
    map_text, net_text = vosviewer.export_vosviewer(sub, layout, size_attr=size_attr)
    files[f"{prefix}/vos-map.txt"] = map_text
    files[f"{prefix}/vos-network.txt"] = net_text
    return files


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

# Each stage returns the text of each of its files by relative path; what
# it read, the Workspace records.

def stage_ingest(cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    import gc

    # Everything ingest builds is acyclic (strings, numbers, tuples, lists and
    # dicts of these, and the record and document NamedTuples), so reference
    # counting frees it all. The cyclic collector would only walk it: a
    # NamedTuple is a tuple subclass, which stays tracked, so each full
    # collection visits every document kept so far.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _ingest(cfg, ws)
    finally:
        if enabled:
            gc.enable()


def _ingest(cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    from collabmap import network
    from collabmap.corpus import filtering

    if not cfg.inputs:
        raise ConfigError("no input files given")
    # the file name keys the input's digest and seeds its synthesized record ids
    names: set[str] = set()
    for path_str in cfg.inputs:
        if not Path(path_str).is_file():
            raise ConfigError(f"input file not found: {path_str}")
        name = Path(path_str).name
        if name in names:
            raise ConfigError(f"two inputs share the file name {name!r}")
        names.add(name)
    all_issues: list[dict] = []
    documents, report = filtering.filter_documents(
        _input_records(cfg, ws, all_issues), cfg.registry, cfg.type_synonyms
    )
    net = network.build_coauth_network(documents)
    network_text = network.network_json(net)
    ws.keep_network(network_text, net)
    return {
        "documents.jsonl": documents_jsonl(documents),
        "filter-report.json": _json_artifact(report.as_dict()),
        "parse-issues.json": _json_artifact(all_issues),
        "network.json": network_text,
    }


def _input_records(cfg: RunConfig, ws: Workspace, all_issues: list[dict]) -> Iterator[records.RawRecord]:
    """The records of every input in turn, each read to its end before the
    next; each file's issues are added to ``all_issues`` once it is read,
    or its first is raised in strict mode. A record id that an earlier
    input holds is raised once every input is read, so a strict issue in a
    later input is raised first."""
    from collabmap.corpus import records

    seen: set[str] = set()
    repeated: list[str] = []
    for path_str in cfg.inputs:
        path = Path(path_str)
        issues: list[records.ParseIssue] = []
        try:
            for rec in records.iter_records(ws.input_chunks(path), issues, cfg.input_format, path.name):
                if rec.record_id in seen:
                    repeated.append(rec.record_id)
                seen.add(rec.record_id)
                yield rec
        except UnicodeDecodeError as exc:
            raise DataError(f"input file is not UTF-8 text: {path}: {exc}") from exc
        if cfg.strict and issues:
            raise ParseError(path.name, issues[0].line_no, issues[0].message)
        all_issues.extend({"file": path.name, "line_no": i.line_no, "message": i.message} for i in issues)
    if repeated:
        raise DataError(f"duplicate record id across inputs: {repeated[0]!r}")


def stage_summary(cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    from collabmap import counting
    from collabmap.corpus import filtering

    net = ws.network()
    tallies = _read_intermediate(
        ws, "filter-report.json", filtering.FilterReport._fields, per_type=_type_tally,
        **_counts(filtering.FilterReport._fields),
    )
    _check_tallies("filter-report.json", tallies, "n_retained")
    report = filtering.FilterReport(**tallies)
    # the filter counts each record once: retained, dropped by type or dropped for no address
    if report.n_retained + report.n_dropped_type + report.n_dropped_no_address != report.n_records:
        raise DataError(f"filter-report.json: n_records ({report.n_records}) is not the sum of "
                        "n_retained, n_dropped_type and n_dropped_no_address")
    # each retained document's fractional credits sum to exactly 1
    if report.n_retained != sum(info.fractional_papers for info in net.nodes.values()):
        raise DataError(
            "filter-report.json: its tallies and network.json describe different corpora; run ingest again"
        )
    return {
        "summary.json": _json_artifact(counting.summary_dict(counting.summarize(report, net))),
        "counts.csv": counting.counts_csv(net, cfg.registry),
    }


def stage_net(cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    from collabmap import counting, network

    full = ws.network()
    net = _restrict_network(cfg, full)

    files = {"network/edges.csv": network.cooccurrence_triples_csv(net.edges)}
    node_lines = ["country,integer_papers,fractional_papers,degree"]
    for country in net.countries():
        info = net.nodes[country]
        node_lines.append(
            f"{country},{info.integer_papers},{counting.format_fixed(info.fractional_papers)},"
            f"{net.degree(country)}"
        )
    files["network/nodes.csv"] = "\n".join(node_lines) + "\n"
    # cosine over every country, whatever the country list keeps
    cosine = network.cosine_similarity(full)
    files["network/cosine.csv"] = network.similarity_triples_csv(cosine)
    if cfg.square_matrices:
        files["network/cooccurrence-square.csv"] = network.cooccurrence_square_csv(net)
        files["network/cosine-square.csv"] = network.similarity_square_csv(cosine)

    sub = network.threshold_network(
        net, cfg.min_node_fractional, cfg.min_edge_weight, comparator=cfg.comparator
    )
    files.update(_subnetwork_files(ws, "thresholded", sub, cfg, _size_attr(cfg, "net")))
    return files


def stage_geo(cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    from collabmap import network
    from collabmap.exports import geo as geo_export

    sub = network.threshold_network(
        _restrict_network(cfg, ws.network()), cfg.min_node_fractional, cfg.min_edge_weight,
        comparator=cfg.comparator,
    )
    doc, nodes, links = geo_export.export_geo(
        sub, cfg.registry, cfg.size_min, cfg.size_scale, cfg.great_circle
    )
    return {"geo/map.geojson": doc, "geo/nodes.csv": nodes, "geo/links.csv": links}


def stage_core(cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    from collabmap import network

    if cfg.core_k is None:
        raise ConfigError("core stage needs --core-k")
    sub = network.extract_core(_restrict_network(cfg, ws.network()), cfg.core_min_edge_weight, cfg.core_k)
    return _subnetwork_files(ws, "core", sub, cfg, _size_attr(cfg, "core"))


def stage_ego(cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    from collabmap import network
    from collabmap.exports import report as report_export

    if not cfg.ego_focus:
        raise ConfigError("ego stage needs --focus")
    net = ws.network()
    focus = cfg.ego_focus.strip().upper()
    sub = network.ego_network(
        _restrict_network(cfg, net), focus, min_edge_weight=cfg.ego_min_edge_weight,
        include_alter_ties=cfg.ego_alter_ties,
    )
    prefix = f"ego/{focus}"
    files = _subnetwork_files(ws, prefix, sub, cfg, _size_attr(cfg, "ego"))
    files[f"{prefix}/focus.json"] = _json_artifact(report_export.focus_stats(focus, net))
    return files


def stage_export(cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    from collabmap import counting, network
    from collabmap.exports import report as report_export

    # every count, named n_..., goes into report.json as it is read
    summary = _read_intermediate(
        ws, "summary.json", counting.CorpusSummary._fields, per_type=_type_tally,
        **_counts(counting.CorpusSummary._fields),
    )
    _check_tallies("summary.json", summary, "n_documents")
    if summary["n_documents"] > summary["n_records"]:
        raise DataError(f"summary.json: n_documents ({summary['n_documents']}) "
                        f"is above n_records ({summary['n_records']})")
    for share, count, total in (("share_international_docs", "n_international_docs", "n_documents"),
                                ("share_addresses_international", "n_addresses_international",
                                 "n_addresses_total")):
        # summary writes each share as its two counts, which report.json restates
        if summary[share] != f"{summary[count]}/{summary[total]}" or not summary[total]:
            raise DataError(f"summary.json: {share} is {summary[share]!r}, "
                            f"not {count}/{total} over a positive {total}")
        summary[share] = Fraction(summary[count], summary[total])
    stats = _read_intermediate(
        ws, "thresholded/stats.json", network.NetworkStats._fields,
        **{**dict.fromkeys(network.NetworkStats._fields, _count), "degree_histogram": _histogram},
    )
    histogram = stats["degree_histogram"]
    # the histogram counts each node once by its degree, and each edge has two ends
    if (sum(histogram.values()) != stats["n_nodes"]
            or sum(degree * count for degree, count in histogram.items()) != 2 * stats["n_edges"]
            or stats["n_connected_nodes"] != stats["n_nodes"] - histogram.get(0, 0)
            or not stats["n_edges"] <= stats["n_parent_links"] <= stats["possible_links"]):
        raise DataError("thresholded/stats.json: its counts contradict its degree_histogram or each other")
    focus = None
    if cfg.ego_focus:
        country = cfg.ego_focus.strip().upper()
        focus_path = f"ego/{country}/focus.json"
        read = _read_intermediate(
            ws, focus_path, report_export.FOCUS_FIELDS,
            integer_papers=_count, fractional_papers=network.positive_ratio,
        )
        focus = report_export.focus_dict(country, read["integer_papers"], read["fractional_papers"])
        # the country and both displays follow from the focus and its two counts
        for key in ("country", "fractional_papers_display", "mean_coauthorship_ratio"):
            if read[key] != focus[key]:
                raise DataError(f"{focus_path}: {key} is {read[key]!r}, not {focus[key]!r}")
    report = report_export.export_report(
        counting.CorpusSummary(**summary), network.NetworkStats(**stats), focus
    )
    return {"report.json": report}


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "summary": stage_summary,
    "net": stage_net,
    "geo": stage_geo,
    "core": stage_core,
    "ego": stage_ego,
    "export": stage_export,
}


def run_pipeline(cfg: RunConfig, ws: Workspace) -> None:
    stages = ["ingest", "summary", "net", "geo"]
    if cfg.core_k is not None:
        stages.append("core")
    if cfg.ego_focus:
        stages.append("ego")
    stages.append("export")
    # one batch, which also deletes what an earlier run left and this one does not remake
    ws.commit(stages, cfg, fresh=True)


def _run_stage(stage: str, cfg: RunConfig, ws: Workspace) -> None:
    ws.commit([stage], cfg)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "ingest": "parse and filter records",
    "summary": "corpus summary and counts",
    "net": "build, threshold, and lay out the network",
    "geo": "geographic map exports",
    "core": "extract the network core",
    "ego": "extract an ego network",
    "export": "write the combined report",
    "run": "full pipeline",
}


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags of the options the command consumes; run takes them all."""
    # Flag defaults stay None so a config file value is only overridden when
    # the flag is actually given; the effective defaults live on RunConfig.
    for opt in OPTIONS:
        if opt.flag is None or (command != "run" and command not in opt.stages):
            continue
        if opt.parse is _switch:
            parser.add_argument(opt.flag, dest=opt.name, action="store_const",
                                const=not opt.default, help=opt.help)
        else:
            parser.add_argument(opt.flag, dest=opt.name, nargs="+" if opt.parse is _texts else None,
                                choices=opt.choices or None, help=opt.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collabmap",
        description="Country co-authorship networks and collaboration maps",
    )
    parser.add_argument("--config", help="JSON file with RunConfig fields (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--docs", type=int, default=200)
    p_synth.add_argument("--countries", type=int, default=20)
    p_synth.add_argument("--intl-prob", type=float, default=0.3)
    p_synth.add_argument("--seed", type=int, default=42)
    _add_options(p_synth, "synth")

    common_ws = argparse.ArgumentParser(add_help=False)
    common_ws.add_argument("--workspace", required=True, help="artifact directory")
    for command, help_text in _COMMANDS.items():
        _add_options(sub.add_parser(command, parents=[common_ws], help=help_text), command)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by the flags given."""
    cfg = RunConfig()
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not JSON: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, raw in base.items():
            if key not in _OPTION_BY_NAME:
                raise ConfigError(f"unknown config field: {key!r}")
            setattr(cfg, key, _OPTION_BY_NAME[key].coerce(raw))
    for opt in OPTIONS:
        raw = getattr(args, opt.name, None)
        if raw is not None:
            setattr(cfg, opt.name, opt.coerce(raw))
    if cfg.include_countries and cfg.exclude_countries:
        raise ConfigError("give an include list or an exclude list, not both")
    return cfg


def _check_output_path(label: str, path: Path, directory: bool) -> None:
    """Refuse, before any work, an output path that exists as the wrong kind
    (a directory where a file is written, or the reverse), or whose nearest
    existing ancestor is not a directory, below which nothing can be made."""
    if path.exists() and path.is_dir() != directory:
        raise ConfigError(f"{label} is {'not ' if directory else ''}a directory: {path}")
    for ancestor in path.parents:
        if ancestor.exists():
            if not ancestor.is_dir():
                raise ConfigError(f"{label} {path} runs through {ancestor}, which is not a directory")
            break


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"collabmap: warning: {message}", file=sys.stderr)
        try:
            cfg = config_from_args(args)
            if args.command == "synth":
                from collabmap import synth

                out = Path(args.out)
                _check_output_path("synth --out", out, directory=False)
                try:
                    text = synth.generate_corpus_text(
                        cfg.registry,
                        n_docs=args.docs,
                        n_countries=args.countries,
                        intl_prob=args.intl_prob,
                        seed=args.seed,
                    )
                except ValueError as exc:
                    raise ConfigError(f"synth: {exc}") from exc
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(text, encoding="utf-8", newline="\n")
                return EXIT_OK
            root = Path(args.workspace)
            _check_output_path("workspace", root, directory=True)
            ws = Workspace(root)
            if args.command == "run":
                run_pipeline(cfg, ws)
            else:
                _run_stage(args.command, cfg, ws)
            return EXIT_OK
        except ParseError as exc:
            print(f"collabmap: parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except ConfigError as exc:
            print(f"collabmap: configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except CollabmapError as exc:
            print(f"collabmap: error: {exc}", file=sys.stderr)
            return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
