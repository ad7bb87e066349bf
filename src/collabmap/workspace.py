"""The workspace contract: the artifact directory, its manifest and the one
rule for where an artifact may be written, deleted or listed.

A Workspace reads ``run-manifest.json`` before a command's first stage
computes, vouches for each workspace file a stage reads from disk by its
chain of producers, records the sha256 of everything a stage reads, and
writes a command's batch in one ``write_files`` call that leaves every file
as it was if any step fails. It imports no stage and no corpus, network or
layout module, so a process that only checks a workspace loads none of them.
It also holds what the readers of the JSON intermediates share: the
exact-keys check, the count and tally parsers and the check of the tallies
of the retained documents.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import stat
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Callable

from collabmap.errors import ConfigError, DataError

if TYPE_CHECKING:
    from collections.abc import Iterator

MANIFEST_NAME = "run-manifest.json"

# the bytes of an input file read at once
READ_SIZE = 64 * 1024


class Workspace:
    """The artifact directory that stages read from and write_files writes to."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.record: dict = {"stages": {}}  # run-manifest.json, once read_record() has read it
        # the running stage's reads: workspace path, or input file name -> sha256
        # of what was read; the commit records them in the stage's manifest entry
        self.inputs: dict[str, str] = {}
        # the files that the stages of the batch being computed made, by relative path
        self.batch: dict[str, str] = {}
        # the write rule with what it has resolved in the workspace, for the current batch
        self._rule = _WriteRule(self.root)

    def read_record(self) -> None:
        """Read run-manifest.json, or no stages if there is none, into ``record`` for a new batch under a
        new write rule: a DataError unless each entry holds config, inputs and artifacts, each under it."""
        self._rule, self.batch = _WriteRule(self.root), {}
        path, record = self.root / MANIFEST_NAME, {"stages": {}}
        if path.is_file():
            record = _json_object(MANIFEST_NAME, _utf8(MANIFEST_NAME, path.read_bytes()))
        stages = record.setdefault("stages", {})
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
                self._rule.check(where, relpath)
        self.record = record

    def write_files(self, files: dict[str, str], delete: list[str]) -> None:
        """Write each relative path's text to a temporary sibling, then move
        each file to delete and each existing target aside and the temporary
        into its place. If any step fails, put the originals back, remove
        the new files and the temporaries, and re-raise, so every file stays
        as it was. On success, remove the directories the deletions empty.
        Before anything is written, _WriteRule holds every deletion and
        every target to the one write rule, and refuses one that has a .tmp
        or .bak sibling, so nothing is written outside the workspace, no file
        is lost and the rollback removes only temporaries it wrote."""
        for relpath in [*delete, *files]:
            self._rule.check(f"workspace {self.root}", relpath, target=relpath in files)
            self._rule.check_siblings(relpath)
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

    def read_text(self, relpath: str, maker: str) -> str:
        """The text of a workspace file that the stage ``maker`` makes, from the batch if a
        stage in it made the file, else from disk once _check_current vouches for its bytes,
        decoded as UTF-8 with its line ends as they are; their sha256 is an input."""
        text = self.batch.get(relpath)
        if text is not None:
            self.inputs[relpath] = _sha256_text(text)
            return text
        path = self.root / relpath
        if not path.is_file():
            raise ConfigError(f"missing intermediate {relpath!r}; run the earlier stages first")
        data = path.read_bytes()
        self.inputs[relpath] = digest = hashlib.sha256(data).hexdigest()
        self._check_current(relpath, digest, maker)
        return _utf8(relpath, data)

    def _check_current(self, relpath: str, digest: str, maker: str) -> None:
        """Refuse a file read from disk that the record does not vouch for: the stage that
        lists it must list ``digest``, and every workspace file that stage read must still be
        what its own producer lists, and so on down to ingest, whose inputs are outside files.
        The DataError names the file and the stage to run again."""
        stages = self.record["stages"]
        producers = {path: stage for stage, entry in stages.items() for path in entry["artifacts"]}
        producer = producers.get(relpath)
        if producer is None or stages[producer]["artifacts"][relpath] != digest:
            raise DataError(f"{relpath}: not the file that {MANIFEST_NAME} lists; run {maker} again")
        pending, seen = [producer], {producer}
        while pending:
            stage = pending.pop()
            if stage == "ingest":
                continue
            for path, read in stages[stage]["inputs"].items():
                producer = producers.get(path)
                if producer is None or stages[producer]["artifacts"][path] != read:
                    raise DataError(f"{relpath}: {stage} made it from a {path} that {MANIFEST_NAME} "
                                    f"no longer lists; run {stage} again")
                if producer not in seen:
                    seen.add(producer)
                    pending.append(producer)

    def input_chunks(self, path: Path) -> Iterator[bytes]:
        """An input file's bytes, READ_SIZE at a time; once the last is
        read, the sha256 of them all is recorded under its file name."""
        digest = hashlib.sha256()
        with path.open("rb") as fh:
            while chunk := fh.read(READ_SIZE):
                digest.update(chunk)
                yield chunk
        self.inputs[path.name] = digest.hexdigest()


def _utf8(relpath: str, data: bytes) -> str:
    """The text of a workspace file's bytes, which are UTF-8 or a DataError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{relpath}: not UTF-8 text: {exc}") from exc


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


def _json_fields(relpath: str, text: str, fields: tuple[str, ...], **convert: Callable) -> dict:
    """The JSON object of ``relpath``'s text, whose keys are ``fields``, each
    one named in ``convert`` parsed back from its JSON form. Text that is not
    such an object is a DataError that names the file."""
    obj = _json_object(relpath, text)
    unknown, missing = sorted(obj.keys() - set(fields)), sorted(set(fields) - obj.keys())
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


def _tally(raw) -> dict[str, int]:
    """Counts by name read back from JSON: an object of positive ints."""
    if not isinstance(raw, dict) or not all(type(n) is int and n > 0 for n in raw.values()):
        raise ValueError(f"not an object of positive integers: {raw!r}")
    return raw


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


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_dumps(obj) -> str:
    """Canonical sorted-key JSON, used for the manifest."""
    return json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


class _WriteRule:
    """The one rule for an artifact path written, deleted or listed: relative
    to ``root``, with no empty, "." or ".." part, and led out by no symbolic
    link, nor through a loop of them, or a DataError; a ``target`` that is
    a directory, or lies below a file, is a ConfigError.

    It resolves the root once and each directory once, so it holds for one
    commit, whose files it checks before any is written. A file then costs
    one lstat; only a file that is itself a symbolic link is resolved."""

    def __init__(self, root: Path):
        self.root = root
        self._real_root: Path | None = None
        # directory, "" for the root -> no loop lies on it and it resolves inside the root
        self._inside: dict[str, bool] = {}
        # directory -> the ancestor of a file in it that is not a directory, if any
        self._file_above: dict[str, Path | None] = {}

    def check(self, where: str, relpath: str, target: bool = False) -> None:
        directory = relpath.rpartition("/")[0]
        path, mode = self.root / relpath, None
        inside = (all(part not in ("", ".", "..") for part in relpath.split("/"))
                  and self._directory_inside(directory))
        if inside:
            try:
                mode = path.lstat().st_mode
            except OSError:  # not there, or below a file
                pass
            if mode is not None and stat.S_ISLNK(mode):
                inside = self._resolves_inside(path)
        if not inside:
            raise DataError(f"{where}: artifact {relpath!r} is not a path inside the workspace")
        if target:
            if mode is not None and (stat.S_ISDIR(mode) or stat.S_ISLNK(mode) and path.is_dir()):
                raise ConfigError(f"artifact is a directory: {path}")
            if directory not in self._file_above:
                self._file_above[directory] = _file_above(path)
            above = self._file_above[directory]
            if above is not None:
                raise ConfigError(f"artifact {path} runs through {above}, which is not a directory")

    def check_siblings(self, relpath: str) -> None:
        """Refuse a path to write or delete that has a .tmp or .bak sibling: a
        symbolic link, which a write would follow, a directory, which no move
        replaces, or a file, which the write would destroy, though a killed
        commit's .bak holds the only copy of the file it replaced."""
        path = self.root / relpath
        for suffix in (".tmp", ".bak"):
            sibling = path.with_name(path.name + suffix)
            try:
                mode = sibling.lstat().st_mode
            except OSError:  # not there, or below a file
                continue
            kind = ("a symbolic link or a directory" if stat.S_ISLNK(mode) or stat.S_ISDIR(mode)
                    else "a file, perhaps left by a killed command")
            raise ConfigError(f"artifact {path} has a {suffix} sibling that is {kind}: {sibling}")

    def _directory_inside(self, directory: str) -> bool:
        inside = self._inside.get(directory)
        if inside is None:
            inside = self._inside[directory] = self._resolves_inside(self.root / directory)
        return inside

    def _resolves_inside(self, path: Path) -> bool:
        if _link_loop(path):
            return False
        if self._real_root is None:
            self._real_root = self.root.resolve()
        return path.resolve().is_relative_to(self._real_root)


def _link_loop(path: Path) -> bool:
    """Whether a loop of symbolic links lies on ``path``: resolve() raises
    RuntimeError for one before Python 3.13 and returns the loop after."""
    try:
        path.stat()
    except OSError as exc:
        return exc.errno == errno.ELOOP
    return False


def _check_output_path(label: str, path: Path, directory: bool) -> None:
    """Refuse, before any work, an output path through a loop of symbolic
    links, one that exists as the wrong kind (a directory where a file is
    written, or the reverse), or one whose nearest existing ancestor is not a directory."""
    if _link_loop(path):
        raise ConfigError(f"{label} {path} runs through a loop of symbolic links")
    if path.exists() and path.is_dir() != directory:
        raise ConfigError(f"{label} is {'not ' if directory else ''}a directory: {path}")
    above = _file_above(path)
    if above is not None:
        raise ConfigError(f"{label} {path} runs through {above}, which is not a directory")


def _file_above(path: Path) -> Path | None:
    """The nearest existing ancestor of ``path``, if it is not a directory."""
    for ancestor in path.parents:
        if ancestor.exists():
            return None if ancestor.is_dir() else ancestor
    return None
