"""Helper processes and the results-file reader: the fan-out that
`campaign_blocks` runs its blocks through, and the reader of `report`'s
inputs, which parses in a helper while this process checks every record.

Imported only by `report`, a campaign with helpers and `run_campaign`, so
that no other command compiles it or loads `multiprocessing`.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import count, islice, repeat
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

from . import campaign
from .campaign import TrialRecord


def _helper(reader, writer, produce: Callable[..., Iterable], *args: Any) -> None:
    """A helper process: send each item of produce(*args) down `writer`,
    then None, or the error that stopped it.

    A forked helper closes `reader`, the inherited reading end, first: a
    send fails with EPIPE only once no process holds that end.
    """
    reader.close()
    # Ctrl-C and a hangup reach the whole process group; the main process
    # alone answers them. SIGTERM, which `terminate` sends, keeps its default.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGHUP, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        try:
            for item in produce(*args):
                writer.send(item)
            writer.send(None)
        except Exception as exc:
            writer.send(exc)
    except BrokenPipeError:
        pass  # the main process has stopped reading


# Bytes a helper's pipe holds, where the platform lets a pipe be widened.
_PIPE_BYTES = 1 << 20


def fan_out(here: Iterator | None, sources: list[tuple], lost: Callable[[int], str]) -> Iterator:
    """Item i from stream i mod S, up to the end of the stream whose turn
    it is: `here` (None for none), then one helper process per source
    (produce, *args).

    A helper waits on its full pipe, so memory does not grow with the
    items. A helper's exception is raised here; one that dies before
    sending item i raises OSError naming its exit code and `lost(i)`.
    The end, or closing the generator, stops every helper.
    """
    if sources:
        import multiprocessing  # ~15 ms, paid only where a helper starts
    helpers = []
    try:
        for source in sources:
            reader, writer = multiprocessing.Pipe(duplex=False)
            try:
                import fcntl

                fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except (ImportError, AttributeError, OSError):
                pass  # not Linux, or above this user's pipe limit
            helper = multiprocessing.Process(
                target=_helper, args=(reader, writer, *source), daemon=True
            )
            helper.start()
            helpers.append((helper, reader))
            # Only the helper may hold the writing end, so its exit ends the pipe.
            writer.close()
        streams = ([here] if here is not None else []) + helpers
        for i in count():
            stream = streams[i % len(streams)]
            if stream is here:
                item = next(here, None)
            else:
                helper, reader = stream
                try:
                    item = reader.recv()
                except EOFError:
                    helper.join()
                    raise OSError(
                        f"helper process exited with code {helper.exitcode} before sending {lost(i)}"
                    ) from None
                if isinstance(item, Exception):
                    raise item
            if item is None:
                return
            yield item
    finally:
        for helper, reader in helpers:
            helper.terminate()
            helper.join()
            reader.close()


# json.loads less its per-call type and BOM checks: the reader strips the
# line first, and a BOM is no JSON value either way.
_decode_json = json.JSONDecoder().raw_decode


def record_from_json_line(line: str | bytes) -> TrialRecord:
    """The record of one results-file line, with or without its line end.

    Bytes are decoded here, so a line that is not UTF-8 fails like any
    other malformed or blank line: with ValueError, KeyError or TypeError,
    as `TrialRecord.from_json_dict`. The stripped line must hold exactly
    one JSON value, as `json.loads` requires. This is the reference reader
    of a line: `decode_chunk` reads a chunk through it whenever the chunk
    cannot be decoded whole, and so wherever a line is bad.
    """
    text = (line.decode("utf-8") if isinstance(line, bytes) else line).strip()
    data, end = _decode_json(text)
    if end != len(text):
        raise ValueError("results line holds more than one JSON value")
    return TrialRecord.from_json_dict(data)


# What a results-file line may fail with; a line nested too deeply for the
# JSON decoder raises RecursionError.
_LINE_ERRORS = (ValueError, KeyError, TypeError, RecursionError)
# Bytes `read_chunks` reads at a time.
_CHUNK_BYTES = 1 << 16


class BadLine(ValueError):
    """Line `index` (from 0) of a chunk, or of the file `path` when one is
    given, is no record; the reader's error is the cause."""

    def __init__(self, index: int, path: str | None = None) -> None:
        super().__init__(f"line {index} of {'the chunk' if path is None else path} is no record")
        self.index = index
        self.path = path


def read_chunks(handle: BinaryIO) -> Iterator[bytes]:
    """A binary file's bytes in chunks of whole lines, read `_CHUNK_BYTES` at a time.

    Each chunk ends just after a line end, except a last line that has
    none; a line longer than a read spans reads until its end.
    """
    pending: list[bytes] = []
    while block := handle.read(_CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            pending.append(block[:cut])
            yield b"".join(pending)
            pending = [block[cut:]]
        else:
            pending.append(block)
    if rest := b"".join(pending):
        yield rest


def decode_chunk(chunk: bytes) -> list[TrialRecord]:
    r"""The records of a chunk of whole results-file lines, in line order.

    A UTF-8 chunk of n lines (what follows a last line end is no line) is
    decoded by one JSON call, as the list "[[" + line 0 + "],\n[" + ... +
    line n - 1 + "]]": the chunk with its last line end cut off and every
    other line end made "],\n[". That list is taken only when the chunk's
    lines hold exactly n "[" in all, the call reads the whole text, and it
    gives n elements, each a list of one item that
    `TrialRecord.from_json_dict` accepts. Then each line alone would give
    the same record:

    * A "[" outside a string always opens a list, and an accepted record
      holds at least one list, its `failed_z`, which holds ints only. The
      outer list, its n elements and their n `failed_z` are 2n + 1 lists,
      and the text holds 2n + 1 "[": n + 1 added and n in the lines. So
      every "[" opens one of those lists: no list hides under an extra or
      a duplicate key, and no "[" sits inside a string.
    * The second "[" of the text opens element 0. Each later added "["
      follows "],\n", and a strict decoder takes no raw line end inside a
      string, so that "," is structural. A `failed_z` follows a ":", so
      that "[" opens an element, and the "]" before the "," closes the
      element before.
    * So the n added "[" after the first open the n elements, and element
      i is exactly "[" + line i + "]". A line is then the record's JSON
      text between JSON whitespace, which `str.strip` removes, so
      `record_from_json_line` reads the same object from it and builds the
      same record.

    Should the checks refuse a row of a list so taken, the line reader
    fails on a line of the chunk. Suppose it accepted every line. The call
    read the whole text, so every line end, and each added "],\n[", lies
    outside any string, and what `str.strip` takes off a line is JSON
    whitespace. The rows are then the lines' own values, and none is refused.

    Any other chunk, or one whose whole decode fails, is read line by line
    by `record_from_json_line`. Its lines are split as bytes, so in a chunk
    that is not UTF-8 only the bad line fails. On a bad line, raises `BadLine` with
    the first bad line's index, and the line reader's error as its cause.
    """
    rows = _parse_chunk(chunk)
    records = None if rows is None else _checked_rows(rows)
    return _decode_lines(chunk.split(b"\n")) if records is None else records


def _parse_chunk(chunk: bytes) -> list | None:
    """The parse half of `decode_chunk`: the JSON value of each line of the
    chunk, read by its one JSON call, or None where its guard takes no call."""
    try:
        text = chunk.decode("utf-8")
    except UnicodeDecodeError:
        return None
    body = text[:-1] if text.endswith("\n") else text
    lines = body.count("\n") + 1
    if body.count("[") != lines:
        return None
    whole = "[[" + body.replace("\n", "],\n[") + "]]"
    try:
        rows, end = _decode_json(whole)
        # A row that is no list of one item fails to unpack; one that holds a
        # string, `from_json_dict` refuses.
        if end == len(whole) and len(rows) == lines:
            return [value for (value,) in rows]
    except _LINE_ERRORS:
        pass
    return None


def _checked_rows(rows: list) -> list[TrialRecord] | None:
    """The records of a chunk's parsed rows, or None if the load checks refuse one."""
    # Read at call time, so a wrapper patched onto the method sees each call.
    decode = TrialRecord.from_json_dict
    try:
        return [decode(row) for row in rows]
    except _LINE_ERRORS:
        return None


def _decode_lines(lines: list[bytes]) -> list[TrialRecord]:
    """The records of a chunk's lines, read one by one; the last is dropped
    when empty, being what follows the chunk's last line end."""
    if not lines[-1]:
        lines.pop()
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(record_from_json_line(line))
        except _LINE_ERRORS as exc:
            raise BadLine(index) from exc
    return records


def _file_chunks(paths: Sequence[str]) -> Iterator[tuple[int, bytes]]:
    """(k, chunk) for each chunk of each file paths[k]."""
    for k, path in enumerate(paths):
        with open(path, "rb") as handle:
            yield from zip(repeat(k), read_chunks(handle))


def _parsed_chunks(paths: Sequence[str]) -> Iterator[tuple[int, list | bytes]]:
    """The helper's half of `decode_inputs`: (k, a chunk's JSON values), or
    (k, the chunk) where `_parse_chunk` takes no call."""
    for k, chunk in _file_chunks(paths):
        rows = _parse_chunk(chunk)
        yield k, chunk if rows is None else rows


# Inputs of more bytes than this in all are parsed in a helper process; and
# of more than the second while this process has yet to load
# `multiprocessing`, whose import the helper would pay too.
_PARSE_HELPER_BYTES = 1 << 20
_PARSE_HELPER_BYTES_COLD = 16 << 20


def _parse_in_helper(paths: Sequence[str]) -> bool:
    """Whether the paths are regular files of more than the limit in all,
    and two CPUs are usable; a failed stat is no regular file."""
    if not all(map(os.path.isfile, paths)):
        return False
    limit = _PARSE_HELPER_BYTES if "multiprocessing" in sys.modules else _PARSE_HELPER_BYTES_COLD
    return sum(map(os.path.getsize, paths)) > limit and campaign._usable_cpus() > 1


def decode_inputs(paths: Sequence[str]) -> Iterator[list[TrialRecord]]:
    """The records of each chunk of the files, as `decode_chunk` decodes it.

    Where `_parse_in_helper` holds, a helper makes each chunk's JSON call
    and this process runs the load checks on what it sends. Should they
    refuse a row, that chunk alone is read again from its file, and
    `decode_chunk` names its bad line. A bad line raises `BadLine` naming
    its file and its line in that file (from 0). A chunk read again that
    decodes, or is gone, shows the file changed between the reads, and
    raises OSError naming it.
    """
    if _parse_in_helper(paths):
        sent = fan_out(None, [(_parsed_chunks, paths)], "input chunk {}".format)
    else:
        sent = _file_chunks(paths)
    file = chunks = lines = 0  # the file being read, and its chunks and lines taken in
    try:
        for k, payload in sent:
            if k != file:
                file, chunks, lines = k, 0, 0
            parsed = type(payload) is not bytes
            records = _checked_rows(payload) if parsed else None
            if records is None:
                if parsed:
                    # Only a regular file comes through the helper, so it can be read twice.
                    with open(paths[k], "rb") as handle:
                        payload = next(islice(read_chunks(handle), chunks, None), b"")
                try:
                    records = decode_chunk(payload)
                except BadLine as exc:
                    raise BadLine(lines + exc.index, paths[k]) from exc.__cause__
                if parsed:  # the same bytes would raise BadLine, as `decode_chunk` shows
                    raise OSError(f"{paths[k]} changed while it was read")
            chunks += 1
            lines += len(records)
            yield records
    finally:
        sent.close()
