"""Helper processes: the fan-out that `campaign_blocks` runs its blocks
through, and `report`'s input decode, which parses in a helper while this
process checks every record.

Imported only by the commands that use it, so that no other command
compiles it or loads `multiprocessing`.
"""

from __future__ import annotations

import os
import sys
from itertools import count, islice, repeat
from stat import S_ISREG
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import campaign
from .campaign import _LINE_ERRORS, BadLine, TrialRecord, _parse_chunk, decode_chunk, read_chunks


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


def _file_chunks(paths: Sequence[str], first: int = 0, skip: int = 0) -> Iterator[tuple[int, bytes]]:
    """(k, chunk) for each chunk of each file paths[k] from k = `first` on,
    less the first `skip` chunks of that file."""
    for k in range(first, len(paths)):
        with open(paths[k], "rb") as handle:
            yield from zip(repeat(k), islice(read_chunks(handle), skip, None))
        skip = 0


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
    size = 0
    for path in paths:
        try:
            info = os.stat(path)
        except OSError:
            return False
        if not S_ISREG(info.st_mode):
            return False
        size += info.st_size
    limit = _PARSE_HELPER_BYTES if "multiprocessing" in sys.modules else _PARSE_HELPER_BYTES_COLD
    return size > limit and campaign._usable_cpus() > 1


def decode_inputs(paths: Sequence[str]) -> Iterator[list[TrialRecord]]:
    """The records of each chunk of the files, as `decode_chunk` decodes it.

    Where `_parse_in_helper` holds, a helper makes each chunk's JSON call
    and this process runs the load checks on what it sends. A refused
    value stops the helper, and that file is read again here from its
    chunk on. A bad line raises `BadLine` naming its file and its line in
    that file (from 0).
    """
    if _parse_in_helper(paths):
        sent = fan_out(None, [(_parsed_chunks, paths)], "input chunk {}".format)
    else:
        sent = _file_chunks(paths)
    file = chunks = lines = 0  # the file being read, and its chunks and lines taken in
    while True:
        try:
            for k, payload in sent:
                if k != file:
                    file, chunks, lines = k, 0, 0
                if type(payload) is not bytes:
                    # Read at call time, so a wrapper patched onto the method sees each call.
                    decode = TrialRecord.from_json_dict
                    try:
                        records = [decode(row) for row in payload]
                    except _LINE_ERRORS:
                        break
                else:
                    try:
                        records = decode_chunk(payload)
                    except BadLine as exc:
                        raise BadLine(lines + exc.index, paths[k]) from exc.__cause__
                chunks += 1
                lines += len(records)
                yield records
            else:
                return
        finally:
            sent.close()
        sent = _file_chunks(paths, file, chunks)
