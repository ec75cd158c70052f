"""The compact canonical JSON encoding.

Every byte string this package hashes, checksums or byte-compares as
JSON goes through :func:`canonical_json`: the write-ahead journal's
records and their checksums, the fleet wire frames and submission keys,
the generation store's content addresses, and the OTA rollout reports
compared for byte identity.  One encoder means one definition of "the
same document": journals and generation stores written by any of those
paths stay readable by all of them.
"""

import json


def canonical_json(document: object) -> bytes:
    """``document`` as key-sorted, whitespace-free, ASCII-only JSON bytes.

    Non-ASCII text is ``\\u``-escaped, so equal documents always encode
    to equal bytes regardless of locale, and the output is valid ASCII
    and UTF-8 alike.
    """
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("ascii")
