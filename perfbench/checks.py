"""Output checks computed apart from the program under test.

Nothing here imports ``tracemock``: the reference alignment, the message
parser and the expected operation of each generator label are written
out again, so a fault in the program cannot hide in its own check.
"""

from collections import Counter

# Generator label -> the ``op`` value of a correct response.
RESPONSE_OP = {"search": "SearchRsp", "add": "AddRsp", "delete": "DeleteRsp",
               "update": "UpdateRsp", "lookup": "LookupRsp"}


def nw_score(a: bytes, b: bytes, match: int = 1, mismatch: int = -1,
             gap: int = -1) -> int:
    """Textbook O(|a||b|) Needleman-Wunsch score with a linear gap cost."""
    prev = [j * gap for j in range(len(b) + 1)]
    for i, x in enumerate(a, 1):
        cur = [i * gap]
        for j, y in enumerate(b, 1):
            cur.append(max(prev[j - 1] + (match if x == y else mismatch),
                           prev[j] + gap, cur[j - 1] + gap))
        prev = cur
    return prev[-1]


def nw_distance(a: bytes, b: bytes) -> float:
    """1 - score / max(|a|, |b|) under the default scoring, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - nw_score(a, b) / max(len(a), len(b))))


def parse_message(data: bytes) -> dict[str, str] | None:
    """Fields of a ``{key:value,...}`` directory message; None if malformed."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return None
    if len(text) < 2 or text[0] != "{" or text[-1] != "}":
        return None
    fields = {}
    for part in text[1:-1].split(","):
        key, sep, value = part.partition(":")
        if not sep or not key or "{" in part or "}" in part:
            return None
        fields.setdefault(key, value)
    return fields


def reply_fault(request: bytes, label: str, reply: bytes | None) -> str | None:
    """Why an emulated reply is wrong, or None when it is right.

    A right reply parses, carries the response operation of the request's
    generator label and echoes the request's ``id``.  Other payload fields
    are not checked.
    """
    if reply is None:
        return "missing"
    fields = parse_message(reply)
    if fields is None or "op" not in fields:
        return "unparsable"
    if fields["op"] != RESPONSE_OP[label]:
        return "wrong-operation"
    if fields.get("id") != parse_message(request)["id"]:
        return "wrong-id"
    return None


def cluster_faults(members: list[list[int]], label_of: dict[int, str]) -> list[str]:
    """Each cluster must hold one generator label, and together all of them."""
    faults = []
    seen = set()
    for cid, group in enumerate(members):
        labels = {label_of[i] for i in group}
        if len(labels) != 1:
            faults.append(f"cluster {cid} mixes {sorted(labels)}")
        seen |= labels
    if seen != set(label_of.values()):
        faults.append(f"clusters cover {sorted(seen)}")
    return faults


def trace_faults(sent: list[tuple[bytes, bytes]],
                 recorded: list[tuple[int, bytes, bytes]]) -> tuple[int, int, int]:
    """(missing pairs, extra pairs, repeated indices) of a recorded trace.

    The trace must hold exactly the (request, response) pairs sent, each as
    often as it was sent, under unique indices.
    """
    want = Counter(sent)
    got = Counter((req, rsp) for _, req, rsp in recorded)
    indices = [index for index, _, _ in recorded]
    return (sum((want - got).values()), sum((got - want).values()),
            len(indices) - len(set(indices)))
