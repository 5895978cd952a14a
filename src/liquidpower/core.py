"""Core data model: social networks, delegation profiles, forests, elections.

Voters are identified by 0-based integers internally.  The JSON interchange
format (see :func:`election_from_json`) is 1-based, matching the way instances
are usually written down by hand.

A delegation profile maps every voter either to ``SELF`` (the voter casts their
own ballot) or to another voter along an arc of the social network.  Profiles
must be acyclic; the transitive closure of an acyclic profile is a forest of
in-trees whose roots are the *gurus* — the voters who actually vote, each
wielding the accumulated weight of their whole subtree.

An election (:class:`LiquidElection`) is the delegative simple game
``<N, d, q>``: a network, positive integer weights, an acyclic profile and a
quota.  Every election carries its quota, and every way of building one
checks it, the instance document included.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Final, Iterable, Sequence

from .errors import (
    ArcNotInNetwork,
    CycleInDelegations,
    NonPositiveWeight,
    QuotaOutOfRange,
)

#: Sentinel delegation choice meaning "vote yourself".
SELF: Final = None

Choice = int | None


@dataclass(frozen=True)
class SocialNetwork:
    """A directed graph over voters; arcs are the permitted delegations.

    ``out_neighbors[i]`` lists, as plain ints, the voters that voter ``i``
    may delegate to, sorted ascending, duplicate-free, never containing
    ``i`` itself; a row that breaks this rule is refused with ``ValueError``,
    an entry that :func:`integer_field` refuses (numpy ints pass) with its
    ``TypeError``.
    """

    out_neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, read = len(self.out_neighbors), {}  # read: the rows stored anew
        for i, row in enumerate(self.out_neighbors):
            if not set(map(type, row)) <= {int}:
                read[i] = row = tuple(integer_field(j, f"voter {i}'s out-neighbour") for j in row)
            # strictly ascending rules out duplicates; the ends bound the rest
            if row and not (
                row[0] >= 0 and row[-1] < n and i not in row and all(map(operator.lt, row, row[1:]))
            ):
                raise ValueError(f"malformed out-neighbor list for voter {i}: {row}")
        if read:  # the non-int path
            rows = tuple(read.get(i, row) for i, row in enumerate(self.out_neighbors))
            object.__setattr__(self, "out_neighbors", rows)

    @property
    def n(self) -> int:
        return len(self.out_neighbors)

    def has_arc(self, source: int, target: int) -> bool:
        return target in self.out_neighbors[source]

    def arcs(self) -> Iterable[tuple[int, int]]:
        for i, row in enumerate(self.out_neighbors):
            for j in row:
                yield (i, j)

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "SocialNetwork":
        rows: list[set[int]] = [set() for _ in range(n)]
        for source, target in arcs:
            if type(source) is not int or type(target) is not int:
                source, target = integer_field(source, "arc source"), integer_field(target, "arc target")
            if not (0 <= source < n and 0 <= target < n):
                raise ValueError(f"arc ({source}, {target}) out of range for n={n}")
            rows[source].add(target)
        return cls(tuple(tuple(sorted(row)) for row in rows))

    @classmethod
    def complete(cls, n: int) -> "SocialNetwork":
        return cls(tuple(tuple(j for j in range(n) if j != i) for i in range(n)))


@dataclass(frozen=True)
class DelegationProfile:
    """One delegation choice per voter: ``SELF`` or the id delegated to, as
    :func:`voter_field` reads it, stored as a plain int (numpy ints pass; a
    bool, float or string raises ``TypeError``, an id out of range ``ValueError``)."""

    choices: tuple[Choice, ...]

    def __post_init__(self):
        n = len(self.choices)
        for c in self.choices:
            if c is not SELF and not (type(c) is int and 0 <= c < n):
                choices = tuple(
                    c if c is SELF else voter_field(c, n, f"voter {v}'s choice")
                    for v, c in enumerate(self.choices)
                )
                object.__setattr__(self, "choices", choices)
                return

    @property
    def n(self) -> int:
        return len(self.choices)

    def changed_voters(self, other: "DelegationProfile") -> tuple[int, ...]:
        """Voters whose choice differs between ``self`` and ``other``."""
        if self.n != other.n:
            raise ValueError("profiles have different sizes")
        return tuple(i for i in range(self.n) if self.choices[i] != other.choices[i])

    def sort_key(self) -> tuple[int, ...]:
        """Deterministic total order on profiles (SELF encoded as own id)."""
        return tuple(i if c is SELF else c for i, c in enumerate(self.choices))

    @classmethod
    def from_parents(cls, parents: Sequence[int]) -> "DelegationProfile":
        """Inverse of :meth:`sort_key`: a voter that is its own parent votes
        personally, every other voter delegates to its parent."""
        parents = cls(tuple(parents)).choices  # read first: 0.0 or False is refused, not SELF
        return cls(tuple(SELF if p == v else p for v, p in enumerate(parents)))

    @classmethod
    def all_self(cls, n: int) -> "DelegationProfile":
        return cls((SELF,) * n)


def first_cycle(starts: Iterable[int], step: Callable[[int], int | None]) -> list[int] | None:
    """The first cycle that the parent pointers ``step`` close, or None.

    Walks from each start in the given order, following ``step`` until it
    gives None or reaches a vertex walked before.  A walk that reaches its
    own trail has closed a cycle, returned from that vertex on, in walk order.
    """
    walked: dict[int, int] = {}  # vertex -> number of the walk that reached it
    for walk, v in enumerate(starts):
        while v is not None and v not in walked:
            walked[v] = walk
            v = step(v)
        if v is not None and walked[v] == walk:
            cycle = list(walked)  # in walk order: the cycle is the tail from v
            return cycle[cycle.index(v) :]
    return None


def find_delegation_cycle(choices: Sequence[Choice]) -> list[int] | None:
    """Return one delegation cycle as a list of voter ids, or None if acyclic.

    Reads ``choices`` as :class:`DelegationProfile` does, raising its errors.
    """
    choices = DelegationProfile(tuple(choices)).choices
    return first_cycle(range(len(choices)), choices.__getitem__)


@dataclass(frozen=True)
class DelegationForest:
    """The in-forest induced by an acyclic delegation profile.

    Stored, for each voter ``i``:

    * ``parent[i]`` — the voter ``i`` delegates to, or ``i`` itself when
      ``i`` votes personally;
    * ``guru[i]`` — the root of ``i``'s tree (the voter who casts ``i``'s vote);
    * ``subtree_size[i]`` / ``subtree_weight[i]`` — size and total weight of
      ``i``'s subtree, the voters whose chain passes through ``i``
      (including ``i``);
    * ``delegators[i]`` — direct delegators of ``i``, sorted ascending;
    * ``end[i]`` — one past ``i``'s position in ``order``.

    ``order`` lays every voter out in post-order, trees by ascending root
    id and children in ascending id, so voter ``i``'s subtree is the block
    ``order[end[i] - subtree_size[i] : end[i]]``.  ``gurus`` lists the roots
    in ascending order.

    Derived on demand: :meth:`chain_of` (the path from ``i`` up to
    ``guru[i]``, inclusive at both ends), :meth:`proxies_of` and
    :meth:`subtree_of` (sorted ascending); and, cached, ``acc_weight``
    (``subtree_weight[i]`` for a guru, else 0: delegating voters wield no
    weight of their own) and ``chain_mask``.
    """

    parent: tuple[int, ...]
    guru: tuple[int, ...]
    order: tuple[int, ...]
    end: tuple[int, ...]
    subtree_size: tuple[int, ...]
    subtree_weight: tuple[int, ...]
    delegators: tuple[tuple[int, ...], ...]
    gurus: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.guru)

    def chain_of(self, voter: int) -> tuple[int, ...]:
        """The delegation path from ``voter`` up to its guru, both included."""
        parent = self.parent
        chain = [voter]
        while parent[voter] != voter:
            voter = parent[voter]
            chain.append(voter)
        return tuple(chain)

    def proxies_of(self, voter: int) -> tuple[int, ...]:
        """The voters ``voter``'s ballot passes through: chain minus the voter."""
        return self.chain_of(voter)[1:]

    def subtree_of(self, voter: int) -> tuple[int, ...]:
        """The voters whose chain passes through ``voter``, sorted ascending."""
        end = self.end[voter]
        return tuple(sorted(self.order[end - self.subtree_size[voter] : end]))

    @cached_property
    def acc_weight(self) -> tuple[int, ...]:
        return tuple(
            w if g == v else 0 for v, (g, w) in enumerate(zip(self.guru, self.subtree_weight))
        )

    @cached_property
    def chain_mask(self) -> tuple[int, ...]:
        """Bitmask of each voter's chain; ``chain_mask[i] & C == chain_mask[i]``
        tests whether voter ``i`` is active in coalition mask ``C``."""
        parent = self.parent
        masks = [0] * self.n
        # parents come first; a guru is its own parent, whose entry is still 0
        for v in reversed(self.order):
            masks[v] = 1 << v | masks[parent[v]]
        return tuple(masks)


def build_forest(profile: DelegationProfile, weights: Sequence[int]) -> DelegationForest:
    """Resolve an acyclic profile into its delegation forest, in O(n).

    One depth-first walk down from the gurus lays the voters out; it reaches
    every voter exactly when the profile, whose choices are voter ids, is
    acyclic.  Raises :class:`CycleInDelegations`, naming a cycle, when it
    does not.
    """
    n = profile.n
    choices = profile.choices
    delegators: list[list[int]] = [[] for _ in range(n)]
    for v, c in enumerate(choices):
        if c is not SELF:
            delegators[c].append(v)
    gurus = [v for v, c in enumerate(choices) if c is SELF]
    # pre-order, trees and children visited in descending id: its reverse
    # is the post-order with trees and children in ascending id
    down = []
    stack = gurus.copy()
    while stack:
        u = stack.pop()
        down.append(u)
        stack += delegators[u]
    if len(down) < n:  # the voters never reached sit on a cycle or lead into one
        raise CycleInDelegations(find_delegation_cycle(choices))
    parent = profile.sort_key()
    guru = list(range(n))
    for v in down:
        guru[v] = guru[parent[v]]
    order = down[::-1]
    end = [0] * n
    size = [1] * n
    weight = list(weights)
    for p, v in enumerate(order):
        end[v] = p + 1
        if parent[v] != v:
            size[parent[v]] += size[v]
            weight[parent[v]] += weight[v]
    return DelegationForest(
        parent=parent,
        guru=tuple(guru),
        order=tuple(order),
        end=tuple(end),
        subtree_size=tuple(size),
        subtree_weight=tuple(weight),
        delegators=tuple(map(tuple, delegators)),
        gurus=tuple(gurus),
    )


@dataclass(frozen=True)
class LiquidElection:
    """A weighted election: network, positive weights, acyclic profile and
    an integer quota in ``[1, total]``.

    A coalition wins when the weight of its *active* members reaches the
    quota; a member is active when its entire delegation chain lies inside
    the coalition.  Checked when built, in order: sizes, weight positivity,
    every delegation follows a network arc, acyclicity, and the quota.
    Weights and quota are integers as :func:`integer_field` reads them
    (numpy ints pass) and are stored as plain ints.  The forest that proves
    acyclicity is kept as ``forest``, the gcd-reduced game as ``reduced``.
    """

    network: SocialNetwork
    weights: tuple[int, ...]
    profile: DelegationProfile
    quota: int
    forest: DelegationForest = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        network, given, profile = self.network, tuple(self.weights), self.profile
        n = network.n
        if len(given) != n or profile.n != n:
            raise ValueError(
                f"size mismatch: network has {n} voters, "
                f"{len(given)} weights, profile of size {profile.n}"
            )
        weights = tuple(map(_plain_int, given))
        for i, w in enumerate(weights):
            if w is None or w <= 0:
                raise NonPositiveWeight(
                    f"voter {i} has weight {given[i]!r}; weights must be positive integers"
                )
        for i, c in enumerate(profile.choices):
            if c is not SELF and not network.has_arc(i, c):
                raise ArcNotInNetwork(i, c)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "forest", build_forest(profile, weights))
        quota, total = _plain_int(self.quota), sum(weights)
        if quota is None:
            raise QuotaOutOfRange(f"quota must be an integer, got {self.quota!r}")
        if not 1 <= quota <= total:
            raise QuotaOutOfRange(f"quota {quota} outside [1, {total}]")
        object.__setattr__(self, "quota", quota)

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def n_voters(self) -> int:
        return self.n

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @cached_property
    def reduced(self) -> tuple[int, tuple[int, ...], int]:
        """``(g, weights // g, ceil(quota / g))``, ``g`` the weights' gcd.  A
        coalition weight is ``g * m`` for an integer ``m``, which reaches the
        quota exactly when ``m >= ceil(quota / g)``: the reduced game keeps
        every outcome, and a reduced weight sum times ``g`` is the true sum."""
        g = gcd(*self.weights)
        return g, tuple(w // g for w in self.weights), -(-self.quota // g)

    def with_profile(self, profile: DelegationProfile) -> "LiquidElection":
        """Same election under a different delegation profile (checked anew)."""
        return replace(self, profile=profile)

    def value_of(self, coalition_mask: int) -> int:
        """Characteristic value of the coalition given as a bitmask."""
        return 1 if self.coalition_weight_of_mask(coalition_mask) >= self.quota else 0

    def coalition_weight_of_mask(self, coalition_mask: int) -> int:
        chain_mask = self.forest.chain_mask
        weights = self.weights
        total = 0
        m = coalition_mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if chain_mask[v] & coalition_mask == chain_mask[v]:
                total += weights[v]
            m ^= low
        return total


def validate(
    network: SocialNetwork,
    weights: Sequence[int],
    profile: DelegationProfile,
    quota: int,
) -> LiquidElection:
    """Assemble an election from its pieces, which check themselves.

    Checks, in order: sizes, weight positivity, every delegation follows a
    network arc, acyclicity, and ``1 <= quota <= total``.
    """
    return LiquidElection(network, weights, profile, quota)


# --------------------------------------------------------------------------
# JSON interchange (1-based voter ids)
# --------------------------------------------------------------------------
#
# {
#   "n": 8,
#   "weights": [1, 1, 1, 1, 1, 1, 1, 1],
#   "arcs": [[1, 3], [2, 3], ...],         # [from, to]
#   "delegations": {"1": 3, "3": 3, ...},   # voter -> target; own id = SELF
#   "quota": 3
# }
#
# Omitted voters in "delegations" vote themselves.


def decimal_id(text) -> int | None:
    """The integer a canonical ASCII decimal string names, else None.

    ``int()`` also reads "1_0" as 10, and " +3 ", "03" and the full-width
    "３" as 3; none of them is a voter id in a document or on the command line.
    """
    if type(text) is str and text.isascii() and text.isdigit() and text == str(int(text)):
        return int(text)
    return None


def _plain_int(value) -> int | None:
    """``value`` as a plain int if ``operator.index`` takes it and it is no
    bool (numpy ints pass), else None: the one integer rule of elections
    and problem objects."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    return None


def integer_field(value, field: str) -> int:
    """``value`` as a plain int, for an integer field of a problem object.

    Anything :func:`_plain_int` takes passes; a bool, a float or a string
    raises ``TypeError`` naming ``field``.
    """
    result = _plain_int(value)
    if result is None:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return result


def voter_field(value, n: int, field: str) -> int:
    """``value`` as a voter index of an ``n``-voter election: an integer, as
    :func:`integer_field` takes it, in ``0..n-1``; else ``ValueError``."""
    voter = integer_field(value, field)
    if not 0 <= voter < n:
        raise ValueError(f"{field} {voter} out of range")
    return voter


def rational_field(value, field: str) -> Fraction:
    """``value`` as a :class:`Fraction`, for a rational field or argument.

    Anything ``Fraction`` takes passes (``"1/2"`` and floats included); a
    bool raises ``TypeError`` as a non-number does, naming ``field``.
    """
    refusal = f"{field} must be a rational number, got {value!r}"
    if isinstance(value, bool):
        raise TypeError(refusal)
    try:
        return Fraction(value)
    except TypeError:
        raise TypeError(refusal) from None
    except (ValueError, ArithmeticError):
        raise ValueError(refusal) from None


def election_from_json(doc: str | bytes | dict) -> LiquidElection:
    """Parse and validate an election from its JSON document (or parsed dict)."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    try:
        n = doc["n"]
        weights = doc["weights"]
        arcs = doc["arcs"]
        delegations = doc.get("delegations", {})
        quota = doc["quota"]
    except KeyError as exc:
        raise ValueError(f"instance document missing field {exc}") from None
    # ids are checked with ``type(x) is int``: isinstance takes JSON true for 1
    if type(n) is not int or n <= 0:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if not isinstance(weights, list) or len(weights) != n:
        raise ValueError("'weights' must be a list of length n")
    if not isinstance(delegations, dict):
        raise ValueError("'delegations' must be an object")
    if not isinstance(arcs, list) or any(
        not isinstance(arc, list) or list(map(type, arc)) != [int, int] for arc in arcs
    ):
        raise ValueError("'arcs' must hold pairs of integer voter ids")
    network = SocialNetwork.from_arcs(n, ((a - 1, b - 1) for a, b in arcs))
    choices: list[Choice] = [SELF] * n
    for key, target in delegations.items():
        voter = decimal_id(key)
        if voter is None:
            raise ValueError(f"delegation key {key!r} is not a voter id")
        if not (1 <= voter <= n) or type(target) is not int or not (1 <= target <= n):
            raise ValueError(f"bad delegation entry {key!r}: {target!r}")
        choices[voter - 1] = SELF if target == voter else target - 1
    return validate(network, tuple(weights), DelegationProfile(tuple(choices)), quota)


def election_to_json(election: LiquidElection) -> dict:
    """Serialize an election back to the (1-based) instance document."""
    return {
        "n": election.n,
        "weights": list(election.weights),
        "arcs": [[a + 1, b + 1] for a, b in election.network.arcs()],
        "delegations": profile_to_json(election.profile),
        "quota": election.quota,
    }


def profile_to_json(profile: DelegationProfile) -> dict[str, int]:
    """1-based mapping form of a profile; self-voters map to their own id."""
    return {
        str(i + 1): (i + 1 if c is SELF else c + 1)
        for i, c in enumerate(profile.choices)
    }


def instance_digest(election: LiquidElection) -> str:
    """Stable sha256 digest of the canonical instance document."""
    doc = election_to_json(election)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
