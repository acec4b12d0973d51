"""Developer identity merging and firm affiliation resolution.

Affiliation is resolved with a strict precedence: bot exclusion, then
explicit per-email overrides, then email-domain rules, then the
"Unaffiliated" fallback. Alias groups declared in the config are folded so
one person is one node, whichever address they committed with.
"""

from __future__ import annotations

from typing import Collection, NamedTuple

from .ingest import CONTROL_RE, InputError, is_valid_email, normalize_email

UNAFFILIATED = "Unaffiliated"
BOT = "<bot>"

_SECTIONS = ("domains", "emails", "aliases", "bots")
_UNDECIDED = object()  # an address IdentityResolver has not yet decided


class AffiliationError(InputError):
    """Invalid affiliation config or unresolvable identity conflict."""


class AffiliationMap(NamedTuple):
    domain_rules: dict[str, str]
    email_overrides: dict[str, str]
    alias_groups: tuple[frozenset[str], ...]
    bot_emails: frozenset[str]


def load_affiliation_map(config: str) -> AffiliationMap:
    """Parse the INI-like affiliation config.

    Sections: [domains] and [emails] hold key=firm lines, [aliases] one
    comma-separated email group per line, [bots] one email per line.
    "#" starts a comment. Keys and emails are trimmed and lowercased by
    ``normalize_email``, as commit emails are, so the two always agree. A
    key, firm or email holding a C0 control character is refused, as
    ``is_valid_email`` refuses such an address: it could become a node id
    or firm that GraphML cannot hold.
    """
    domain_rules: dict[str, str] = {}
    email_overrides: dict[str, str] = {}
    alias_groups: list[frozenset[str]] = []
    aliased: set[str] = set()  # emails of every alias group so far
    bot_emails: set[str] = set()
    section = None
    # read_text has turned \r\n and \r into \n, so lines end as open() ends them
    for line_number, raw_line in enumerate(config.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise AffiliationError(f"line {line_number}: unknown section [{section}]")
            continue
        if section is None:
            raise AffiliationError(f"line {line_number}: content before any section")
        if section in ("domains", "emails"):
            key, sep, firm = line.partition("=")
            if not sep or not key.strip() or not firm.strip():
                raise AffiliationError(f"line {line_number}: expected key=firm")
            key, firm = normalize_email(key), firm.strip()
            _check_no_control(line_number, key, firm)
            rules = domain_rules if section == "domains" else email_overrides
            if key in rules and rules[key] != firm:
                raise AffiliationError(
                    f"line {line_number}: {key} mapped to both {rules[key]} and {firm}"
                )
            rules[key] = firm
        elif section == "aliases":
            emails = [normalize_email(e) for e in line.split(",") if e.strip()]
            _check_no_control(line_number, *emails)
            members = frozenset(emails)
            if len(members) < 2:
                raise AffiliationError(
                    f"line {line_number}: alias group needs at least two emails"
                )
            overlap = members & aliased
            if overlap:
                raise AffiliationError(
                    f"line {line_number}: {min(overlap)} appears in two alias groups"
                )
            alias_groups.append(members)
            aliased |= members
        else:
            _check_no_control(line_number, line)
            bot_emails.add(normalize_email(line))
    return AffiliationMap(
        domain_rules=domain_rules,
        email_overrides=email_overrides,
        alias_groups=tuple(alias_groups),
        bot_emails=frozenset(bot_emails),
    )


def _check_no_control(line_number: int, *texts: str) -> None:
    for text in texts:
        if CONTROL_RE.search(text):
            raise AffiliationError(f"line {line_number}: {text!r} holds a control character")


def resolve_affiliation(email: str, amap: AffiliationMap) -> str:
    """Resolve one lowercase email to a firm name.

    Precedence: bot exclusion > per-email override > domain rule >
    Unaffiliated. Returns the BOT marker for excluded addresses.
    """
    if email in amap.bot_emails:
        return BOT
    if email in amap.email_overrides:
        return amap.email_overrides[email]
    domain = email.rpartition("@")[2]
    if domain in amap.domain_rules:
        return amap.domain_rules[domain]
    return UNAFFILIATED


def _group_firm(group: Collection[str], amap: AffiliationMap) -> str:
    """Resolve a whole alias group to one firm.

    Overrides pin the group; without one, domain rules must agree
    (Unaffiliated members are not counted as a conflict).
    """
    overrides = {amap.email_overrides[e] for e in group if e in amap.email_overrides}
    if len(overrides) > 1:
        raise AffiliationError(
            f"alias group {sorted(group)} has conflicting overrides: {sorted(overrides)}"
        )
    if overrides:
        return next(iter(overrides))
    firms = {resolve_affiliation(e, amap) for e in group} - {UNAFFILIATED, BOT}
    if len(firms) > 1:
        raise AffiliationError(
            f"alias group {sorted(group)} resolves to multiple firms: {sorted(firms)}"
        )
    if firms:
        return next(iter(firms))
    return UNAFFILIATED


class IdentityResolver:
    """Resolves author emails to developers from the affiliation map alone.

    Bot commits are excluded. A missing or invalid email is excluded unless
    an explicit override exists for that address. A developer is a number,
    given in the order developers are first seen: ``canonical_ids[d]`` is
    developer ``d``'s canonical id, the lexicographically smallest email of
    their alias group (a bot's included), and ``firms[d]`` their firm. Every
    email of a resolved alias group is the same developer; a group whose
    members resolve to two firms raises AffiliationError.
    """

    def __init__(self, amap: AffiliationMap):
        self._amap = amap
        self._group_of = {email: group for group in amap.alias_groups for email in group}
        self.canonical_ids: list[str] = []
        self.firms: list[str] = []
        # each address's developer, so it is decided once however often it commits
        self._outcomes: dict[str, int | None] = {}
        self._group_number: dict[str, int] = {}  # an alias group's canonical id -> developer

    def resolve(self, email: str) -> int | None:
        """The email's developer number, or None when its commits are excluded."""
        outcome = self._outcomes.get(email, _UNDECIDED)
        if outcome is _UNDECIDED:
            outcome = self._outcomes[email] = self._decide(email)
        return outcome

    def _decide(self, email: str) -> int | None:
        amap = self._amap
        if email in amap.bot_emails:
            return None
        # an empty email is invalid too
        if not is_valid_email(email) and email not in amap.email_overrides:
            return None
        group = self._group_of.get(email)
        if group is None:
            # a group of one, as _group_firm would resolve it, without its sets
            firm = amap.email_overrides.get(email)
            if firm is None:
                firm = amap.domain_rules.get(email.rpartition("@")[2], UNAFFILIATED)
                if firm == BOT:
                    firm = UNAFFILIATED
            return self._number(email, firm)
        canonical = min(group)
        number = self._group_number.get(canonical)
        if number is None:
            number = self._group_number[canonical] = self._number(
                canonical, _group_firm(group, amap)
            )
        return number

    def _number(self, canonical_id: str, firm: str) -> int:
        self.canonical_ids.append(canonical_id)
        self.firms.append(firm)
        return len(self.firms) - 1
