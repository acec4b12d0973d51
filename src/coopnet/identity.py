"""Developer identity merging and firm affiliation resolution.

Affiliation is resolved with a strict precedence: bot exclusion, then
explicit per-email overrides, then email-domain rules, then the
"Unaffiliated" fallback. Alias groups declared in the config are folded so
one person is one node, whichever address they committed with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ingest import INVALID_EMAIL, CommitRecord, classify_email

UNAFFILIATED = "Unaffiliated"
BOT = "<bot>"

_SECTIONS = ("domains", "emails", "aliases", "bots")


class AffiliationError(Exception):
    """Invalid affiliation config or unresolvable identity conflict."""


@dataclass(frozen=True)
class AffiliationMap:
    domain_rules: dict[str, str]
    email_overrides: dict[str, str]
    alias_groups: tuple[frozenset[str], ...]
    bot_emails: frozenset[str]


@dataclass(frozen=True)
class DeveloperIdentity:
    """A canonical developer: merged emails plus one firm per run."""

    canonical_id: str
    emails: frozenset[str]
    firm: str


def load_affiliation_map(config: str) -> AffiliationMap:
    """Parse the INI-like affiliation config.

    Sections: [domains] and [emails] hold key=firm lines, [aliases] one
    comma-separated email group per line, [bots] one email per line.
    "#" starts a comment. Keys are lowercased.
    """
    domain_rules: dict[str, str] = {}
    email_overrides: dict[str, str] = {}
    alias_groups: list[frozenset[str]] = []
    aliased: set[str] = set()  # emails of every alias group so far
    bot_emails: set[str] = set()
    section = None
    for line_number, raw_line in enumerate(config.splitlines(), start=1):
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
            key, firm = key.strip().lower(), firm.strip()
            rules = domain_rules if section == "domains" else email_overrides
            if key in rules and rules[key] != firm:
                raise AffiliationError(
                    f"line {line_number}: {key} mapped to both {rules[key]} and {firm}"
                )
            rules[key] = firm
        elif section == "aliases":
            members = frozenset(e.strip().lower() for e in line.split(",") if e.strip())
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
            bot_emails.add(line.lower())
    return AffiliationMap(
        domain_rules=domain_rules,
        email_overrides=email_overrides,
        alias_groups=tuple(alias_groups),
        bot_emails=frozenset(bot_emails),
    )


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


def _group_firm(group: frozenset[str], amap: AffiliationMap) -> str:
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


def canonicalize_identities(
    records: Iterable[CommitRecord], amap: AffiliationMap
) -> tuple[dict[str, DeveloperIdentity], list[str]]:
    """Fold aliases and attach firms; returns (email -> identity, excluded shas).

    Bot commits are excluded. Records with a missing or invalid email are
    excluded unless an explicit override exists for that address. Every
    email of a resolved alias group maps to the same identity, whose
    canonical id is the group's lexicographically smallest email.
    """
    group_of = {email: group for group in amap.alias_groups for email in group}
    identities: dict[str, DeveloperIdentity] = {}
    excluded: list[str] = []
    for record in records:
        email = record.author_email
        if email in amap.bot_emails:
            excluded.append(record.sha)
            continue
        if (email == "" or classify_email(email) == INVALID_EMAIL) and (
            email not in amap.email_overrides
        ):
            excluded.append(record.sha)
            continue
        if email in identities:
            continue
        group = group_of.get(email) or frozenset({email})
        firm = _group_firm(group, amap)
        identity = DeveloperIdentity(
            canonical_id=min(group),
            emails=group,
            firm=firm,
        )
        for member in group:
            identities[member] = identity
    return identities, excluded
