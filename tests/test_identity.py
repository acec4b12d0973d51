import json
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import canonicalize_identities
from coopnet import identity
from coopnet.identity import (
    BOT,
    UNAFFILIATED,
    AffiliationError,
    AffiliationMap,
    IdentityResolver,
    load_affiliation_map,
    resolve_affiliation,
)
from coopnet.ingest import CommitRecord
from coopnet.report import RunConfig, run_pipeline

TS = datetime(2021, 1, 1, tzinfo=timezone.utc)


def commit(sha_byte: str, email: str) -> CommitRecord:
    return CommitRecord(
        sha=sha_byte * 40,
        author_name="Dev",
        author_email=email,
        timestamp=TS,
        files=("a.py",),
    )


BASIC_CONFIG = """
# comment
[domains]
hp.example = HP
ibm.example = IBM

[emails]
dev1@gmail.example = HP

[aliases]
a@x.example, a@y.example

[bots]
ci-bot@project.example
"""


def test_load_affiliation_map():
    amap = load_affiliation_map(BASIC_CONFIG)
    assert amap.domain_rules == {"hp.example": "HP", "ibm.example": "IBM"}
    assert amap.email_overrides == {"dev1@gmail.example": "HP"}
    assert amap.alias_groups == (frozenset({"a@x.example", "a@y.example"}),)
    assert amap.bot_emails == frozenset({"ci-bot@project.example"})


def test_load_rejects_conflicting_override():
    config = "[emails]\ndev@a.example = HP\ndev@a.example = IBM\n"
    with pytest.raises(AffiliationError, match="HP.*IBM|IBM.*HP"):
        load_affiliation_map(config)


def test_load_allows_repeated_identical_override():
    config = "[emails]\ndev@a.example = HP\ndev@a.example = HP\n"
    amap = load_affiliation_map(config)
    assert amap.email_overrides == {"dev@a.example": "HP"}


def test_load_rejects_email_in_two_alias_groups():
    config = "[aliases]\na@x.example, a@y.example\na@y.example, a@z.example\n"
    with pytest.raises(AffiliationError, match="two alias groups"):
        load_affiliation_map(config)


def test_load_lowercases_keys():
    amap = load_affiliation_map(
        "[domains]\nHP.example = HP\n[emails]\n  Dev@HP.example  = HP\n"
        "[aliases]\n  A@X.example , a@Y.Example  \n[bots]\n  CI@bot.example  \n"
    )
    assert "hp.example" in amap.domain_rules
    assert amap.email_overrides == {"dev@hp.example": "HP"}
    assert amap.alias_groups == (frozenset({"a@x.example", "a@y.example"}),)
    assert "ci@bot.example" in amap.bot_emails


def test_resolution_precedence():
    amap = load_affiliation_map(BASIC_CONFIG)
    assert resolve_affiliation("dev@hp.example", amap) == "HP"
    assert resolve_affiliation("dev@unknown.example", amap) == UNAFFILIATED
    assert resolve_affiliation("ci-bot@project.example", amap) == BOT
    # explicit override beats the (absent) gmail domain rule
    assert resolve_affiliation("dev1@gmail.example", amap) == "HP"


def test_override_beats_domain_rule():
    amap = load_affiliation_map(
        "[domains]\ngmail.example = Google\n[emails]\ndev1@gmail.example = HP\n"
    )
    assert resolve_affiliation("dev1@gmail.example", amap) == "HP"
    assert resolve_affiliation("other@gmail.example", amap) == "Google"


def test_canonicalize_folds_aliases():
    amap = load_affiliation_map(
        "[emails]\na@x.example = HP\n[aliases]\na@x.example, a@y.example\n"
    )
    identities, excluded = canonicalize_identities(
        [commit("1", "a@x.example"), commit("2", "a@y.example")], amap
    )
    assert not excluded
    assert identities["a@x.example"] is identities["a@y.example"]
    identity = identities["a@x.example"]
    assert identity.canonical_id == "a@x.example"
    assert identity.firm == "HP"


def test_canonicalize_excludes_missing_email_without_override():
    amap = load_affiliation_map("[domains]\nhp.example = HP\n")
    identities, excluded = canonicalize_identities([commit("1", "")], amap)
    assert identities == {}
    assert excluded == ["1" * 40]


def test_canonicalize_keeps_invalid_email_with_override():
    amap = load_affiliation_map("[emails]\ndev_at_hp = HP\n")
    identities, excluded = canonicalize_identities([commit("1", "dev_at_hp")], amap)
    assert not excluded
    assert identities["dev_at_hp"].firm == "HP"


def test_canonicalize_excludes_bots():
    amap = load_affiliation_map("[bots]\nci-bot@project.example\n")
    identities, excluded = canonicalize_identities(
        [commit("1", "ci-bot@project.example")], amap
    )
    assert identities == {}
    assert excluded == ["1" * 40]


def test_distinct_emails_stay_distinct():
    amap = load_affiliation_map("[domains]\nhp.example = HP\n")
    identities, _ = canonicalize_identities(
        [commit("1", "a@hp.example"), commit("2", "b@hp.example")], amap
    )
    assert identities["a@hp.example"].canonical_id != identities["b@hp.example"].canonical_id


def test_alias_group_with_conflicting_firms_errors():
    amap = load_affiliation_map(
        "[domains]\nhp.example = HP\nibm.example = IBM\n"
        "[aliases]\na@hp.example, a@ibm.example\n"
    )
    with pytest.raises(AffiliationError, match="multiple firms"):
        canonicalize_identities([commit("1", "a@hp.example")], amap)


def test_resolver_classifies_each_address_once(monkeypatch):
    calls = []

    def counting(email):
        calls.append(email)
        return is_valid(email)

    is_valid = identity.is_valid_email
    monkeypatch.setattr(identity, "is_valid_email", counting)
    resolver = IdentityResolver(load_affiliation_map(BASIC_CONFIG))
    emails = ["a@x.example", "dev@hp.example", "", "a@y.example", "ci-bot@project.example"]
    first = [resolver.resolve(e) for e in emails]
    assert [resolver.resolve(e) for e in emails * 3] == first * 3
    # the bot is excluded before its address is classified
    assert sorted(calls) == sorted(emails[:4])
    assert first[0] == first[3] and first[2] is None and first[4] is None


def test_resolver_numbers_developers_in_first_seen_order():
    amap = load_affiliation_map(
        "[domains]\nhp.example = HP\n[emails]\nodd_at_hp = IBM\n"
        "[aliases]\nb@hp.example, b@ibm.example, b-bot@hp.example\n"
        "[bots]\nci@hp.example\nb-bot@hp.example\n"
    )
    resolver = IdentityResolver(amap)
    emails = [
        "c@hp.example", "b@ibm.example", "ci@hp.example", "no-at-sign", "a@hp.example",
        "b@hp.example", "odd_at_hp", "", "b-bot@hp.example", "a\x01@hp.example", "c@hp.example",
    ]
    assert [resolver.resolve(e) for e in emails] == [0, 1, None, None, 2, 1, 3, None, None, None, 0]
    # an alias group is one developer, named by its smallest address, a bot's included
    assert resolver.canonical_ids == ["c@hp.example", "b-bot@hp.example", "a@hp.example", "odd_at_hp"]
    assert resolver.firms == ["HP", "HP", "HP", "IBM"]


def test_bot_address_in_alias_group_stays_excluded():
    amap = load_affiliation_map(
        "[domains]\nhp.example = HP\n"
        "[aliases]\na@hp.example, bot@hp.example\n"
        "[bots]\nbot@hp.example\n"
    )
    for order in (["a@hp.example", "bot@hp.example"], ["bot@hp.example", "a@hp.example"]):
        resolver = IdentityResolver(amap)
        outcomes = {e: resolver.resolve(e) for e in order}
        assert outcomes["bot@hp.example"] is None
        assert resolver.resolve("bot@hp.example") is None
        assert resolver.firms[outcomes["a@hp.example"]] == "HP"


def test_alias_group_conflict_raises_on_every_resolve():
    amap = load_affiliation_map(
        "[domains]\nhp.example = HP\nibm.example = IBM\n"
        "[aliases]\na@hp.example, a@ibm.example\n"
    )
    resolver = IdentityResolver(amap)
    for email in ("a@hp.example", "a@hp.example", "a@ibm.example"):
        with pytest.raises(AffiliationError, match="multiple firms"):
            resolver.resolve(email)


def test_alias_group_conflict_resolved_by_override():
    amap = load_affiliation_map(
        "[domains]\nhp.example = HP\nibm.example = IBM\n"
        "[emails]\na@hp.example = HP\n"
        "[aliases]\na@hp.example, a@ibm.example\n"
    )
    identities, _ = canonicalize_identities([commit("1", "a@ibm.example")], amap)
    assert identities["a@ibm.example"].firm == "HP"


DOMAINS = {"hp.example": "HP", "ibm.example": "IBM", "rh.example": "RedHat"}


def seeded_affiliations(seed):
    """A drawn affiliation setup: (addresses, alias groups, bots, overrides).

    Every setup holds a group whose smallest address is a bot, a group with
    a bot that is not its smallest, an invalid address with an override,
    and a group whose domains conflict, pinned by an override; the rest is
    drawn: addresses over mapped and unmapped domains, invalid ones (no
    "@") among them, groups of two or three, and a lone bot.
    """
    rng = random.Random(seed)
    hosts = [*DOMAINS, "gmail.example"]
    drawn = [f"u{i:02d}@{rng.choice(hosts)}" for i in range(20)]
    drawn += [f"v{i}_at_{rng.choice(hosts)}" for i in range(3)]
    rng.shuffle(drawn)
    groups = [
        [f"a{seed}-bot@hp.example", f"x{seed}@hp.example"],
        [f"a{seed}@rh.example", f"z{seed}-bot@rh.example"],
        [f"c{seed}@hp.example", f"c{seed}@ibm.example"],
    ]
    rest = drawn
    for _ in range(5):
        size = rng.randint(2, 3)
        groups.append(rest[:size])
        rest = rest[size:]
    bots = {groups[0][0], groups[1][1], rng.choice(drawn), rest[0]}
    overrides = {f"w{seed}_at_hp": "HP"}
    for group in groups:
        people = [e for e in group if e not in bots]
        firms = {DOMAINS.get(e.rpartition("@")[2]) for e in people} - {None}
        if len(firms) > 1 and not any(e in overrides for e in group):
            overrides[rng.choice(people)] = rng.choice(sorted(firms))
    addresses = [*drawn, *(e for g in groups[:3] for e in g), *overrides]
    addresses = list(dict.fromkeys(addresses))  # once each
    rng.shuffle(addresses)
    return addresses, groups, bots, overrides


def affiliation_config(groups, bots, overrides) -> str:
    return "\n".join([
        "[domains]", *(f"{d} = {f}" for d, f in DOMAINS.items()),
        "[emails]", *(f"{e} = {f}" for e, f in overrides.items()),
        "[aliases]", *(", ".join(g) for g in groups),
        "[bots]", *sorted(bots),
    ]) + "\n"


@pytest.mark.parametrize("seed", range(6))
def test_identities_hold_one_entry_per_developer(tmp_path, seed):
    addresses, groups, bots, overrides = seeded_affiliations(seed)
    group_of = {e: g for g in groups for e in g}
    # brute force: an address resolves unless it is a bot, or invalid without an override
    resolved = [e for e in addresses if e not in bots and ("@" in e or e in overrides)]
    expected = {min(group_of.get(e, [e])) for e in resolved}

    def firm_of(e):
        people = [m for m in group_of.get(e, [e]) if m not in bots]
        pinned = {overrides[m] for m in people if m in overrides}
        firms = pinned or {DOMAINS.get(m.rpartition("@")[2]) for m in people} - {None}
        assert len(firms) <= 1
        return firms.pop() if firms else UNAFFILIATED

    # the setup holds every case the resolver must fold
    assert any(g[0] in bots and g[0] == min(g) and g[0] in expected for g in groups)
    assert any(e in overrides and "@" not in e for e in resolved)
    assert any(
        len({DOMAINS.get(e.rpartition("@")[2]) for e in g} - {None}) > 1
        and any(e in overrides for e in g)
        for g in groups
    )
    amap = load_affiliation_map(affiliation_config(groups, bots, overrides))
    for order in (addresses, addresses[::-1]):
        resolver = IdentityResolver(amap)
        outcomes = {e: resolver.resolve(e) for e in order}
        assert sorted(resolver.canonical_ids) == sorted(expected)  # one number per developer
        assert [e for e in addresses if outcomes[e] is not None] == resolved
        for e in resolved:
            key = min(group_of.get(e, [e]))
            assert outcomes[e] == resolver.canonical_ids.index(key)
            d = outcomes[e]
            assert (resolver.canonical_ids[d], resolver.firms[d]) == (key, firm_of(e))
        for group in groups:
            assert len({outcomes[e] for e in group if outcomes[e] is not None}) <= 1

        log = tmp_path / "commits.ndjson"
        log.write_text("".join(
            json.dumps({"sha": f"{i:040x}", "author_name": "Dev", "author_email": e,
                        "timestamp": "2021-01-01T00:00:00Z", "files": [f"f{i % 3}.py"]}) + "\n"
            for i, e in enumerate(order)
        ))
        (tmp_path / "releases.csv").write_text("name,date\nr1,2030-01-01\n")
        (tmp_path / "affiliations.ini").write_text(affiliation_config(groups, bots, overrides))
        run_pipeline(RunConfig(
            commit_log=log,
            releases=tmp_path / "releases.csv",
            affiliations=tmp_path / "affiliations.ini",
            out_dir=tmp_path / "out",
            formats=frozenset({"json"}),
        ))
        summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert summary["identities"] == len(expected)


@pytest.mark.parametrize("mark", ["\u2028", "\x85"])
def test_load_ends_lines_only_at_newlines(mark):
    amap = load_affiliation_map(f"[domains]\nhp.example = Ann{mark}Co\n")
    assert amap.domain_rules == {"hp.example": f"Ann{mark}Co"}
    config = f"[domains]\nhp.example = Ann{mark}Co\nibm.example = IBM\nno equals sign\n"
    with pytest.raises(AffiliationError, match="^line 4: expected key=firm$"):
        load_affiliation_map(config)


@pytest.mark.parametrize(
    "config, bad",
    [
        ("[domains]\nhp.example = H\x01P\n", "H\x01P"),
        ("[domains]\nh\x1bp.example = HP\n", "h\x1bp.example"),
        ("[emails]\na\x00b@hp.example = HP\n", "a\x00b@hp.example"),
        ("[emails]\nab@hp.example = HP\tInc\n", "HP\tInc"),
        ("[aliases]\na@x.example, a\x1f@y.example, a\x02@z.example\n", "a\x1f@y.example"),
        ("[bots]\nci\x7f\x01@project.example\n", "ci\x7f\x01@project.example"),
        # noncharacters that XML 1.0 forbids
        ("[domains]\nhp.example = H\ufffeP\n", "H\ufffeP"),
        ("[domains]\nh\uffffp.example = HP\n", "h\uffffp.example"),
        ("[emails]\na\uffffb@hp.example = HP\n", "a\uffffb@hp.example"),
        ("[emails]\nab@hp.example = H\uffffP\n", "H\uffffP"),
        ("[aliases]\na@x.example, a\ufffe@y.example\n", "a\ufffe@y.example"),
        ("[bots]\nci\uffff@project.example\n", "ci\uffff@project.example"),
    ],
)
def test_load_rejects_control_characters_with_line_number(config, bad):
    with pytest.raises(AffiliationError) as excinfo:
        load_affiliation_map("# header\n" + config)
    assert str(excinfo.value) == f"line 3: {bad!r} holds a control character"


@pytest.mark.parametrize("config", [
    "[emails]\nx@y.example = <bot>\n",
    "[domains]\nz.example=<bot>  # a bot domain\n",
])
def test_load_refuses_the_bot_marker_as_a_firm(config):
    # the marker would make a node of firm <bot>, or an Unaffiliated one, not exclude the commits
    with pytest.raises(AffiliationError, match="^line 3: firm name <bot> is reserved$"):
        load_affiliation_map("# header\n" + config)
    assert load_affiliation_map(config.replace("<bot>", "<bot> Inc")).bot_emails == frozenset()


def test_load_allows_tabs_around_keys_and_firms():
    amap = load_affiliation_map("[domains]\n\thp.example\t=\tHP\t\n[aliases]\na@x.example,\ta@y.example\n")
    assert amap.domain_rules == {"hp.example": "HP"}
    assert amap.alias_groups == (frozenset({"a@x.example", "a@y.example"}),)


def test_resolver_excludes_email_with_control_character():
    resolver = IdentityResolver(load_affiliation_map("[domains]\nx.example = HP\n"))
    assert resolver.resolve("a\x01b@x.example") is None
    assert resolver.resolve("a\ufffeb@x.example") is None
    assert resolver.resolve("a\uffffb@x.example") is None
    assert resolver.firms[resolver.resolve("ab@x.example")] == "HP"


# --- properties -----------------------------------------------------------

emails = st.from_regex(r"[a-z]{1,4}@[a-z]{1,4}\.[a-z]{2,3}", fullmatch=True)
firms = st.sampled_from(["HP", "IBM", "RedHat", "Citrix"])


@st.composite
def affiliation_maps(draw):
    domain_rules = draw(st.dictionaries(st.from_regex(r"[a-z]{1,4}\.[a-z]{2,3}", fullmatch=True), firms, max_size=4))
    overrides = draw(st.dictionaries(emails, firms, max_size=4))
    bots = draw(st.sets(emails, max_size=2))
    return AffiliationMap(
        domain_rules=domain_rules,
        email_overrides=overrides,
        alias_groups=(),
        bot_emails=frozenset(bots),
    )


@given(emails, affiliation_maps())
def test_precedence_is_total(email, amap):
    """Exactly one rule class fires for any email."""
    result = resolve_affiliation(email, amap)
    if email in amap.bot_emails:
        assert result == BOT
    elif email in amap.email_overrides:
        assert result == amap.email_overrides[email]
    elif email.rpartition("@")[2] in amap.domain_rules:
        assert result == amap.domain_rules[email.rpartition("@")[2]]
    else:
        assert result == UNAFFILIATED


@given(st.lists(st.tuples(st.sampled_from("0123456789abcdef"), emails), max_size=8),
       affiliation_maps())
def test_canonicalize_is_idempotent(raw_commits, amap):
    records = [commit(sha_byte, email) for sha_byte, email in raw_commits]
    identities, excluded = canonicalize_identities(records, amap)
    survivors = [r for r in records if r.sha not in set(excluded)]
    rewritten = [
        CommitRecord(
            sha=r.sha,
            author_name=r.author_name,
            author_email=identities[r.author_email].canonical_id,
            timestamp=r.timestamp,
            files=r.files,
        )
        for r in survivors
    ]
    again, excluded_again = canonicalize_identities(rewritten, amap)
    assert not excluded_again
    for r in rewritten:
        assert again[r.author_email].canonical_id == r.author_email
        assert again[r.author_email].firm == identities[r.author_email].firm


@given(st.lists(st.tuples(st.sampled_from("0123456789abcdef"), emails),
                max_size=8, unique_by=lambda t: t[0]),
       affiliation_maps())
def test_folding_preserves_commit_attribution(raw_commits, amap):
    records = [commit(sha_byte, email) for sha_byte, email in raw_commits]
    identities, excluded = canonicalize_identities(records, amap)
    per_identity: dict[str, int] = {}
    for r in records:
        if r.sha in set(excluded):
            continue
        canonical = identities[r.author_email].canonical_id
        per_identity[canonical] = per_identity.get(canonical, 0) + 1
    assert sum(per_identity.values()) == len(records) - len(excluded)


@given(st.lists(emails, min_size=1, max_size=8), st.data())
def test_unaliased_address_resolves_as_a_group_of_one(addresses, data):
    # an address in no alias group is decided without _group_firm, which must
    # agree, for rules that name the Unaffiliated and bot markers too
    rule_firms = st.sampled_from(["HP", "IBM", UNAFFILIATED, BOT])
    domains = sorted({a.rpartition("@")[2] for a in addresses})
    amap = AffiliationMap(
        domain_rules=data.draw(st.dictionaries(st.sampled_from(domains), rule_firms)),
        email_overrides=data.draw(st.dictionaries(st.sampled_from(addresses), rule_firms)),
        alias_groups=(),
        bot_emails=frozenset(),
    )
    resolver = IdentityResolver(amap)
    for address in addresses:
        d = resolver.resolve(address)
        assert resolver.canonical_ids[d] == address
        assert resolver.firms[d] == identity._group_firm((address,), amap)
