"""Acceptance suite: one test per acceptance criterion.

Each test prints a single pass/fail line so the whole gate can be read off
``pytest -s tests/test_acceptance.py``. Expected values come from
independent brute-force oracles computed inside this module, or from the
golden tree generated by tests/oracle/generate_golden.py.
"""

from __future__ import annotations

import os
import random
import subprocess
import time
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    Developer,
    as_strings,
    id_pair,
    canonicalize_identities,
    convert_text,
    degree_centrality,
    identity_pairs,
    make_graph,
    parse_commit_log,
    window_graph,
)
from coopnet.backbone import BackboneParams, edge_embeddedness, extract_backbone
from coopnet.identity import (
    BOT,
    UNAFFILIATED,
    AffiliationMap,
    load_affiliation_map,
    resolve_affiliation,
)
from coopnet.ingest import CommitRecord
from coopnet.metrics import (
    density,
    firm_assortativity,
    firm_mixing,
    same_firm_edge_fraction,
)
from coopnet.report import RunConfig, run_pipeline
from coopnet.slicing import POST_RELEASE, assign_release, load_releases

TOL = 1e-12


def _report(number: int, description: str):
    """Context manager printing one PASS/FAIL line per criterion."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\nACCEPTANCE {number}: {status} - {description}")
            return False

    return _Reporter()


# -- criterion 1: metric oracle equivalence, exhaustive <=5 nodes ----------

def _brute_metrics(firms: dict[str, str], edges: frozenset):
    nodes = sorted(firms)
    n, m = len(nodes), len(edges)
    pairs = list(combinations(nodes, 2))
    dens = None if n < 2 else Fraction(sum(1 for p in pairs if p in edges), len(pairs))
    degs = {v: sum(1 for e in edges if v in e) for v in nodes}
    same = None
    assort = None
    if m:
        same = Fraction(sum(1 for u, v in edges if firms[u] == firms[v]), m)
        ends: dict[str, int] = {}
        for u, v in edges:
            ends[firms[u]] = ends.get(firms[u], 0) + 1
            ends[firms[v]] = ends.get(firms[v], 0) + 1
        sum_ab = sum(Fraction(c, 2 * m) ** 2 for c in ends.values())
        if sum_ab != 1:
            assort = (same - sum_ab) / (1 - sum_ab)
    return dens, degs, same, assort


def _close(got, expected):
    if expected is None:
        return got is None
    return got is not None and abs(got - expected) < TOL


def test_criterion_1_metric_oracle_equivalence():
    with _report(1, "metrics match brute-force oracle on all 5-node graphs"):
        started = time.perf_counter()
        names = [f"n{i}" for i in range(5)]
        pairs = list(combinations(names, 2))
        labelings = [
            dict.fromkeys(names, "HP"),
            dict(zip(names, ["HP", "IBM", "HP", "IBM", "IBM"])),
        ]
        checked = 0
        for mask in range(2 ** 10):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            for firms in labelings:
                g = make_graph(firms, edges)
                dens, degs, same, assort = _brute_metrics(firms, edges)
                assert _close(density(g), dens)
                assert {v: d for v, (d, _) in degree_centrality(g).items()} == degs
                mix = firm_mixing(g)
                assert _close(same_firm_edge_fraction(mix), same)
                assert _close(firm_assortativity(mix), assort)
                checked += 1
        assert checked == 2 ** 10 * 2
        assert time.perf_counter() - started < 10


# -- criterion 2: graph construction vs nested-loop oracle -----------------

def _identity_map(dev_count):
    return {
        f"d{i}@x.example": Developer(
            canonical_id=f"d{i}@x.example", firm="HP" if i % 2 else "IBM"
        )
        for i in range(dev_count)
    }


def test_criterion_2_graph_construction_oracle():
    with _report(2, "edges match nested-loop oracle; no cross-window edges"):
        started = time.perf_counter()
        rng = random.Random(20140616)
        windows = load_releases(
            "name,date\nw1,2020-01-31\nw2,2020-02-29\nw3,2020-03-31\n"
        )
        window_start = {
            "w1": datetime(2020, 1, 1, tzinfo=timezone.utc),
            "w2": datetime(2020, 2, 1, tzinfo=timezone.utc),
            "w3": datetime(2020, 3, 1, tzinfo=timezone.utc),
        }
        for trial in range(500):
            dev_count = rng.randint(1, 6)
            file_count = rng.randint(1, 6)
            window_count = rng.randint(1, 3)
            identities = _identity_map(dev_count)
            commits = []
            for index in range(rng.randint(0, 15)):
                window = f"w{rng.randint(1, window_count)}"
                dev = rng.randrange(dev_count)
                files = tuple(
                    sorted({f"f{rng.randrange(file_count)}" for _ in range(rng.randint(1, 3))})
                )
                commits.append(
                    CommitRecord(
                        sha=f"{trial:020x}{index:020x}",
                        author_name=f"d{dev}",
                        author_email=f"d{dev}@x.example",
                        timestamp=window_start[window] + timedelta(hours=rng.randrange(600)),
                        files=files,
                    )
                )
            per_window: dict[str, list[CommitRecord]] = {w.name: [] for w in windows}
            for record in commits:
                label = assign_release(record.timestamp.date(), windows)
                assert label != POST_RELEASE
                per_window[label].append(record)

            # independent oracle: nested loops over commit pairs per window
            touched: dict[tuple[str, str], set[str]] = {}
            for record in commits:
                label = assign_release(record.timestamp.date(), windows)
                touched.setdefault((label, record.author_email), set()).update(record.files)
            for w in windows:
                g = window_graph(w.name, identity_pairs(per_window[w.name], identities))
                expected = set()
                devs = sorted(e for (label, e) in touched if label == w.name)
                for e1, e2 in combinations(devs, 2):
                    if touched[(w.name, e1)] & touched[(w.name, e2)]:
                        expected.add((e1, e2))
                assert as_strings(g).edges == expected
                # cross-window rule: an edge requires a shared file in THIS window
                for u, v in (id_pair(g, e) for e in g.edges):
                    assert touched[(w.name, u)] & touched[(w.name, v)]
        assert time.perf_counter() - started < 30


# -- criterion 3: backbone oracle ------------------------------------------

def _oracle_backbone(firms, edges, params):
    strength = {}
    for u, v in edges:
        strength[(u, v)] = sum(
            1
            for w in firms
            if w not in (u, v)
            and tuple(sorted((u, w))) in edges
            and tuple(sorted((v, w))) in edges
        )
    top = {}
    for node in firms:
        incident = sorted(
            (other for other in firms if tuple(sorted((node, other))) in edges),
            key=lambda o: (-strength[tuple(sorted((node, o)))], o),
        )
        top[node] = set(incident[: params.max_rank_k])
    kept = frozenset(
        e
        for e, s in strength.items()
        if s >= params.min_embeddedness and e[1] in top[e[0]] and e[0] in top[e[1]]
    )
    return strength, kept


def _check_backbone_against_oracle(n, mask, params):
    names = [f"n{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
    firms = dict.fromkeys(names, "HP")
    g = make_graph(firms, edges)
    strength, kept = _oracle_backbone(firms, edges, params)
    assert {id_pair(g, e): s for e, s in zip(g.edges, edge_embeddedness(g))} == strength
    assert as_strings(extract_backbone(g, params)).edges == kept


def test_criterion_3_backbone_oracle():
    # NOTE: the stated criterion asks for exhaustive graphs up to 7 nodes;
    # enumerating all 2^21 labeled 7-node graphs against the brute-force
    # oracle measurably exceeds the criterion's own 60 s budget in CPython,
    # so this runs exhaustively up to 6 nodes plus a large seeded sample of
    # 7-node graphs (see the project decision log).
    with _report(3, "embeddedness + backbone match oracle; monotone in k and floor"):
        started = time.perf_counter()
        params = BackboneParams()
        for mask in range(2 ** 15):
            _check_backbone_against_oracle(6, mask, params)
        rng = random.Random(155)
        for _ in range(20000):
            _check_backbone_against_oracle(7, rng.randrange(2 ** 21), params)
        # monotonicity: tightening either parameter never adds edges
        for _ in range(200):
            mask = rng.randrange(2 ** 21)
            k = rng.randint(2, 6)
            floor = rng.randint(0, 3)
            names = [f"n{i}" for i in range(7)]
            pairs = list(combinations(names, 2))
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            g = make_graph(dict.fromkeys(names, "HP"), edges)
            base = set(extract_backbone(g, BackboneParams(k, floor)).edges)
            assert set(extract_backbone(g, BackboneParams(k - 1, floor)).edges) <= base
            assert set(extract_backbone(g, BackboneParams(k, floor + 1)).edges) <= base
        assert time.perf_counter() - started < 60


# -- criteria 4 & 5: fixture end-to-end + determinism ----------------------

def _run_fixture(out_dir: Path) -> None:
    run_pipeline(
        RunConfig(
            commit_log=FIXTURE_DIR / "commits.ndjson",
            releases=FIXTURE_DIR / "releases.csv",
            affiliations=FIXTURE_DIR / "affiliations.ini",
            firms=FIXTURE_DIR / "firms.txt",
            revenue_models=FIXTURE_DIR / "revenue.csv",
            out_dir=out_dir,
        )
    )


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_4_fixture_matches_golden(tmp_path):
    with _report(4, "fixture run is byte-identical to the oracle-built golden tree"):
        out = tmp_path / "out"
        _run_fixture(out)
        golden = _tree_bytes(GOLDEN_DIR)
        actual = _tree_bytes(out)
        assert sorted(actual) == sorted(golden), "file sets differ"
        for name in golden:
            assert actual[name] == golden[name], f"{name} differs from golden"
        # the Table-7-analogue convention: all-firm stream has UND complement
        comparisons = (out / "comparisons.csv").read_text().splitlines()
        all_firm_rows = [r for r in comparisons if ",everything," in r]
        assert all_firm_rows and all(r.endswith(",0,UND") for r in all_firm_rows)


def test_criterion_5_determinism_incl_parallel(tmp_path):
    with _report(5, "repeated runs produce byte-identical trees"):
        first, second = tmp_path / "first", tmp_path / "second"
        _run_fixture(first)
        _run_fixture(second)
        assert _tree_bytes(second) == _tree_bytes(first)


# -- criterion 6: identity rules -------------------------------------------

def test_criterion_6_identity_rules():
    with _report(6, "precedence total order and alias-fold idempotence hold"):
        rng = random.Random(51)
        firms = ["HP", "IBM", "RedHat", "Citrix"]
        domains = [f"dom{i}.example" for i in range(5)]
        for _ in range(400):
            amap = AffiliationMap(
                domain_rules={d: rng.choice(firms) for d in rng.sample(domains, rng.randint(0, 4))},
                email_overrides={
                    f"u{i}@{rng.choice(domains)}": rng.choice(firms)
                    for i in rng.sample(range(8), rng.randint(0, 4))
                },
                alias_groups=(),
                bot_emails=frozenset(
                    f"u{i}@{rng.choice(domains)}" for i in rng.sample(range(8), rng.randint(0, 2))
                ),
            )
            email = f"u{rng.randrange(8)}@{rng.choice(domains + ['other.example'])}"
            result = resolve_affiliation(email, amap)
            if email in amap.bot_emails:
                assert result == BOT
            elif email in amap.email_overrides:
                assert result == amap.email_overrides[email]
            elif email.rpartition("@")[2] in amap.domain_rules:
                assert result == amap.domain_rules[email.rpartition("@")[2]]
            else:
                assert result == UNAFFILIATED

            records = [
                CommitRecord(
                    sha=f"{i:040x}",
                    author_name="dev",
                    author_email=f"u{rng.randrange(8)}@{rng.choice(domains)}",
                    timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc),
                    files=("f",),
                )
                for i in range(rng.randint(0, 6))
            ]
            identities, excluded = canonicalize_identities(records, amap)
            survivors = [r for r in records if r.sha not in set(excluded)]
            folded = [
                CommitRecord(
                    sha=r.sha,
                    author_name=r.author_name,
                    author_email=identities[r.author_email].canonical_id,
                    timestamp=r.timestamp,
                    files=r.files,
                )
                for r in survivors
            ]
            again, excluded_again = canonicalize_identities(folded, amap)
            assert not excluded_again
            for r in folded:
                assert again[r.author_email].canonical_id == r.author_email

        # the documented motivating example: a personal address overridden
        # to the developer's actual employer
        amap = load_affiliation_map(
            "[domains]\nhp.example = HP\n[emails]\ndev1@gmail.example = HP\n"
        )
        assert resolve_affiliation("dev1@gmail.example", amap) == "HP"
        assert resolve_affiliation("dev1@hp.example", amap) == "HP"


# -- criterion 7: optional qualitative trend check (network required) ------

@pytest.mark.skipif(
    not os.environ.get("COOPNET_NETWORK_TESTS"),
    reason="network check disabled by default; set COOPNET_NETWORK_TESTS=1",
)
def test_criterion_7_openstack_nova_trend(tmp_path):
    with _report(7, "edge counts rise through the mature releases, nodes then drop"):
        repo = tmp_path / "nova"
        subprocess.run(
            ["git", "clone", "--quiet", "https://opendev.org/openstack/nova", str(repo)],
            check=True,
        )
        raw = subprocess.run(
            [
                "git", "-C", str(repo), "log", "--no-merges", "--name-only",
                "--date=iso-strict",
                "--pretty=format:\x01COMMIT\x01%n%H%n%an%n%ae%n%cI",
            ],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        ndjson, _ = convert_text(raw)
        records, _ = parse_commit_log(ndjson)
        releases = (
            "name,date\nAustin,2010-10-21\nBexar,2011-02-03\nCactus,2011-04-15\n"
            "Diablo,2011-09-22\nEssex,2012-04-05\nFolsom,2012-09-27\n"
            "Grizzly,2013-04-04\nHavana,2013-10-17\nIcehouse,2014-04-17\n"
        )
        windows = load_releases(releases)
        # best-effort public affiliation: corporate email domains only
        amap = load_affiliation_map(
            "[domains]\n"
            "canonical.com = Canonical\ncitrix.com = Citrix\n"
            "cloudscaling.com = Cloudscaling\nhp.com = HP\nibm.com = IBM\n"
            "us.ibm.com = IBM\nmirantis.com = Mirantis\nnebula.com = Nebula\n"
            "rackspace.com = Rackspace\nvmware.com = VMware\nredhat.com = Red Hat\n"
        )
        identities, _ = canonicalize_identities(records, amap)
        top = frozenset({
            "Canonical", "Citrix", "Cloudscaling", "HP", "IBM", "Mirantis",
            "Nebula", "Rackspace", "VMware", "Red Hat",
        })
        per_window = {w.name: [] for w in windows}
        for record in records:
            label = assign_release(record.timestamp.date(), windows)
            if label != POST_RELEASE:
                per_window[label].append(record)
        graphs = {
            name: window_graph(name, identity_pairs(per_window[name], identities), top)
            for name in per_window
        }
        mature = ["Bexar", "Cactus", "Diablo", "Essex", "Folsom", "Grizzly", "Havana"]
        edge_counts = [len(graphs[name].edges) for name in mature]
        assert edge_counts == sorted(edge_counts), "edge growth not monotone"
        assert len(graphs["Icehouse"].nodes) < len(graphs["Havana"].nodes)
