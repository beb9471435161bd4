"""Table IV: vulnerability search results over the firmware corpus.

Regenerates the CVE-by-CVE confirmed-vulnerability table: 7 vulnerable
functions searched against every function of every unpackable firmware
image through the embedding index (the path the system serves),
thresholded at the Youden-derived cutoff, confirmed via criteria A/B.
Expected shape: implanted vulnerable functions are recovered with no
false confirmations, OpenSSL CVEs dominate the counts (they appear in the
most images), and affected vendor/model lists are reported per CVE.

At ``REPRO_SCALE=1`` the confirmed counts are floored at their committed
values: corpus and model are seeded, so fewer confirmations is lost
quality, not noise.
"""

from repro.api import AsteriaEngine, EngineConfig, IngestRequest
from repro.evalsuite.vulnsearch import (
    VulnerabilitySearch,
    build_firmware_dataset,
)

from benchmarks.conftest import SCALE, emit_bench_json, scaled, write_result

MIN_CONFIRMED_BY_CVE = {
    "CVE-2011-0762": 4, "CVE-2013-1944": 2, "CVE-2014-0195": 2,
    "CVE-2014-4877": 3, "CVE-2016-2105": 2, "CVE-2016-6303": 2,
    "CVE-2016-8618": 2,
}
MIN_TOTAL_CONFIRMED = 17


def test_table4_vulnerability_search(benchmark, trained_asteria):
    dataset = build_firmware_dataset(
        n_images=scaled(16), seed=5, vulnerable_fraction=0.55
    )
    engine = AsteriaEngine(EngineConfig(threshold=0.8), model=trained_asteria)
    search = VulnerabilitySearch(engine, threshold=0.8)
    engine.ingest(IngestRequest(images=dataset.images))
    report, candidates = search.search(dataset)

    lines = [
        f"images: {report.n_images} ({report.n_unpacked} unpackable), "
        f"functions indexed: {report.n_functions}, "
        f"candidates: {report.n_candidates}",
        "",
        f"{'CVE':<15} {'software':<9} {'function':<28} "
        f"{'cand':>5} {'conf':>5}  vendors/models",
    ]
    for row in report.rows:
        vendors = ",".join(row.vendors) or "-"
        models = ",".join(row.models[:4]) or "-"
        lines.append(
            f"{row.entry.cve_id:<15} {row.entry.software:<9} "
            f"{row.entry.function_name:<28} {row.n_candidates:>5} "
            f"{row.n_confirmed:>5}  {vendors} / {models}"
        )
    lines.append("")
    lines.append(f"total confirmed vulnerable functions: "
                 f"{report.total_confirmed()}")
    write_result("table4_vulnsearch", "\n".join(lines))
    confirmed_by_cve = {
        row.entry.cve_id: row.n_confirmed for row in report.rows
    }
    floored = SCALE == 1.0
    emit_bench_json(
        "table4_vulnsearch",
        {
            "n_images": report.n_images,
            "n_unpacked": report.n_unpacked,
            "n_functions": report.n_functions,
            "n_candidates": report.n_candidates,
            "total_confirmed": report.total_confirmed(),
            "confirmed_by_cve": confirmed_by_cve,
        },
        floors={
            "min_total_confirmed": MIN_TOTAL_CONFIRMED,
            "min_confirmed_by_cve": MIN_CONFIRMED_BY_CVE,
        } if floored else None,
    )

    # Shape checks: vulnerabilities are found, and every confirmation is a
    # true implant (no false confirms).
    unpackable = {
        image.identifier for image in dataset.images if not image.unknown_format
    }
    implanted = sum(
        len(info.vuln_function_addresses)
        for (image_id, _binary), info in dataset.provenance.items()
        if image_id in unpackable
    )
    if implanted:
        assert report.total_confirmed() > 0
    for candidate in candidates:
        if candidate.confirmed:
            info = dataset.provenance[
                (candidate.image.identifier, candidate.binary_name)
            ]
            assert info.vulnerable
    if floored:
        assert report.total_confirmed() >= MIN_TOTAL_CONFIRMED
        for cve_id, floor in MIN_CONFIRMED_BY_CVE.items():
            assert confirmed_by_cve[cve_id] >= floor, (cve_id, confirmed_by_cve)

    library = engine.cve_library()
    _entry, vuln_encoding = next(iter(library.values()))
    sample = search.index_firmware(dataset)[: scaled(50)]  # warm cache

    def score_sweep():
        return [
            trained_asteria.similarity(vuln_encoding, encoding)
            for _image, _name, encoding in sample
        ]

    benchmark(score_sweep)
