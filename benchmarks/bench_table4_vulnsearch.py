"""Table IV: vulnerability search results over the firmware corpus.

Regenerates the CVE-by-CVE confirmed-vulnerability table: 7 vulnerable
functions searched against every function of every unpackable firmware
image, thresholded at the Youden-derived cutoff, confirmed via criteria
A/B.  Expected shape: implanted vulnerable functions are recovered with no
false confirmations, OpenSSL CVEs dominate the counts (they appear in the
most images), and affected vendor/model lists are reported per CVE.
"""

from repro.api import AsteriaEngine, EngineConfig
from repro.evalsuite.vulnsearch import (
    VulnerabilitySearch,
    build_firmware_dataset,
)

from benchmarks.conftest import emit_bench_json, scaled, write_result


def test_table4_vulnerability_search(benchmark, trained_asteria):
    dataset = build_firmware_dataset(
        n_images=scaled(16), seed=5, vulnerable_fraction=0.55
    )
    engine = AsteriaEngine(EngineConfig(threshold=0.8), model=trained_asteria)
    search = VulnerabilitySearch(engine, threshold=0.8)
    index = search.index_firmware(dataset)
    report, candidates = search.search(dataset, firmware_index=index)

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
    emit_bench_json(
        "table4_vulnsearch",
        {
            "n_images": report.n_images,
            "n_unpacked": report.n_unpacked,
            "n_functions": report.n_functions,
            "n_candidates": report.n_candidates,
            "total_confirmed": report.total_confirmed(),
            "confirmed_by_cve": {
                row.entry.cve_id: row.n_confirmed for row in report.rows
            },
        },
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

    library = search.encode_library()
    _entry, vuln_encoding = next(iter(library.values()))
    sample = index[: scaled(50)]

    def score_sweep():
        return [
            trained_asteria.similarity(vuln_encoding, encoding)
            for _image, _name, encoding in sample
        ]

    benchmark(score_sweep)
