"""IoT firmware vulnerability search (paper §V, Table IV).

Builds a firmware corpus with *implanted* vulnerable functions -- the
substitute for the paper's 5,979 downloaded vendor images -- and runs the
paper's search protocol:

1. ingest the corpus into the engine's index
   (``engine.ingest(IngestRequest(images=dataset.images))``): the staged
   pipeline unpacks every image with binwalk (unknown formats are
   skipped), decompiles, preprocesses and encodes every function of
   every (stripped) binary, reusing cached artifacts on warm runs;
2. encode the CVE library's 7 vulnerable functions (query-side encodings
   go through the same artifact cache);
3. flag candidates whose similarity clears the Youden-derived threshold
   (one ``engine.query_batch`` of the whole library);
4. confirm candidates via criterion A (same software and vulnerable
   version) and criterion B (similarity ≈ 1), escalating the rest to
   "manual analysis" (simulated with generation-time ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.engine import AsteriaEngine, QueryRequest
from repro.binformat.firmware import FirmwareImage, pack_firmware
from repro.compiler.pipeline import compile_package
from repro.core.model import FunctionEncoding
from repro.lang import nodes as N
from repro.lang.generator import GeneratorConfig, ProgramGenerator
from repro.lang.nodes import FunctionDef, Ops, Package
from repro.utils.logging import get_logger
from repro.utils.rng import RNG, derive_seed

_LOG = get_logger("evalsuite.vulnsearch")


@dataclass(frozen=True)
class CVEEntry:
    """One vulnerability in the search library (a Table IV row)."""

    cve_id: str
    software: str
    function_name: str
    vulnerable_version: str
    fixed_version: str


CVE_LIBRARY: Tuple[CVEEntry, ...] = (
    CVEEntry("CVE-2016-2105", "openssl", "EVP_EncodeUpdate", "1.0.1", "1.0.2t"),
    CVEEntry("CVE-2014-4877", "wget", "ftp_retrieve_glob", "1.15", "1.16"),
    CVEEntry("CVE-2014-0195", "openssl", "dtls1_reassemble_fragment", "1.0.1", "1.0.2t"),
    CVEEntry("CVE-2016-6303", "openssl", "MDC2_Update", "1.0.1", "1.0.2t"),
    CVEEntry("CVE-2016-8618", "libcurl", "curl_maprintf", "7.50.0", "7.51.0"),
    CVEEntry("CVE-2013-1944", "libcurl", "tailmatch", "7.50.0", "7.51.0"),
    CVEEntry("CVE-2011-0762", "vsftpd", "vsf_filename_passes_filter", "2.3.2", "2.3.3"),
)

_VENDOR_MODELS = {
    "NetGear": ("R7000", "D7000", "R8000", "R7500", "R7800", "R6250",
                "R7900", "FVS318Gv2", "D7800", "R6700"),
    "Dlink": ("DSN-6200", "DIR-850", "DIR-868"),
    "Schneider": ("BMX-NOE", "TSXETY", "SCADAPack"),
}

# Firmware architecture mix: mostly ARM, then PPC (paper Table II).
_ARCH_WEIGHTS = (("arm", 0.65), ("ppc", 0.20), ("x86", 0.07), ("x64", 0.08))

_VULN_GEN_CONFIG = GeneratorConfig(
    functions_per_package=1,
    min_statements=6,
    max_statements=10,
    max_depth=3,
)


def vulnerable_function(entry: CVEEntry) -> FunctionDef:
    """The (deterministic) body of one CVE's vulnerable function."""
    seed = derive_seed(0xCE, entry.cve_id)
    generator = ProgramGenerator(seed=seed, config=_VULN_GEN_CONFIG)
    fn = generator.generate_function(entry.function_name)
    return fn


def patched_function(entry: CVEEntry) -> FunctionDef:
    """The fixed variant: the vulnerable body behind a new bounds check."""
    fn = vulnerable_function(entry)
    guard = N.if_(
        N.binop(Ops.GT, N.var(fn.params[0]), N.num(4096)),
        N.block(N.ret(N.num(0))),
    )
    body = N.block(guard, *fn.body.children)
    return FunctionDef(
        name=fn.name,
        params=fn.params,
        local_vars=fn.local_vars,
        body=body,
        return_type=fn.return_type,
    )


def software_package(software: str, version: str, vulnerable: bool) -> Package:
    """A software package at one version, with its CVE functions included."""
    seed = derive_seed(0x50F7, software)
    generator = ProgramGenerator(
        seed=seed, config=GeneratorConfig(functions_per_package=8)
    )
    package = generator.generate_package(software)
    package.name = f"{software}-{version}"
    for entry in CVE_LIBRARY:
        if entry.software != software:
            continue
        fn = vulnerable_function(entry) if vulnerable else patched_function(entry)
        package.functions.append(fn)
    return package


# -- firmware corpus ---------------------------------------------------------------


@dataclass
class BinaryProvenance:
    """Generation-time ground truth for one firmware binary."""

    software: str
    version: str
    vulnerable: bool
    # vulnerable function name -> stripped display name (sub_<addr>)
    vuln_function_addresses: Dict[str, str] = field(default_factory=dict)


@dataclass
class FirmwareDataset:
    """The searchable firmware corpus plus its ground truth."""

    images: List[FirmwareImage] = field(default_factory=list)
    # (image identifier, binary name) -> provenance
    provenance: Dict[Tuple[str, str], BinaryProvenance] = field(default_factory=dict)

    def n_unpackable(self) -> int:
        return sum(1 for image in self.images if not image.unknown_format)


def build_firmware_dataset(
    n_images: int = 24,
    seed: int = 0,
    unknown_format_fraction: float = 0.1,
    vulnerable_fraction: float = 0.5,
) -> FirmwareDataset:
    """Generate vendor firmware images with implanted vulnerabilities."""
    rng = RNG(seed)
    softwares = sorted({entry.software for entry in CVE_LIBRARY}) + ["busybox"]
    versions = {
        "openssl": ("1.0.1", "1.0.2t"),
        "wget": ("1.15", "1.16"),
        "libcurl": ("7.50.0", "7.51.0"),
        "vsftpd": ("2.3.2", "2.3.3"),
        "busybox": ("1.30", "1.31"),
    }
    # Pre-compile every (software, version, arch) once; images reuse them.
    compiled: Dict[Tuple[str, str, str], object] = {}
    dataset = FirmwareDataset()
    vendors = sorted(_VENDOR_MODELS)
    arches = [a for a, _w in _ARCH_WEIGHTS]
    weights = [w for _a, w in _ARCH_WEIGHTS]
    for i in range(n_images):
        image_rng = rng.child("image", i)
        vendor = image_rng.choice(vendors)
        model = image_rng.choice(_VENDOR_MODELS[vendor])
        fw_version = f"{image_rng.randint(1, 3)}.0.{image_rng.randint(0, 9)}"
        arch = image_rng.choice(arches, weights=weights)
        unknown = image_rng.random() < unknown_format_fraction
        n_binaries = image_rng.randint(1, 2)
        chosen = image_rng.sample(softwares, n_binaries)
        binaries = []
        provenances = []
        for software in chosen:
            vulnerable = image_rng.random() < vulnerable_fraction
            old, new = versions[software]
            version = old if vulnerable else new
            key = (software, version, arch)
            if key not in compiled:
                package = software_package(software, version, vulnerable)
                compiled[key] = compile_package(package, arch)
            binary = compiled[key]
            stripped = binary.strip()
            info = BinaryProvenance(
                software=software, version=version, vulnerable=vulnerable
            )
            if vulnerable:
                for entry in CVE_LIBRARY:
                    if entry.software != software:
                        continue
                    record = binary.function_named(entry.function_name)
                    info.vuln_function_addresses[entry.function_name] = (
                        f"sub_{record.address:x}"
                    )
            binaries.append(stripped)
            provenances.append(info)
        image = pack_firmware(
            vendor, model, fw_version, binaries,
            seed=derive_seed(seed, "pack", i), unknown_format=unknown,
        )
        dataset.images.append(image)
        for binary, info in zip(binaries, provenances):
            dataset.provenance[(image.identifier, binary.name)] = info
    return dataset


# -- search ------------------------------------------------------------------------


@dataclass
class Candidate:
    """One above-threshold match."""

    entry: CVEEntry
    image: FirmwareImage
    binary_name: str
    function_name: str  # stripped display name
    score: float
    criterion_a: bool = False
    criterion_b: bool = False
    confirmed: bool = False


@dataclass
class CVEReport:
    """One Table-IV row."""

    entry: CVEEntry
    n_candidates: int
    n_confirmed: int
    vendors: Tuple[str, ...]
    models: Tuple[str, ...]


@dataclass
class SearchReport:
    rows: List[CVEReport] = field(default_factory=list)
    n_images: int = 0
    n_unpacked: int = 0
    n_functions: int = 0
    n_candidates: int = 0

    def total_confirmed(self) -> int:
        return sum(row.n_confirmed for row in self.rows)


class VulnerabilitySearch:
    """Runs the paper's end-to-end vulnerability search.

    Two execution paths produce identical reports:

    * :meth:`search` (default) -- the offline/online split, on the path
      the engine serves: the caller ingests the corpus into the engine's
      index once (``engine.ingest(IngestRequest(images=...))``), and the
      whole CVE library is one ``engine.query_batch``;
    * :meth:`search_exhaustive` -- the original protocol: score every
      (CVE, function) pair with per-pair Python calls.  Kept as the
      reference the index path is validated against.

    The search is a client of :class:`~repro.api.engine.AsteriaEngine`:
    corpus and query-side encodings run through the engine's one
    artifact cache and staged pipeline, so warm re-runs skip decompile +
    encode.
    """

    def __init__(self, engine: AsteriaEngine, threshold: float = 0.84):
        self.engine = engine
        self.model = engine.model
        self.threshold = threshold
        self.pipeline = engine.pipeline

    def index_firmware(
        self, dataset: FirmwareDataset
    ) -> List[Tuple[FirmwareImage, str, FunctionEncoding]]:
        """Unpack, decompile and encode every firmware function.

        Runs the staged pipeline (cached, optionally parallel); the
        returned list keeps the seed's ``(image, binary name, encoding)``
        shape for :meth:`search_exhaustive`.
        """
        result = self.pipeline.run(dataset.images)
        images_by_id = {image.identifier: image for image in dataset.images}
        _LOG.info(
            "indexed %d functions (%d images unidentifiable)",
            result.stats.n_functions, result.stats.n_unpack_failures,
        )
        return [
            (images_by_id[image_id], encoding.binary_name, encoding)
            for image_id, encoding in result.encodings
        ]

    def search(
        self,
        dataset: FirmwareDataset,
        top_k: Optional[int] = None,
    ) -> Tuple[SearchReport, List[Candidate]]:
        """Run the full protocol and produce the Table-IV report.

        Queries the engine's index, which the caller has filled from
        ``dataset`` (``engine.ingest(IngestRequest(images=
        dataset.images))``).  ``top_k`` caps the candidates considered
        per CVE (None keeps every above-threshold match, the paper's
        protocol).
        """
        library = self.engine.cve_library()
        images_by_id = {image.identifier: image for image in dataset.images}
        candidates: List[Candidate] = []
        cve_ids = sorted(library)
        # one batched top-k for the whole CVE library: one sweep, which
        # stops at the first callee-count ring bounded below the threshold
        results = self.engine.query_batch([
            QueryRequest(cve_id=cve_id, top_k=top_k, threshold=self.threshold)
            for cve_id in cve_ids
        ])
        for cve_id, result in zip(cve_ids, results):
            entry = library[cve_id][0]
            # store-row order mirrors the exhaustive scan's corpus order
            for hit in sorted(result.hits, key=lambda h: h.row):
                image = images_by_id.get(hit.image_id)
                if image is None:
                    raise ValueError(
                        f"index row {hit.row} references image "
                        f"{hit.image_id!r}, which is not in the dataset -- "
                        f"was the engine's index ingested from this corpus?"
                    )
                candidates.append(
                    Candidate(
                        entry=entry,
                        image=image,
                        binary_name=hit.binary_name,
                        function_name=hit.name,
                        score=hit.score,
                    )
                )
        self._confirm(candidates, dataset)
        report = self._report(dataset, results[0].n_rows, candidates)
        return report, candidates

    def search_exhaustive(
        self, dataset: FirmwareDataset
    ) -> Tuple[SearchReport, List[Candidate]]:
        """The seed's per-pair O(corpus) scan (reference implementation)."""
        library = self.engine.cve_library()
        index = self.index_firmware(dataset)
        candidates: List[Candidate] = []
        for _cve_id, (entry, vuln_encoding) in sorted(library.items()):
            for image, binary_name, encoding in index:
                score = self.model.similarity(vuln_encoding, encoding)
                if score < self.threshold:
                    continue
                candidates.append(
                    Candidate(
                        entry=entry,
                        image=image,
                        binary_name=binary_name,
                        function_name=encoding.name,
                        score=score,
                    )
                )
        self._confirm(candidates, dataset)
        return self._report(dataset, len(index), candidates), candidates

    def _report(
        self,
        dataset: FirmwareDataset,
        n_functions: int,
        candidates: List[Candidate],
    ) -> SearchReport:
        report = SearchReport(
            n_images=len(dataset.images),
            n_unpacked=dataset.n_unpackable(),
            n_functions=n_functions,
            n_candidates=len(candidates),
        )
        for entry in CVE_LIBRARY:
            confirmed = [
                c for c in candidates if c.entry == entry and c.confirmed
            ]
            report.rows.append(
                CVEReport(
                    entry=entry,
                    n_candidates=sum(1 for c in candidates if c.entry == entry),
                    n_confirmed=len(confirmed),
                    vendors=tuple(sorted({c.image.vendor for c in confirmed})),
                    models=tuple(sorted({c.image.model for c in confirmed})),
                )
            )
        return report

    def _confirm(self, candidates: List[Candidate], dataset: FirmwareDataset) -> None:
        """Apply criteria A and B, then 'manual analysis' via ground truth."""
        for candidate in candidates:
            provenance = dataset.provenance.get(
                (candidate.image.identifier, candidate.binary_name)
            )
            if provenance is None:
                continue
            expected = f"{candidate.entry.software}-{candidate.entry.vulnerable_version}"
            candidate.criterion_a = candidate.binary_name == expected
            candidate.criterion_b = candidate.score >= 0.999
            truly_vulnerable = (
                provenance.vuln_function_addresses.get(
                    candidate.entry.function_name
                )
                == candidate.function_name
            )
            if candidate.criterion_a and candidate.criterion_b:
                candidate.confirmed = True
            elif candidate.criterion_a or candidate.criterion_b:
                # manual analysis of the assembly, simulated by ground truth
                candidate.confirmed = truly_vulnerable
            else:
                candidate.confirmed = False
